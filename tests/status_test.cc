#include "util/status.h"

#include <gtest/gtest.h>

namespace hipads {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad k");
}

TEST(StatusTest, AllConstructors) {
  EXPECT_EQ(Status::NotFound("x").code(), Status::Code::kNotFound);
  EXPECT_EQ(Status::IOError("x").code(), Status::Code::kIOError);
  EXPECT_EQ(Status::Corruption("x").code(), Status::Code::kCorruption);
  EXPECT_EQ(Status::FailedPrecondition("x").ToString(),
            "FAILED_PRECONDITION: x");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("missing"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), Status::Code::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v(std::string("hello"));
  ASSERT_TRUE(v.ok());
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "hello");
}

}  // namespace
}  // namespace hipads
