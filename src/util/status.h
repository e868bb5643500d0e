// Lightweight Status / StatusOr error handling for fallible operations
// (file I/O, graph parsing). Library code does not throw exceptions.
// Follows the RocksDB/Abseil idiom: cheap, explicit, composable.

#ifndef HIPADS_UTIL_STATUS_H_
#define HIPADS_UTIL_STATUS_H_

#include <cassert>
#include <string>
#include <utility>

namespace hipads {

/// Result of a fallible operation: Ok, or an error code with a message.
class Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kIOError,
    kCorruption,
    kDeadlineExceeded,
    kUnavailable,
    kFailedPrecondition,
  };

  Status() : code_(Code::kOk) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(Code::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(Code::kUnavailable, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(Code::kFailedPrecondition, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable "CODE: message" string for logs and error reporting.
  std::string ToString() const;

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Accessing the value of a
/// non-ok StatusOr is a programming error (asserted in debug builds).
template <typename T>
class StatusOr {
 public:
  StatusOr(T value) : status_(Status::Ok()), value_(std::move(value)) {}  // NOLINT
  StatusOr(Status status) : status_(std::move(status)) {                 // NOLINT
    assert(!status_.ok() && "StatusOr constructed from Ok status w/o value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return value_;
  }
  T& value() & {
    assert(ok());
    return value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(value_);
  }

 private:
  Status status_;
  T value_{};
};

}  // namespace hipads

#endif  // HIPADS_UTIL_STATUS_H_
