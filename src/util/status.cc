#include "util/status.h"

namespace hipads {

namespace {
const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "OK";
    case Status::Code::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case Status::Code::kNotFound:
      return "NOT_FOUND";
    case Status::Code::kIOError:
      return "IO_ERROR";
    case Status::Code::kCorruption:
      return "CORRUPTION";
    case Status::Code::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case Status::Code::kUnavailable:
      return "UNAVAILABLE";
    case Status::Code::kFailedPrecondition:
      return "FAILED_PRECONDITION";
  }
  return "UNKNOWN";
}
}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string s = CodeName(code_);
  if (!message_.empty()) {
    s += ": ";
    s += message_;
  }
  return s;
}

}  // namespace hipads
