#include "serve/fault.h"

#include <chrono>
#include <thread>

namespace hipads {

namespace {

// Sleeps in small slices so a stall honors the call's deadline with
// millisecond granularity instead of overshooting it by the whole stall.
void SleepUntil(const Deadline& until) {
  while (!until.Expired()) {
    uint64_t remaining = until.RemainingMs();
    uint64_t slice = remaining < 5 ? remaining : 5;
    std::this_thread::sleep_for(std::chrono::milliseconds(slice));
  }
}

}  // namespace

const FaultRule* MatchFault(const std::vector<FaultRule>& rules,
                            uint64_t index) {
  for (const FaultRule& rule : rules) {
    if (index < rule.first_call) continue;
    uint64_t offset = index - rule.first_call;
    if (rule.count == UINT64_MAX || offset < rule.count) return &rule;
  }
  return nullptr;
}

Status FaultInjectionChannel::Call(std::string_view request_frame,
                                   Frame* response,
                                   const Deadline& deadline) {
  uint64_t index = calls_.fetch_add(1);
  const FaultRule* rule = MatchFault(rules_, index);
  if (rule == nullptr) {
    return inner_->Call(request_frame, response, deadline);
  }
  switch (rule->kind) {
    case FaultKind::kDrop:
      return Status::IOError("injected fault: connection dropped");
    case FaultKind::kDelay:
      SleepUntil(Deadline::AfterMs(rule->param_ms));
      if (deadline.Expired()) {
        return Status::DeadlineExceeded(
            "injected fault: delayed past the deadline");
      }
      return inner_->Call(request_frame, response, deadline);
    case FaultKind::kStall:
      if (deadline.has_deadline()) {
        SleepUntil(deadline);
        return Status::DeadlineExceeded("injected fault: peer stalled");
      }
      SleepUntil(Deadline::AfterMs(rule->param_ms));
      return Status::IOError("injected fault: peer stalled");
    case FaultKind::kCloseMidResponse: {
      // The request reaches the server (side effects happen), but the
      // response is lost on the way back.
      Frame discarded;
      Status s = inner_->Call(request_frame, &discarded, deadline);
      if (!s.ok()) return s;
      return Status::IOError("injected fault: connection closed "
                             "mid-response");
    }
    case FaultKind::kCorrupt: {
      // Re-encode the inner response with one payload byte flipped and
      // run it through the real decoder: the checksum must catch it.
      Frame inner_frame;
      Status s = inner_->Call(request_frame, &inner_frame, deadline);
      if (!s.ok()) return s;
      std::string wire = EncodeFrame(inner_frame.type, inner_frame.payload);
      wire[wire.size() / 2] = static_cast<char>(wire[wire.size() / 2] ^ 0x20);
      auto decoded = DecodeFrame(wire);
      if (!decoded.ok()) return decoded.status();
      *response = std::move(decoded).value();
      return Status::Ok();
    }
    case FaultKind::kShed:
      return Status::Unavailable("injected fault: request shed");
  }
  return Status::InvalidArgument("unknown fault kind");
}

std::string FlakyFrameHandler::HandleFrame(std::string_view request,
                                           bool* close_connection) {
  uint64_t index = calls_.fetch_add(1);
  const FaultRule* rule = MatchFault(rules_, index);
  if (rule == nullptr) return inner_->HandleFrame(request, close_connection);
  switch (rule->kind) {
    case FaultKind::kDrop:
      // Pretend the request never arrived: no response bytes, drop the
      // connection under the client.
      *close_connection = true;
      return std::string();
    case FaultKind::kDelay:
    case FaultKind::kStall: {
      // Server-side the handler cannot see the client's clock; it honors
      // the frame's own wire deadline if present, else param_ms.
      auto frame = DecodeFrame(request);
      Deadline stall = Deadline::AfterMs(rule->param_ms);
      if (frame.ok() && frame.value().deadline_ms != 0) {
        stall = Deadline::Min(
            stall, Deadline::FromWireMs(frame.value().deadline_ms));
      }
      SleepUntil(stall);
      if (rule->kind == FaultKind::kDelay) {
        return inner_->HandleFrame(request, close_connection);
      }
      *close_connection = true;  // stalled, then died without answering
      return std::string();
    }
    case FaultKind::kCloseMidResponse: {
      // A prefix of the real response: the client's framing/checksum
      // layer must reject the truncation.
      std::string full = inner_->HandleFrame(request, close_connection);
      *close_connection = true;
      return full.substr(0, full.size() / 2);
    }
    case FaultKind::kCorrupt: {
      std::string full = inner_->HandleFrame(request, close_connection);
      if (!full.empty()) {
        size_t at = full.size() / 2;
        full[at] = static_cast<char>(full[at] ^ 0x20);
      }
      return full;
    }
    case FaultKind::kShed:
      return EncodeFrame(
          MessageType::kError,
          EncodeError(Status::Unavailable("injected fault: request shed")));
  }
  *close_connection = true;
  return std::string();
}

}  // namespace hipads
