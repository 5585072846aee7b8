#include "dssp/protocol.h"

#include <cstring>

#include "analysis/exposure.h"
#include "backend/home_backend.h"
#include "common/hash.h"

namespace dssp::service {

namespace {

void AppendU64(std::string* out, uint64_t value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

void AppendString(std::string* out, std::string_view value) {
  AppendU64(out, value.size());
  out->append(value);
}

// Bounds checks are phrased as `need > remaining` (never `pos + need >
// size`): with attacker-controlled 64-bit lengths the addition can wrap and
// silently bypass the check.
bool ReadU64(std::string_view frame, size_t* pos, uint64_t* out) {
  if (*pos > frame.size() || sizeof(uint64_t) > frame.size() - *pos) {
    return false;
  }
  std::memcpy(out, frame.data() + *pos, sizeof(uint64_t));
  *pos += sizeof(uint64_t);
  return true;
}

bool ReadString(std::string_view frame, size_t* pos, std::string* out) {
  uint64_t length = 0;
  if (!ReadU64(frame, pos, &length)) return false;
  if (length > frame.size() - *pos) return false;
  out->assign(frame.substr(*pos, length));
  *pos += length;
  return true;
}

Status CheckType(std::string_view frame, MessageType expected, size_t* pos) {
  if (frame.empty()) return ParseError("empty frame");
  if (static_cast<MessageType>(frame[0]) != expected) {
    return ParseError("unexpected frame type");
  }
  *pos = 1;
  return Status::Ok();
}

Status CheckConsumed(std::string_view frame, size_t pos) {
  if (pos != frame.size()) return ParseError("trailing bytes in frame");
  return Status::Ok();
}

}  // namespace

std::string Encode(const QueryRequest& message) {
  std::string out(1, static_cast<char>(MessageType::kQueryRequest));
  out.push_back(message.plaintext_result ? 1 : 0);
  AppendString(&out, message.encrypted_statement);
  return out;
}

std::string Encode(const QueryResponse& message) {
  std::string out(1, static_cast<char>(MessageType::kQueryResponse));
  AppendString(&out, message.result_blob);
  return out;
}

std::string Encode(const UpdateRequest& message) {
  std::string out(1, static_cast<char>(MessageType::kUpdateRequest));
  AppendString(&out, message.encrypted_statement);
  // Optional trailing dedup nonce; omitted when 0 so legacy frames (and
  // their byte counts) are unchanged.
  if (message.nonce != 0) AppendU64(&out, message.nonce);
  return out;
}

std::string Encode(const UpdateResponse& message) {
  std::string out(1, static_cast<char>(MessageType::kUpdateResponse));
  AppendU64(&out, message.rows_affected);
  return out;
}

std::string Encode(const ErrorResponse& message) {
  std::string out(1, static_cast<char>(MessageType::kError));
  AppendU64(&out, static_cast<uint64_t>(message.code));
  AppendString(&out, message.message);
  return out;
}

std::string Encode(const InvalidateRequest& message) {
  std::string out(1, static_cast<char>(MessageType::kInvalidateRequest));
  out.push_back(static_cast<char>(message.level));
  AppendU64(&out, message.template_index);
  AppendString(&out, message.app_id);
  AppendString(&out, message.statement_sql);
  AppendU64(&out, message.nonce);
  return out;
}

std::string Encode(const InvalidateBatchRequest& message) {
  std::string out(1, static_cast<char>(MessageType::kInvalidateBatchRequest));
  AppendU64(&out, message.nonce);
  AppendU64(&out, message.notices.size());
  for (const std::string& notice : message.notices) {
    AppendString(&out, notice);
  }
  return out;
}

std::string Encode(const InvalidateBatchResponse& message) {
  std::string out(1,
                  static_cast<char>(MessageType::kInvalidateBatchResponse));
  AppendU64(&out, message.acks.size());
  for (const InvalidateBatchResponse::Ack& ack : message.acks) {
    out.push_back(ack.accepted ? 1 : 0);
    AppendU64(&out, ack.accepted ? ack.entries_invalidated
                                 : static_cast<uint64_t>(ack.code));
  }
  return out;
}

std::string Encode(const ProbeRequest& message) {
  std::string out(1, static_cast<char>(MessageType::kProbeRequest));
  AppendU64(&out, message.token);
  return out;
}

std::string Encode(const ProbeResponse& message) {
  std::string out(1, static_cast<char>(MessageType::kProbeResponse));
  AppendU64(&out, message.token);
  return out;
}

std::optional<MessageType> PeekType(std::string_view frame) {
  if (frame.empty()) return std::nullopt;
  const uint8_t type = static_cast<uint8_t>(frame[0]);
  // Range derived from the enum itself (kQueryRequest is the first real
  // type, kMessageTypeEnd the sentinel past the last one), minus the one
  // retired byte inside it.
  constexpr uint8_t kRetiredInvalidateResponse = 8;
  if (type < static_cast<uint8_t>(MessageType::kQueryRequest) ||
      type >= static_cast<uint8_t>(MessageType::kMessageTypeEnd) ||
      type == kRetiredInvalidateResponse) {
    return std::nullopt;
  }
  return static_cast<MessageType>(type);
}

std::string Seal(std::string_view frame) {
  std::string out(1, static_cast<char>(MessageType::kSealed));
  AppendU64(&out, Hash64(frame));
  out.append(frame);
  return out;
}

StatusOr<std::string> Unseal(std::string_view envelope) {
  size_t pos = 0;
  if (envelope.empty() ||
      static_cast<MessageType>(envelope[0]) != MessageType::kSealed) {
    return CorruptFrameError("not a sealed frame");
  }
  pos = 1;
  uint64_t checksum = 0;
  if (!ReadU64(envelope, &pos, &checksum)) {
    return CorruptFrameError("truncated sealed frame");
  }
  const std::string_view inner = envelope.substr(pos);
  if (Hash64(inner) != checksum) {
    return CorruptFrameError("frame checksum mismatch");
  }
  if (!inner.empty() &&
      static_cast<MessageType>(inner[0]) == MessageType::kSealed) {
    return CorruptFrameError("nested sealed frame");
  }
  return std::string(inner);
}

StatusOr<QueryRequest> DecodeQueryRequest(std::string_view frame) {
  size_t pos = 0;
  DSSP_RETURN_IF_ERROR(CheckType(frame, MessageType::kQueryRequest, &pos));
  if (pos >= frame.size()) return ParseError("truncated query request");
  QueryRequest message;
  message.plaintext_result = frame[pos++] != 0;
  if (!ReadString(frame, &pos, &message.encrypted_statement)) {
    return ParseError("malformed query request");
  }
  DSSP_RETURN_IF_ERROR(CheckConsumed(frame, pos));
  return message;
}

StatusOr<QueryResponse> DecodeQueryResponse(std::string_view frame) {
  size_t pos = 0;
  DSSP_RETURN_IF_ERROR(CheckType(frame, MessageType::kQueryResponse, &pos));
  QueryResponse message;
  if (!ReadString(frame, &pos, &message.result_blob)) {
    return ParseError("malformed query response");
  }
  DSSP_RETURN_IF_ERROR(CheckConsumed(frame, pos));
  return message;
}

StatusOr<UpdateRequest> DecodeUpdateRequest(std::string_view frame) {
  size_t pos = 0;
  DSSP_RETURN_IF_ERROR(CheckType(frame, MessageType::kUpdateRequest, &pos));
  UpdateRequest message;
  if (!ReadString(frame, &pos, &message.encrypted_statement)) {
    return ParseError("malformed update request");
  }
  // Optional trailing dedup nonce (absent on legacy frames).
  if (pos != frame.size()) {
    if (!ReadU64(frame, &pos, &message.nonce) || message.nonce == 0) {
      return ParseError("malformed update request nonce");
    }
  }
  DSSP_RETURN_IF_ERROR(CheckConsumed(frame, pos));
  return message;
}

StatusOr<UpdateResponse> DecodeUpdateResponse(std::string_view frame) {
  size_t pos = 0;
  DSSP_RETURN_IF_ERROR(CheckType(frame, MessageType::kUpdateResponse, &pos));
  UpdateResponse message;
  if (!ReadU64(frame, &pos, &message.rows_affected)) {
    return ParseError("malformed update response");
  }
  DSSP_RETURN_IF_ERROR(CheckConsumed(frame, pos));
  return message;
}

StatusOr<ErrorResponse> DecodeErrorResponse(std::string_view frame) {
  size_t pos = 0;
  DSSP_RETURN_IF_ERROR(CheckType(frame, MessageType::kError, &pos));
  ErrorResponse message;
  uint64_t code = 0;
  // Code 0 (kOk) is not a legal error; reject it with the other garbage.
  // The upper bound comes from the StatusCode sentinel, not a literal.
  if (!ReadU64(frame, &pos, &code) || code == 0 ||
      code >= static_cast<uint64_t>(StatusCode::kStatusCodeEnd)) {
    return ParseError("malformed error response");
  }
  message.code = static_cast<StatusCode>(code);
  if (!ReadString(frame, &pos, &message.message)) {
    return ParseError("malformed error response");
  }
  DSSP_RETURN_IF_ERROR(CheckConsumed(frame, pos));
  return message;
}

StatusOr<InvalidateRequest> DecodeInvalidateRequest(std::string_view frame) {
  size_t pos = 0;
  DSSP_RETURN_IF_ERROR(
      CheckType(frame, MessageType::kInvalidateRequest, &pos));
  if (pos >= frame.size()) return ParseError("truncated invalidate request");
  InvalidateRequest message;
  message.level = static_cast<uint8_t>(frame[pos++]);
  // The level byte must name a real exposure level; the range comes from
  // the enum, not a literal.
  if (message.level > static_cast<uint8_t>(analysis::ExposureLevel::kView)) {
    return ParseError("bad exposure level in invalidate request");
  }
  if (!ReadU64(frame, &pos, &message.template_index) ||
      !ReadString(frame, &pos, &message.app_id) ||
      !ReadString(frame, &pos, &message.statement_sql) ||
      !ReadU64(frame, &pos, &message.nonce) || message.nonce == 0) {
    return ParseError("malformed invalidate request");
  }
  DSSP_RETURN_IF_ERROR(CheckConsumed(frame, pos));
  return message;
}

StatusOr<InvalidateBatchRequest> DecodeInvalidateBatchRequest(
    std::string_view frame) {
  size_t pos = 0;
  DSSP_RETURN_IF_ERROR(
      CheckType(frame, MessageType::kInvalidateBatchRequest, &pos));
  InvalidateBatchRequest message;
  uint64_t count = 0;
  if (!ReadU64(frame, &pos, &message.nonce) || message.nonce == 0 ||
      !ReadU64(frame, &pos, &count)) {
    return ParseError("malformed invalidate batch request");
  }
  // Every entry needs at least its 8-byte length prefix, so an honest count
  // is bounded by the remaining bytes — reject allocation bombs before
  // reserving anything.
  if (count == 0 || count > (frame.size() - pos) / sizeof(uint64_t)) {
    return ParseError("bad notice count in invalidate batch request");
  }
  message.notices.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string notice;
    if (!ReadString(frame, &pos, &notice)) {
      return ParseError("truncated notice in invalidate batch request");
    }
    message.notices.push_back(std::move(notice));
  }
  DSSP_RETURN_IF_ERROR(CheckConsumed(frame, pos));
  return message;
}

StatusOr<InvalidateBatchResponse> DecodeInvalidateBatchResponse(
    std::string_view frame) {
  size_t pos = 0;
  DSSP_RETURN_IF_ERROR(
      CheckType(frame, MessageType::kInvalidateBatchResponse, &pos));
  InvalidateBatchResponse message;
  uint64_t count = 0;
  if (!ReadU64(frame, &pos, &count)) {
    return ParseError("malformed invalidate batch response");
  }
  constexpr size_t kAckBytes = 1 + sizeof(uint64_t);
  if (count > (frame.size() - pos) / kAckBytes) {
    return ParseError("bad ack count in invalidate batch response");
  }
  message.acks.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    if (pos >= frame.size()) {
      return ParseError("truncated invalidate batch response");
    }
    InvalidateBatchResponse::Ack ack;
    ack.accepted = frame[pos++] != 0;
    uint64_t value = 0;
    if (!ReadU64(frame, &pos, &value)) {
      return ParseError("truncated invalidate batch response");
    }
    if (ack.accepted) {
      ack.entries_invalidated = value;
    } else {
      // A refusal must carry a real error code (kOk refusals are garbage).
      if (value == 0 ||
          value >= static_cast<uint64_t>(StatusCode::kStatusCodeEnd)) {
        return ParseError("bad status code in invalidate batch response");
      }
      ack.code = static_cast<StatusCode>(value);
    }
    message.acks.push_back(ack);
  }
  DSSP_RETURN_IF_ERROR(CheckConsumed(frame, pos));
  return message;
}

StatusOr<ProbeRequest> DecodeProbeRequest(std::string_view frame) {
  size_t pos = 0;
  DSSP_RETURN_IF_ERROR(CheckType(frame, MessageType::kProbeRequest, &pos));
  ProbeRequest message;
  if (!ReadU64(frame, &pos, &message.token)) {
    return ParseError("malformed probe request");
  }
  DSSP_RETURN_IF_ERROR(CheckConsumed(frame, pos));
  return message;
}

StatusOr<ProbeResponse> DecodeProbeResponse(std::string_view frame) {
  size_t pos = 0;
  DSSP_RETURN_IF_ERROR(CheckType(frame, MessageType::kProbeResponse, &pos));
  ProbeResponse message;
  if (!ReadU64(frame, &pos, &message.token)) {
    return ParseError("malformed probe response");
  }
  DSSP_RETURN_IF_ERROR(CheckConsumed(frame, pos));
  return message;
}

std::string DispatchFrame(backend::HomeBackend& home, std::string_view frame) {
  const std::optional<MessageType> type = PeekType(frame);
  if (!type.has_value()) {
    return Encode(ErrorResponse{StatusCode::kParseError, "bad frame"});
  }
  if (*type == MessageType::kSealed) {
    // Integrity envelope: verify, dispatch the inner frame, seal the reply.
    // A checksum mismatch gets a distinguishable kCorruptFrame error so the
    // client retries instead of surfacing a bogus application error.
    auto inner = Unseal(frame);
    if (!inner.ok()) {
      return Seal(Encode(
          ErrorResponse{inner.status().code(), inner.status().message()}));
    }
    return Seal(DispatchFrame(home, *inner));
  }
  switch (*type) {
    case MessageType::kQueryRequest: {
      auto request = DecodeQueryRequest(frame);
      if (!request.ok()) {
        return Encode(ErrorResponse{request.status().code(),
                                    request.status().message()});
      }
      auto blob = home.HandleQuery(request->encrypted_statement,
                                   request->plaintext_result);
      if (!blob.ok()) {
        return Encode(
            ErrorResponse{blob.status().code(), blob.status().message()});
      }
      return Encode(QueryResponse{std::move(*blob)});
    }
    case MessageType::kUpdateRequest: {
      auto request = DecodeUpdateRequest(frame);
      if (!request.ok()) {
        return Encode(ErrorResponse{request.status().code(),
                                    request.status().message()});
      }
      auto effect =
          home.HandleUpdate(request->encrypted_statement, request->nonce);
      if (!effect.ok()) {
        return Encode(
            ErrorResponse{effect.status().code(), effect.status().message()});
      }
      return Encode(UpdateResponse{effect->rows_affected});
    }
    case MessageType::kProbeRequest: {
      auto request = DecodeProbeRequest(frame);
      if (!request.ok()) {
        return Encode(ErrorResponse{request.status().code(),
                                    request.status().message()});
      }
      const Status alive = home.Ping();
      if (!alive.ok()) {
        return Encode(ErrorResponse{alive.code(), alive.message()});
      }
      return Encode(ProbeResponse{request->token});
    }
    default:
      return Encode(
          ErrorResponse{StatusCode::kInvalidArgument,
                        "home server only accepts request frames"});
  }
}

namespace {

Status ErrorFrameToStatus(std::string_view frame) {
  auto error = DecodeErrorResponse(frame);
  if (!error.ok()) return ParseError("undecodable error frame");
  return Status(error->code, error->message);
}

}  // namespace

StatusOr<std::string> UnwrapQueryResponse(std::string_view frame) {
  const std::optional<MessageType> type = PeekType(frame);
  if (type == MessageType::kError) return ErrorFrameToStatus(frame);
  DSSP_ASSIGN_OR_RETURN(QueryResponse response, DecodeQueryResponse(frame));
  return std::move(response.result_blob);
}

StatusOr<engine::UpdateEffect> UnwrapUpdateResponse(std::string_view frame) {
  const std::optional<MessageType> type = PeekType(frame);
  if (type == MessageType::kError) return ErrorFrameToStatus(frame);
  DSSP_ASSIGN_OR_RETURN(UpdateResponse response,
                        DecodeUpdateResponse(frame));
  return engine::UpdateEffect{response.rows_affected};
}

}  // namespace dssp::service
