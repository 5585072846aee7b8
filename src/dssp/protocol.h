#ifndef DSSP_DSSP_PROTOCOL_H_
#define DSSP_DSSP_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "engine/database.h"

namespace dssp::backend {
class HomeBackend;
}  // namespace dssp::backend

namespace dssp::service {

// The DSSP <-> home-server wire protocol (the arrows of the paper's
// Figure 2). Every message is a length-delimited binary frame:
//
//   [1 byte type][payload...]
//
// Statement payloads are ciphertext under the application's statement
// cipher; the DSSP forwards them opaquely. Result payloads are ciphertext
// under the result cipher unless the query template's exposure level is
// `view`. The framing itself carries no plaintext application data.

enum class MessageType : uint8_t {
  kQueryRequest = 1,    // DSSP -> home: encrypted statement.
  kQueryResponse = 2,   // home -> DSSP: (possibly encrypted) result blob.
  kUpdateRequest = 3,   // DSSP -> home: encrypted statement.
  kUpdateResponse = 4,  // home -> DSSP: rows affected.
  kError = 5,           // home -> DSSP: status code + message.
  kSealed = 6,          // Integrity envelope: checksum + inner frame.

  // Cluster invalidation bus (DSSP node <-> DSSP node, src/cluster): one
  // exposure-gated update notice fanned out to every member node. The notice
  // carries exactly what the update's exposure level already revealed to the
  // publishing node — nothing extra crosses the inter-node wire. A notice
  // only travels inside a kInvalidateBatchRequest envelope; a bare one is
  // refused.
  kInvalidateRequest = 7,

  // Byte 8 is retired (it was the singleton notice's ack). It is never
  // reused, and PeekType refuses it like any unknown type.

  // The invalidation bus frame (DSSP node <-> DSSP node): a member's pending
  // FIFO, 1..max_batch notices under a single envelope nonce, so an update
  // storm amortizes the per-frame seal/retry overhead. The response acks
  // each notice individually, so one refused notice does not poison the
  // rest.
  kInvalidateBatchRequest = 9,
  kInvalidateBatchResponse = 10,

  // Home-backend health probe (DSSP -> home): one round trip over the same
  // (fault-injectable) wire as real traffic, so a wire that damages requests
  // also damages probes. The echoed token ties a response to its probe.
  kProbeRequest = 11,
  kProbeResponse = 12,

  // Sentinel: one past the last frame type. Keep last; PeekType derives the
  // valid range from it so adding a type cannot desynchronize dispatch.
  kMessageTypeEnd,
};

struct QueryRequest {
  std::string encrypted_statement;
  bool plaintext_result = false;  // Exposure level `view`.
};

struct QueryResponse {
  std::string result_blob;
};

struct UpdateRequest {
  std::string encrypted_statement;
  // Retry-idempotency nonce; 0 means "no deduplication". A nonzero nonce is
  // encoded as an optional trailing field (absent on legacy frames) and lets
  // the home server suppress re-application when a retried or duplicated
  // frame arrives after the update was already applied.
  uint64_t nonce = 0;
};

struct UpdateResponse {
  uint64_t rows_affected = 0;
};

struct ErrorResponse {
  StatusCode code = StatusCode::kInvalidArgument;
  std::string message;
};

// One exposure-gated update notice on the cluster invalidation bus. The
// statement (when the update's level exposes one) travels as SQL text and is
// re-parsed by the receiving node; `level` is the analysis::ExposureLevel as
// a byte; `template_index` uses ~0 for "not exposed".
struct InvalidateRequest {
  std::string app_id;
  uint8_t level = 0;
  uint64_t template_index = static_cast<uint64_t>(-1);
  std::string statement_sql;  // Empty when the notice carries no statement.
  // At-most-once dedup nonce (never 0): a retried or duplicated bus frame
  // must not re-run invalidation (and must not advance the staleness epoch
  // twice).
  uint64_t nonce = 0;
};

// N >= 1 update notices in one wire frame, FIFO order preserved. Each entry
// is a complete encoded kInvalidateRequest frame with its own per-notice
// dedup nonce. The batch nonce (never 0) deduplicates the whole frame
// at-most-once — a retried batch whose response was lost returns the stored
// acks instead of re-running anything.
struct InvalidateBatchRequest {
  uint64_t nonce = 0;
  std::vector<std::string> notices;  // Encoded kInvalidateRequest frames.
};

// Per-notice acknowledgement, batch order. A refused notice (malformed or
// misrouted — deterministic, so retrying is pointless) reports its status
// code without blocking the notices around it.
struct InvalidateBatchResponse {
  struct Ack {
    bool accepted = false;
    uint64_t entries_invalidated = 0;            // Valid when accepted.
    StatusCode code = StatusCode::kOk;           // Valid when refused.
  };
  std::vector<Ack> acks;
};

// Health probe: the connection pool sends these through the probe channel;
// the home side answers kProbeResponse (echoing the token) iff its backend's
// Ping() is Ok. Any loss, corruption, or error frame counts as a failed
// probe at the pool.
struct ProbeRequest {
  uint64_t token = 0;
};

struct ProbeResponse {
  uint64_t token = 0;
};

// Frame encoding/decoding. Decoders validate the type byte and payload
// structure and fail (never crash) on malformed frames.
std::string Encode(const QueryRequest& message);
std::string Encode(const QueryResponse& message);
std::string Encode(const UpdateRequest& message);
std::string Encode(const UpdateResponse& message);
std::string Encode(const ErrorResponse& message);
std::string Encode(const InvalidateRequest& message);
std::string Encode(const InvalidateBatchRequest& message);
std::string Encode(const InvalidateBatchResponse& message);
std::string Encode(const ProbeRequest& message);
std::string Encode(const ProbeResponse& message);

// Peeks the frame type; nullopt if the frame is empty or the type unknown
// (retired byte 8 included).
std::optional<MessageType> PeekType(std::string_view frame);

// Integrity envelope for lossy/corrupting transports:
//
//   [1 byte kSealed][8-byte checksum of inner][inner frame...]
//
// Seal wraps any request/response frame; Unseal verifies the checksum and
// returns the inner frame, failing with kCorruptFrame on any mismatch (this
// is how the retry layer tells wire corruption apart from genuine
// application errors). Sealing a sealed frame is rejected by Unseal.
std::string Seal(std::string_view frame);
StatusOr<std::string> Unseal(std::string_view envelope);

StatusOr<QueryRequest> DecodeQueryRequest(std::string_view frame);
StatusOr<QueryResponse> DecodeQueryResponse(std::string_view frame);
StatusOr<UpdateRequest> DecodeUpdateRequest(std::string_view frame);
StatusOr<UpdateResponse> DecodeUpdateResponse(std::string_view frame);
StatusOr<ErrorResponse> DecodeErrorResponse(std::string_view frame);
StatusOr<InvalidateRequest> DecodeInvalidateRequest(std::string_view frame);
StatusOr<InvalidateBatchRequest> DecodeInvalidateBatchRequest(
    std::string_view frame);
StatusOr<InvalidateBatchResponse> DecodeInvalidateBatchResponse(
    std::string_view frame);
StatusOr<ProbeRequest> DecodeProbeRequest(std::string_view frame);
StatusOr<ProbeResponse> DecodeProbeResponse(std::string_view frame);

// Byte-level request dispatcher for a home backend: takes one request frame,
// returns one response frame (kQueryResponse / kUpdateResponse /
// kProbeResponse / kError). This is the single entry point a transport (TCP,
// in-process channel) would call; ScalableApp drives it for full wire
// fidelity. Dispatch goes through the backend::HomeBackend interface, so any
// backend implementation sits behind the same wire.
std::string DispatchFrame(backend::HomeBackend& home, std::string_view frame);

// Client-side helpers: unwrap a response frame into the expected type,
// converting kError frames back into Status.
StatusOr<std::string> UnwrapQueryResponse(std::string_view frame);
StatusOr<engine::UpdateEffect> UnwrapUpdateResponse(std::string_view frame);

}  // namespace dssp::service

#endif  // DSSP_DSSP_PROTOCOL_H_
