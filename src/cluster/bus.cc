#include "cluster/bus.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "dssp/protocol.h"
#include "sql/ast.h"
#include "sql/parser.h"

namespace dssp::cluster {

using service::ChannelOutcome;
using service::ErrorResponse;
using service::InvalidateBatchRequest;
using service::InvalidateBatchResponse;
using service::InvalidateRequest;
using service::MessageType;
using service::Seal;
using service::Unseal;
using service::UpdateNotice;

namespace {

constexpr uint64_t kNoTemplateWire = static_cast<uint64_t>(-1);

std::string SealedError(StatusCode code, std::string message) {
  return Seal(service::Encode(ErrorResponse{code, std::move(message)}));
}

// A member's per-notice verdicts on an envelope of `count` notices, given
// its answer (or the wire error). A kError answer refuses the whole envelope
// (deterministic, so every notice counts as refused). Any other answer that
// is not exactly `count` acks is garbled and proves nothing about what the
// member applied: an error, like a lost answer.
StatusOr<std::vector<InvalidateBatchResponse::Ack>> ReadAcks(
    const StatusOr<std::string>& answer, size_t count) {
  if (!answer.ok()) return answer.status();
  if (service::PeekType(*answer) == MessageType::kError) {
    DSSP_ASSIGN_OR_RETURN(const ErrorResponse error,
                          service::DecodeErrorResponse(*answer));
    return std::vector<InvalidateBatchResponse::Ack>(
        count, InvalidateBatchResponse::Ack{false, 0, error.code});
  }
  auto response = service::DecodeInvalidateBatchResponse(*answer);
  if (!response.ok() || response->acks.size() != count) {
    return CorruptFrameError("malformed invalidate batch ack");
  }
  return std::move(response->acks);
}

}  // namespace

StatusOr<uint64_t> NodeChannel::ApplyNoticeLocked(std::string_view inner) {
  DSSP_ASSIGN_OR_RETURN(InvalidateRequest request,
                        service::DecodeInvalidateRequest(inner));

  // Refuse a level byte outside the legal update range before force-casting
  // it into the enum; the node re-validates, but an arbitrary byte must not
  // reach enum-typed code at all.
  if (request.level > static_cast<uint8_t>(analysis::ExposureLevel::kStmt)) {
    return Status(StatusCode::kInvalidArgument,
                  "invalidate request exposure level out of range");
  }

  UpdateNotice notice;
  notice.level = static_cast<analysis::ExposureLevel>(request.level);
  notice.template_index =
      request.template_index == kNoTemplateWire
          ? service::CacheEntry::kNoTemplate
          : static_cast<size_t>(request.template_index);
  if (!request.statement_sql.empty()) {
    DSSP_ASSIGN_OR_RETURN(notice.statement, sql::Parse(request.statement_sql));
  }

  // Reject malformed/misrouted notices (e.g. a template index out of range
  // for this app) instead of applying them. Rejected notices are
  // deliberately NOT recorded in the nonce map: they applied nothing, so a
  // later corrected frame with the same nonce must not be suppressed as a
  // duplicate.
  DSSP_RETURN_IF_ERROR(node_.ValidateNotice(request.app_id, notice));

  if (const uint64_t* seen = applied_notices_.Find(request.nonce)) {
    duplicates_suppressed_.fetch_add(1, std::memory_order_relaxed);
    return *seen;
  }
  const uint64_t invalidated = node_.OnUpdate(request.app_id, notice);
  notices_applied_.fetch_add(1, std::memory_order_relaxed);
  applied_notices_.Insert(request.nonce, invalidated);
  return invalidated;
}

std::string NodeChannel::HandleBatch(std::string_view inner) {
  auto batch = service::DecodeInvalidateBatchRequest(inner);
  if (!batch.ok()) {
    return service::Encode(
        ErrorResponse{batch.status().code(), batch.status().message()});
  }
  batches_received_.fetch_add(1, std::memory_order_relaxed);

  MutexLock lock(dedup_mu_);
  // At-most-once for the whole envelope: a retried batch (response lost on
  // the wire) replays the stored acks byte for byte instead of touching the
  // node again. The per-notice nonce check below would suppress re-applies
  // anyway, but replaying the acks keeps duplicate accounting exact.
  if (const std::string* seen = applied_batches_.Find(batch->nonce)) {
    duplicates_suppressed_.fetch_add(1, std::memory_order_relaxed);
    return *seen;
  }

  InvalidateBatchResponse response;
  response.acks.reserve(batch->notices.size());
  for (const std::string& notice_frame : batch->notices) {
    InvalidateBatchResponse::Ack ack;
    auto applied = ApplyNoticeLocked(notice_frame);
    if (applied.ok()) {
      ack.accepted = true;
      ack.entries_invalidated = *applied;
    } else {
      ack.accepted = false;
      ack.code = applied.status().code();
    }
    response.acks.push_back(ack);
  }
  std::string encoded = service::Encode(response);
  applied_batches_.Insert(batch->nonce, encoded);
  return encoded;
}

ChannelOutcome NodeChannel::RoundTrip(std::string_view frame) {
  ChannelOutcome outcome;
  if (!alive()) return outcome;  // Crashed/partitioned: frame on the floor.

  outcome.home_deliveries = 1;
  outcome.delivered = true;

  auto inner = Unseal(frame);
  if (!inner.ok()) {
    outcome.response =
        SealedError(inner.status().code(), inner.status().message());
    return outcome;
  }

  if (service::PeekType(*inner) != MessageType::kInvalidateBatchRequest) {
    outcome.response =
        SealedError(StatusCode::kInvalidArgument,
                    "invalidation endpoint only accepts batch envelopes");
    return outcome;
  }
  outcome.response = Seal(HandleBatch(*inner));
  return outcome;
}

InvalidationBus::InvalidationBus(BusOptions options)
    : options_(std::move(options)) {}

void InvalidationBus::AddMember(int node, service::Channel* channel) {
  DSSP_CHECK(channel != nullptr);
  auto member = std::make_unique<Member>();
  member->node = node;
  member->channel = channel;
  member->client = std::make_unique<service::RetryingClient>(
      channel, options_.retry,
      options_.seed ^ (static_cast<uint64_t>(node) * 0x9e3779b97f4a7c15ULL));
  const bool inserted = members_.emplace(node, std::move(member)).second;
  DSSP_CHECK(inserted);
}

void InvalidationBus::SetWireObserver(
    std::function<void(int node, bool ok)> observer) {
  observer_ = std::move(observer);
}

void InvalidationBus::SetDeferred(int node, bool deferred) {
  const auto it = members_.find(node);
  DSSP_CHECK(it != members_.end());
  MutexLock lock(it->second->mu);
  it->second->deferred = deferred;
}

StatusOr<InvalidationBus::DrainResult> InvalidationBus::SendBatchLocked(
    Member& member, size_t count) {
  const auto first = member.queue.begin();
  const auto last = first + static_cast<ptrdiff_t>(count);
  InvalidateBatchRequest batch;
  batch.nonce = next_nonce_.fetch_add(1, std::memory_order_relaxed);
  batch.notices.assign(first, last);

  service::WireStats ws;
  auto acks = ReadAcks(member.client->Call(service::Encode(batch), &ws), count);
  wire_retries_.fetch_add(ws.retries, std::memory_order_relaxed);
  if (!acks.ok()) {
    // Unreachable through the whole retry budget, or answered with a
    // garbled ack: every notice stays queued, in order, for the next drain
    // (their per-notice nonces make the resend safe). Invalidations already
    // applied by earlier envelopes stand. One unreachable_failure per wire
    // exchange (not per notice) — the counter tracks wire events.
    unreachable_failures_.fetch_add(1, std::memory_order_relaxed);
    if (observer_) observer_(member.node, false);
    return acks.status();
  }
  if (observer_) observer_(member.node, true);
  batches_sent_.fetch_add(1, std::memory_order_relaxed);

  // Partial ack: each notice settles on its own — an accepted one counts as
  // delivered, a refused one as dropped (deterministic refusal, never
  // retried) — so one bad notice cannot poison the envelope around it. The
  // member is then permanently behind by each dropped notice; Dropped()
  // exposes that to the router so stale reads stop trusting its backlog.
  DrainResult result;
  for (const auto& ack : *acks) {
    if (ack.accepted) {
      ++result.frames;
      result.entries += ack.entries_invalidated;
      delivered_notices_.fetch_add(1, std::memory_order_relaxed);
    } else {
      dropped_frames_.fetch_add(1, std::memory_order_relaxed);
      ++member.dropped;
    }
  }
  member.queue.erase(first, last);
  return result;
}

StatusOr<InvalidationBus::DrainResult> InvalidationBus::DrainLocked(
    Member& member) {
  const size_t max_batch = options_.max_batch > 0 ? options_.max_batch : 1;
  DrainResult total;
  while (!member.queue.empty()) {
    auto sent =
        SendBatchLocked(member, std::min(max_batch, member.queue.size()));
    if (!sent.ok()) return sent.status();
    total.frames += sent->frames;
    total.entries += sent->entries;
  }
  return total;
}

PublishOutcome InvalidationBus::Publish(const std::string& app_id,
                                        const UpdateNotice& notice) {
  published_.fetch_add(1, std::memory_order_relaxed);

  InvalidateRequest request;
  request.app_id = app_id;
  request.level = static_cast<uint8_t>(notice.level);
  request.template_index =
      notice.template_index == service::CacheEntry::kNoTemplate
          ? kNoTemplateWire
          : static_cast<uint64_t>(notice.template_index);
  if (notice.statement.has_value()) {
    request.statement_sql = sql::ToSql(*notice.statement);
  }
  request.nonce = next_nonce_.fetch_add(1, std::memory_order_relaxed);
  const std::string frame = service::Encode(request);

  PublishOutcome outcome;
  for (auto& [node, member] : members_) {
    MutexLock lock(member->mu);
    member->queue.push_back(frame);
    if (member->deferred || member->queue.size() <= options_.bus_lag) {
      ++outcome.deferred_members;
      continue;
    }
    auto drained = DrainLocked(*member);
    if (drained.ok()) {
      outcome.entries_invalidated += drained->entries;
      ++outcome.delivered_members;
    } else {
      ++outcome.failed_members;
    }
  }
  return outcome;
}

StatusOr<uint64_t> InvalidationBus::Flush(int node) {
  const auto it = members_.find(node);
  DSSP_CHECK(it != members_.end());
  MutexLock lock(it->second->mu);
  DSSP_ASSIGN_OR_RETURN(const DrainResult drained, DrainLocked(*it->second));
  return drained.frames;
}

size_t InvalidationBus::Pending(int node) const {
  const auto it = members_.find(node);
  DSSP_CHECK(it != members_.end());
  MutexLock lock(it->second->mu);
  return it->second->queue.size();
}

uint64_t InvalidationBus::Dropped(int node) const {
  const auto it = members_.find(node);
  DSSP_CHECK(it != members_.end());
  MutexLock lock(it->second->mu);
  return it->second->dropped;
}

BusStats InvalidationBus::stats() const {
  BusStats out;
  out.published = published_.load(std::memory_order_relaxed);
  out.delivered_notices = delivered_notices_.load(std::memory_order_relaxed);
  out.batches_sent = batches_sent_.load(std::memory_order_relaxed);
  out.dropped_frames = dropped_frames_.load(std::memory_order_relaxed);
  out.unreachable_failures =
      unreachable_failures_.load(std::memory_order_relaxed);
  out.wire_retries = wire_retries_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace dssp::cluster
