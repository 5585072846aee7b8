#ifndef DSSP_CLUSTER_BUS_H_
#define DSSP_CLUSTER_BUS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/mutex.h"
#include "common/nonce_window.h"
#include "common/status.h"
#include "dssp/channel.h"
#include "dssp/node.h"
#include "dssp/retry.h"

namespace dssp::cluster {

// In-process wire endpoint of one cluster member: the DirectChannel
// equivalent for the node<->node invalidation wire. Accepts sealed
// kInvalidateBatchRequest envelopes, applies their notices to the member's
// DsspNode in order, and answers with a sealed kInvalidateBatchResponse of
// per-notice acks — so the publishing side can run the ordinary
// RetryingClient (and, wrapped in a FaultInjectingChannel, the ordinary fault
// model) against it. Any other frame, a bare kInvalidateRequest included,
// gets a sealed kError and applies nothing.
//
// At-most-once: each notice carries a nonce; a notice whose nonce was
// already applied (a retried envelope, or a resend after a lost or garbled
// ack) reports the stored invalidation count without touching the node —
// re-running would not break cache correctness (invalidation is idempotent
// on entries) but WOULD advance the staleness epoch twice, silently
// tightening every k-staleness bound derived from it.
//
// Kill() simulates a crash or partition of this member: every frame is
// dropped undelivered until Revive(). The node object itself stays intact,
// exactly like a process that lost its network: its (possibly stale) cache
// survives to the rejoin, which is why the rejoin path must drain the
// pending queue before the member serves again.
class NodeChannel : public service::Channel {
 public:
  explicit NodeChannel(service::DsspNode& node) : node_(node) {}

  service::ChannelOutcome RoundTrip(std::string_view frame) override;

  void Kill() { alive_.store(false, std::memory_order_release); }
  void Revive() { alive_.store(true, std::memory_order_release); }
  bool alive() const { return alive_.load(std::memory_order_acquire); }

  uint64_t notices_applied() const {
    return notices_applied_.load(std::memory_order_relaxed);
  }
  uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_.load(std::memory_order_relaxed);
  }
  uint64_t batches_received() const {
    return batches_received_.load(std::memory_order_relaxed);
  }

 private:
  // Decodes, validates, nonce-dedups, and applies one kInvalidateRequest
  // frame from inside an envelope. Returns the entries invalidated, or the
  // (deterministic) refusal status.
  StatusOr<uint64_t> ApplyNoticeLocked(std::string_view inner)
      DSSP_REQUIRES(dedup_mu_);

  // Handles an unsealed kInvalidateBatchRequest; returns the unsealed
  // response frame (kInvalidateBatchResponse, or kError for a malformed
  // envelope).
  std::string HandleBatch(std::string_view inner);

  service::DsspNode& node_;
  std::atomic<bool> alive_{true};
  std::atomic<uint64_t> notices_applied_{0};
  std::atomic<uint64_t> duplicates_suppressed_{0};
  std::atomic<uint64_t> batches_received_{0};

  // Notice nonce -> entries invalidated (mirrors the home backend's update
  // dedup). The mutex also serializes apply, so a concurrent retry of the
  // same nonce cannot double-apply. Envelopes get their own window (nonce ->
  // full encoded response) so a retried envelope whose response was lost
  // replays the stored acks verbatim; the per-notice window stays the
  // authoritative guard — a notice that already arrived in one envelope is
  // suppressed when it reappears in another.
  Mutex dedup_mu_;
  NonceWindow<uint64_t> applied_notices_ DSSP_GUARDED_BY(dedup_mu_);
  NonceWindow<std::string> applied_batches_ DSSP_GUARDED_BY(dedup_mu_);
};

struct BusOptions {
  // Staleness bound: the most undelivered notices a reachable member may
  // accumulate before Publish synchronously drains it. 0 (default) delivers
  // on every publish — the strongest bound, and what the consistency oracle
  // runs under. A member lagging beyond the bound must not serve lookups
  // (the router enforces this via Pending()). The bound counts NOTICES, not
  // wire frames, so it is identical at every max_batch.
  size_t bus_lag = 0;
  // Most notices per sealed kInvalidateBatchRequest envelope; a drain sends
  // min(max_batch, queued) notices per frame. 1 (default) = one notice per
  // frame. Under update storms, an envelope of N amortizes one seal/retry
  // round trip over N notices; per-member FIFO order and the invalidation
  // set are unchanged.
  size_t max_batch = 1;
  service::RetryPolicy retry;
  uint64_t seed = 0xB05B05B0;
};

// Per-publish outcome, aggregated over members.
struct PublishOutcome {
  uint64_t entries_invalidated = 0;  // Summed over members delivered to now.
  int delivered_members = 0;
  int deferred_members = 0;  // Queued within the lag bound or marked down.
  int failed_members = 0;    // Wire retry budget exhausted; notice kept.
};

// Cumulative bus counters (relaxed-atomic snapshot). Permanent drops and
// transient unreachability are deliberately separate: a dropped notice
// vanished from its queue (the member refused it — deterministic, never
// retried), while an unreachable failure keeps the envelope's notices queued
// for the next drain. Conflating them would let silently-vanished notices
// hide inside ordinary wire noise.
struct BusStats {
  uint64_t published = 0;           // Publish calls (one notice each).
  uint64_t delivered_notices = 0;   // Notices acknowledged by a member.
  // Envelopes a member answered; together they carried exactly
  // delivered_notices + dropped_frames notices.
  uint64_t batches_sent = 0;
  uint64_t dropped_frames = 0;      // Refused notices, removed from queues.
  // Wire budget exhausted, or the ack was garbled; notices kept.
  uint64_t unreachable_failures = 0;
  uint64_t wire_retries = 0;        // RetryingClient retries, all members.
};

// Fans each exposure-gated UpdateNotice out to every member node over the
// hardened wire path (sealed frames, bounded-backoff retries, nonce dedup —
// all inherited from the DSSP<->home wire, so a lossy inter-node wire gets
// fault tolerance for free). Every member has a FIFO pending queue; a notice
// leaves the queue only once a member's ack settles it, so an
// unreachable member accumulates exactly the notices it missed and replays
// them, in order, when the router drains it at rejoin.
//
// Thread-safe. Queue discipline is per member: a slow member never blocks
// fan-out to the others.
class InvalidationBus {
 public:
  explicit InvalidationBus(BusOptions options = BusOptions{});

  InvalidationBus(const InvalidationBus&) = delete;
  InvalidationBus& operator=(const InvalidationBus&) = delete;

  // Registers a member reachable over `channel` (not owned; must outlive
  // the bus). Members must be added before the first Publish.
  void AddMember(int node, service::Channel* channel);

  // Observer invoked after every completed wire call to a member:
  // (node, ok). The router wires this into the MembershipTable, making bus
  // deliveries the failure detector's primary signal source.
  void SetWireObserver(std::function<void(int node, bool ok)> observer);

  // Marks a member deferred: Publish only queues for it, never attempts
  // delivery (the router defers members it has declared down, so a dead
  // node does not cost a retry storm on every update).
  void SetDeferred(int node, bool deferred);

  // Encodes the notice once and enqueues it for every member, then drains
  // each non-deferred member whose queue exceeds the lag bound.
  PublishOutcome Publish(const std::string& app_id,
                         const service::UpdateNotice& notice);

  // Drains one member's queue in FIFO order — up to max_batch notices per
  // envelope — stopping at the first envelope whose exchange fails (its
  // notices and everything behind them stay queued). Returns the notices
  // replayed, or the wire error.
  StatusOr<uint64_t> Flush(int node);

  size_t Pending(int node) const;

  // Notices this member refused (deterministically) and the bus therefore
  // dropped. A member with dropped notices is permanently behind by that
  // many updates with nothing left to replay — the router must treat it as
  // backlog-unsafe for k-staleness reads.
  uint64_t Dropped(int node) const;

  BusStats stats() const;

 private:
  struct Member {
    int node = 0;
    service::Channel* channel = nullptr;
    std::unique_ptr<service::RetryingClient> client;
    mutable Mutex mu;
    std::deque<std::string> queue DSSP_GUARDED_BY(mu);
    bool deferred DSSP_GUARDED_BY(mu) = false;
    uint64_t dropped DSSP_GUARDED_BY(mu) = 0;
  };

  struct DrainResult {
    uint64_t frames = 0;   // Notices acknowledged (applied or deduped).
    uint64_t entries = 0;  // Cache entries those notices invalidated.
  };

  // Drains member.queue.
  StatusOr<DrainResult> DrainLocked(Member& member)
      DSSP_REQUIRES(member.mu);

  // One wire exchange: the first `count` queued notices in one envelope.
  StatusOr<DrainResult> SendBatchLocked(Member& member, size_t count)
      DSSP_REQUIRES(member.mu);

  BusOptions options_;
  std::map<int, std::unique_ptr<Member>> members_;
  std::function<void(int, bool)> observer_;
  std::atomic<uint64_t> next_nonce_{1};
  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> delivered_notices_{0};
  std::atomic<uint64_t> batches_sent_{0};
  std::atomic<uint64_t> dropped_frames_{0};
  std::atomic<uint64_t> unreachable_failures_{0};
  std::atomic<uint64_t> wire_retries_{0};
};

}  // namespace dssp::cluster

#endif  // DSSP_CLUSTER_BUS_H_
