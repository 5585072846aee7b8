// Invalidation-bus envelope tests: batch frame encode/decode, the
// max_batch 1 vs N differential (identical invalidation sets, counts, and
// per-member FIFO order), partial-ack semantics, envelope dedup, garbled
// acks keeping notices queued, and the router treating members with dropped
// notices as backlog-unsafe for k-staleness reads.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/exposure.h"
#include "catalog/schema.h"
#include "cluster/bus.h"
#include "cluster/router.h"
#include "crypto/keyring.h"
#include "dssp/app.h"
#include "dssp/node.h"
#include "dssp/protocol.h"

namespace dssp::cluster {
namespace {

using service::Encode;
using service::InvalidateBatchRequest;
using service::InvalidateBatchResponse;
using service::InvalidateRequest;
using service::MessageType;
using service::Seal;
using service::Unseal;
using sql::Value;

InvalidateRequest MakeInvalidate(const std::string& app_id, uint64_t nonce) {
  InvalidateRequest request;
  request.app_id = app_id;
  request.level = 0;  // Blind: clears the whole app cache.
  request.nonce = nonce;
  return request;
}

// ----- Protocol framing. -----

TEST(BatchProtocolTest, RequestRoundTripsThroughTheWire) {
  InvalidateBatchRequest batch;
  batch.nonce = 77;
  batch.notices.push_back(Encode(MakeInvalidate("app", 1)));
  batch.notices.push_back(Encode(MakeInvalidate("other", 2)));

  auto decoded = service::DecodeInvalidateBatchRequest(Encode(batch));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->nonce, 77u);
  ASSERT_EQ(decoded->notices.size(), 2u);
  EXPECT_EQ(decoded->notices[0], batch.notices[0]);
  EXPECT_EQ(decoded->notices[1], batch.notices[1]);
}

TEST(BatchProtocolTest, ResponseRoundTripsAcceptedAndRefusedAcks) {
  InvalidateBatchResponse response;
  response.acks.push_back({/*accepted=*/true, /*entries_invalidated=*/5,
                           StatusCode::kOk});
  response.acks.push_back({/*accepted=*/false, /*entries_invalidated=*/0,
                           StatusCode::kInvalidArgument});

  auto decoded = service::DecodeInvalidateBatchResponse(Encode(response));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->acks.size(), 2u);
  EXPECT_TRUE(decoded->acks[0].accepted);
  EXPECT_EQ(decoded->acks[0].entries_invalidated, 5u);
  EXPECT_FALSE(decoded->acks[1].accepted);
  EXPECT_EQ(decoded->acks[1].code, StatusCode::kInvalidArgument);
}

TEST(BatchProtocolTest, MalformedFramesAreRejectedNotCrashed) {
  InvalidateBatchRequest batch;
  batch.nonce = 1;
  batch.notices.push_back(Encode(MakeInvalidate("app", 1)));
  const std::string good = Encode(batch);

  // Zero batch nonce.
  InvalidateBatchRequest zero = batch;
  zero.nonce = 0;
  EXPECT_FALSE(service::DecodeInvalidateBatchRequest(Encode(zero)).ok());
  // Truncations at every prefix length.
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(
        service::DecodeInvalidateBatchRequest(good.substr(0, len)).ok())
        << "prefix " << len;
  }
  // Trailing garbage.
  EXPECT_FALSE(service::DecodeInvalidateBatchRequest(good + "x").ok());
  // Allocation bomb: a count far beyond the bytes that could back it.
  std::string bomb(1, static_cast<char>(MessageType::kInvalidateBatchRequest));
  for (int i = 0; i < 8; ++i) bomb.push_back(1);         // nonce
  for (int i = 0; i < 8; ++i) bomb.push_back('\xff');    // count = 2^64-ish
  EXPECT_FALSE(service::DecodeInvalidateBatchRequest(bomb).ok());

  // Response: a refusal carrying kOk is garbage.
  InvalidateBatchResponse bad;
  bad.acks.push_back({false, 0, StatusCode::kOk});
  EXPECT_FALSE(service::DecodeInvalidateBatchResponse(Encode(bad)).ok());
}

// ----- NodeChannel batch handling. -----

TEST(BatchChannelTest, PartialAckRefusesOneNoticeWithoutPoisoningTheBatch) {
  service::DsspNode node;
  NodeChannel channel(node);

  InvalidateBatchRequest batch;
  batch.nonce = 50;
  batch.notices.push_back(Encode(MakeInvalidate("app", 1)));
  // Level kView is never legal for an update notice: deterministic refusal.
  InvalidateRequest bad = MakeInvalidate("app", 2);
  bad.level = static_cast<uint8_t>(analysis::ExposureLevel::kView);
  batch.notices.push_back(Encode(bad));
  batch.notices.push_back(Encode(MakeInvalidate("app", 3)));

  auto outcome = channel.RoundTrip(Seal(Encode(batch)));
  ASSERT_TRUE(outcome.delivered);
  auto inner = Unseal(outcome.response);
  ASSERT_TRUE(inner.ok());
  auto acks = service::DecodeInvalidateBatchResponse(*inner);
  ASSERT_TRUE(acks.ok());
  ASSERT_EQ(acks->acks.size(), 3u);
  EXPECT_TRUE(acks->acks[0].accepted);
  EXPECT_FALSE(acks->acks[1].accepted);
  EXPECT_EQ(acks->acks[1].code, StatusCode::kInvalidArgument);
  EXPECT_TRUE(acks->acks[2].accepted);
  EXPECT_EQ(channel.notices_applied(), 2u);
  EXPECT_EQ(channel.batches_received(), 1u);
}

TEST(BatchChannelTest, RetriedBatchReplaysStoredAcksVerbatim) {
  service::DsspNode node;
  NodeChannel channel(node);
  InvalidateBatchRequest batch;
  batch.nonce = 9;
  batch.notices.push_back(Encode(MakeInvalidate("app", 1)));
  batch.notices.push_back(Encode(MakeInvalidate("app", 2)));
  const std::string frame = Seal(Encode(batch));

  auto first = channel.RoundTrip(frame);
  auto second = channel.RoundTrip(frame);
  ASSERT_TRUE(first.delivered && second.delivered);
  EXPECT_EQ(first.response, second.response);
  EXPECT_EQ(channel.notices_applied(), 2u);  // Applied exactly once.
  EXPECT_EQ(channel.duplicates_suppressed(), 1u);
}

TEST(BatchChannelTest, NoticeSeenInOneEnvelopeIsSuppressedInAnother) {
  service::DsspNode node;
  NodeChannel channel(node);
  const std::string notice = Encode(MakeInvalidate("app", 4));
  InvalidateBatchRequest single;
  single.nonce = 98;
  single.notices.push_back(notice);
  ASSERT_TRUE(channel.RoundTrip(Seal(Encode(single))).delivered);

  InvalidateBatchRequest batch;
  batch.nonce = 99;
  batch.notices.push_back(notice);  // Same per-notice nonce, new envelope.
  batch.notices.push_back(Encode(MakeInvalidate("app", 5)));
  ASSERT_TRUE(channel.RoundTrip(Seal(Encode(batch))).delivered);

  // The per-notice nonce window stayed authoritative across envelopes.
  EXPECT_EQ(channel.notices_applied(), 2u);
  EXPECT_EQ(channel.duplicates_suppressed(), 1u);
}

// ----- Bus envelopes: max_batch 1 vs N. -----

// Channel decorator that records every inner notice nonce crossing the
// wire, unwrapping envelopes, so tests can assert per-member FIFO delivery
// order independent of how many notices share a frame.
class RecordingChannel : public service::Channel {
 public:
  explicit RecordingChannel(service::Channel& inner) : inner_(inner) {}

  service::ChannelOutcome RoundTrip(std::string_view frame) override {
    auto unsealed = Unseal(frame);
    if (unsealed.ok()) {
      ++frames_;
      auto batch = service::DecodeInvalidateBatchRequest(*unsealed);
      if (batch.ok()) {
        ++batch_frames_;
        for (const std::string& notice : batch->notices) {
          auto request = service::DecodeInvalidateRequest(notice);
          if (request.ok()) nonces_.push_back(request->nonce);
        }
      }
    }
    return inner_.RoundTrip(frame);
  }

  const std::vector<uint64_t>& nonces() const { return nonces_; }
  uint64_t frames() const { return frames_; }
  uint64_t batch_frames() const { return batch_frames_; }

 private:
  service::Channel& inner_;
  std::vector<uint64_t> nonces_;
  uint64_t frames_ = 0;
  uint64_t batch_frames_ = 0;
};

TEST(BusBatchTest, BatchedDrainMatchesUnbatchedSetCountsAndFifoOrder) {
  constexpr int kNotices = 10;
  struct Side {
    service::DsspNode node;
    std::unique_ptr<NodeChannel> endpoint;
    std::unique_ptr<RecordingChannel> wire;
    std::unique_ptr<InvalidationBus> bus;
  };
  Side unbatched, batched;
  for (Side* side : {&unbatched, &batched}) {
    side->endpoint = std::make_unique<NodeChannel>(side->node);
    side->wire = std::make_unique<RecordingChannel>(*side->endpoint);
    BusOptions options;
    options.max_batch = side == &batched ? 4 : 1;
    side->bus = std::make_unique<InvalidationBus>(options);
    side->bus->AddMember(0, side->wire.get());
    // Queue everything, then drain once: the batched side coalesces.
    side->bus->SetDeferred(0, true);
    service::UpdateNotice notice;  // Blind.
    for (int i = 0; i < kNotices; ++i) side->bus->Publish("app", notice);
    side->bus->SetDeferred(0, false);
    auto replayed = side->bus->Flush(0);
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(*replayed, static_cast<uint64_t>(kNotices));
  }

  // Identical invalidation set and per-member FIFO order (nonces 1..10, in
  // publish order, both framings).
  ASSERT_EQ(unbatched.wire->nonces().size(), static_cast<size_t>(kNotices));
  EXPECT_EQ(unbatched.wire->nonces(), batched.wire->nonces());
  EXPECT_EQ(unbatched.node.stats("app").updates_observed,
            batched.node.stats("app").updates_observed);
  EXPECT_EQ(batched.endpoint->notices_applied(),
            unbatched.endpoint->notices_applied());

  // Identical notice counts; only the notices per envelope differ.
  const BusStats u = unbatched.bus->stats();
  const BusStats b = batched.bus->stats();
  EXPECT_EQ(u.delivered_notices, b.delivered_notices);
  EXPECT_EQ(u.dropped_frames, 0u);
  EXPECT_EQ(b.dropped_frames, 0u);
  EXPECT_EQ(u.batches_sent, static_cast<uint64_t>(kNotices));  // 1 each.
  EXPECT_EQ(b.batches_sent, 3u);  // 4 + 4 + 2.
  EXPECT_EQ(unbatched.wire->frames(), static_cast<uint64_t>(kNotices));
  EXPECT_EQ(unbatched.wire->batch_frames(), static_cast<uint64_t>(kNotices));
  EXPECT_EQ(batched.wire->frames(), 3u);
  EXPECT_EQ(batched.wire->batch_frames(), 3u);
}

TEST(BusBatchTest, RefusedNoticeInsideABatchIsDroppedNotRequeued) {
  service::DsspNode node;
  NodeChannel endpoint(node);
  BusOptions options;
  options.max_batch = 8;
  InvalidationBus bus(options);
  bus.AddMember(0, &endpoint);
  bus.SetDeferred(0, true);

  service::UpdateNotice good;  // Blind.
  service::UpdateNotice poison;
  poison.level = analysis::ExposureLevel::kView;  // Never legal: refused.
  bus.Publish("app", good);
  bus.Publish("app", poison);
  bus.Publish("app", good);
  bus.SetDeferred(0, false);

  auto replayed = bus.Flush(0);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 2u);  // The two good notices.
  EXPECT_EQ(bus.Pending(0), 0u);  // The refusal did not clog the queue.
  EXPECT_EQ(bus.Dropped(0), 1u);

  const BusStats stats = bus.stats();
  EXPECT_EQ(stats.delivered_notices, 2u);
  EXPECT_EQ(stats.dropped_frames, 1u);
  EXPECT_EQ(stats.unreachable_failures, 0u);
}

// Channel decorator that forwards every envelope to the member (so its
// notices apply) and then, while `lie` is set, replaces the member's answer
// with it.
class LyingChannel : public service::Channel {
 public:
  explicit LyingChannel(service::Channel& inner) : inner_(inner) {}

  service::ChannelOutcome RoundTrip(std::string_view frame) override {
    service::ChannelOutcome outcome = inner_.RoundTrip(frame);
    if (!lie.empty()) outcome.response = lie;
    return outcome;
  }

  std::string lie;

 private:
  service::Channel& inner_;
};

TEST(BusBatchTest, GarbledAckKeepsNoticesQueuedInOrder) {
  service::DsspNode node;
  NodeChannel endpoint(node);
  LyingChannel liar(endpoint);
  RecordingChannel wire(liar);
  BusOptions options;
  options.max_batch = 4;
  InvalidationBus bus(options);
  bus.AddMember(0, &wire);
  std::vector<bool> observed;
  bus.SetWireObserver([&](int, bool ok) { observed.push_back(ok); });
  bus.SetDeferred(0, true);
  service::UpdateNotice notice;  // Blind.
  for (int i = 0; i < 3; ++i) bus.Publish("app", notice);
  bus.SetDeferred(0, false);

  // An ack vector that matches no envelope (count mismatch), then one that
  // does not decode at all. Neither aborts; both leave every notice queued.
  const std::string lies[] = {
      Seal(Encode(InvalidateBatchResponse{})),
      Seal(std::string(1, static_cast<char>(
                              MessageType::kInvalidateBatchResponse)) +
           "junk"),
  };
  for (const std::string& lie : lies) {
    liar.lie = lie;
    auto flushed = bus.Flush(0);
    EXPECT_FALSE(flushed.ok());
    EXPECT_EQ(bus.Pending(0), 3u);
  }
  BusStats stats = bus.stats();
  EXPECT_EQ(stats.unreachable_failures, 2u);
  EXPECT_EQ(stats.delivered_notices, 0u);
  EXPECT_EQ(stats.dropped_frames, 0u);
  EXPECT_EQ(stats.batches_sent, 0u);
  EXPECT_EQ(bus.Dropped(0), 0u);
  EXPECT_EQ(observed, (std::vector<bool>{false, false}));

  // An honest answer settles them. The member applied each notice once, on
  // the first lied-about exchange; every resend was nonce-suppressed.
  liar.lie.clear();
  auto flushed = bus.Flush(0);
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(*flushed, 3u);
  EXPECT_EQ(bus.Pending(0), 0u);
  EXPECT_EQ(endpoint.notices_applied(), 3u);
  EXPECT_EQ(endpoint.duplicates_suppressed(), 6u);
  EXPECT_EQ(observed, (std::vector<bool>{false, false, true}));
  stats = bus.stats();
  EXPECT_EQ(stats.delivered_notices, 3u);
  EXPECT_EQ(stats.batches_sent, 1u);
  // Same notices, same order, on every attempt.
  EXPECT_EQ(wire.nonces(),
            (std::vector<uint64_t>{1, 2, 3, 1, 2, 3, 1, 2, 3}));
}

// ----- Router: dropped notices make a member backlog-unsafe. -----

std::unique_ptr<service::ScalableApp> MakeKvApp(const std::string& id,
                                                service::CacheBackend* dssp) {
  auto app = std::make_unique<service::ScalableApp>(
      id, dssp, crypto::KeyRing::FromPassphrase("batch-secret"));
  engine::Database& db = app->home().database();
  EXPECT_TRUE(db.CreateTable(catalog::TableSchema(
                                 "kv",
                                 {{"id", catalog::ColumnType::kInt64},
                                  {"val", catalog::ColumnType::kInt64}},
                                 {"id"}))
                  .ok());
  for (int64_t i = 1; i <= 50; ++i) {
    EXPECT_TRUE(db.InsertRow("kv", {Value(i), Value(i * 7 % 31)}).ok());
  }
  EXPECT_TRUE(
      app->home().AddQueryTemplate("SELECT val FROM kv WHERE id = ?").ok());
  EXPECT_TRUE(app->home()
                  .AddUpdateTemplate("UPDATE kv SET val = ? WHERE id = ?")
                  .ok());
  EXPECT_TRUE(app->Finalize().ok());
  return app;
}

TEST(RouterBatchTest, DroppedFramesMakeMembersBacklogUnsafeForStaleReads) {
  ClusterOptions options;
  options.num_nodes = 2;
  options.replication = 2;
  ClusterRouter router(options);
  auto app = MakeKvApp("kv", &router);
  router.SetStaleRetention("kv", 10);

  // Plant an entry on every member and invalidate it once (delivered, not
  // dropped): retained one update behind, servable by a stale read.
  for (int node = 0; node < 2; ++node) {
    service::CacheEntry entry;
    entry.key = "k";
    entry.blob = "blob";
    router.node(node).Store("kv", std::move(entry));
  }
  service::UpdateNotice blind;
  router.OnUpdate("kv", blind);
  ASSERT_TRUE(router.LookupStale("kv", "k", 5).has_value());

  // A poisoned notice every member refuses: dropped everywhere, silently
  // behind by one update with nothing queued to replay.
  service::UpdateNotice poison;
  poison.level = analysis::ExposureLevel::kView;
  router.OnUpdate("kv", poison);
  for (int node = 0; node < 2; ++node) {
    EXPECT_EQ(router.bus().Pending(node), 0u) << "node " << node;
    EXPECT_EQ(router.bus().Dropped(node), 1u) << "node " << node;
    EXPECT_EQ(router.node_stats(node).bus_dropped, 1u) << "node " << node;
  }

  // Stale reads now refuse every member: no k bound derived from Pending()
  // is sound once notices have vanished.
  const uint64_t skips_before = router.route_stats().lagging_skips;
  EXPECT_FALSE(router.LookupStale("kv", "k", 5).has_value());
  EXPECT_GT(router.route_stats().lagging_skips, skips_before);

  // Fresh lookups are unaffected — refusals are symmetric across members
  // (every member validates against the same app registration), so live
  // entries keep serving.
  for (int node = 0; node < 2; ++node) {
    service::CacheEntry entry;
    entry.key = "live";
    entry.blob = "blob";
    router.node(node).Store("kv", std::move(entry));
  }
  EXPECT_TRUE(router.Lookup("kv", "live").has_value());

  const BusStats stats = router.bus().stats();
  EXPECT_EQ(stats.dropped_frames, 2u);  // One per member.
  EXPECT_EQ(stats.unreachable_failures, 0u);
}

}  // namespace
}  // namespace dssp::cluster
