// Cluster subsystem tests: membership health transitions, invalidation-bus
// queueing/dedup/replay, and the router's replica-fallback + drain-gated
// rejoin behavior, including a multi-threaded soak (run under -DDSSP_TSAN=ON).

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/exposure.h"
#include "catalog/schema.h"
#include "cluster/bus.h"
#include "cluster/membership.h"
#include "cluster/router.h"
#include "crypto/keyring.h"
#include "dssp/app.h"
#include "dssp/protocol.h"

namespace dssp::cluster {
namespace {

using service::Seal;
using sql::Value;

constexpr int64_t kKeySpace = 200;

// The wire-fault tests' kv tenant, rebased onto a cluster backend.
std::unique_ptr<service::ScalableApp> MakeKvApp(const std::string& id,
                                                service::CacheBackend* dssp) {
  auto app = std::make_unique<service::ScalableApp>(
      id, dssp, crypto::KeyRing::FromPassphrase("cluster-secret"));
  engine::Database& db = app->home().database();
  EXPECT_TRUE(db.CreateTable(catalog::TableSchema(
                                 "kv",
                                 {{"id", catalog::ColumnType::kInt64},
                                  {"val", catalog::ColumnType::kInt64}},
                                 {"id"}))
                  .ok());
  for (int64_t i = 1; i <= kKeySpace; ++i) {
    EXPECT_TRUE(db.InsertRow("kv", {Value(i), Value(i * 13 % 101)}).ok());
  }
  EXPECT_TRUE(
      app->home().AddQueryTemplate("SELECT val FROM kv WHERE id = ?").ok());
  EXPECT_TRUE(app->home()
                  .AddUpdateTemplate("UPDATE kv SET val = ? WHERE id = ?")
                  .ok());
  EXPECT_TRUE(app->Finalize().ok());
  return app;
}

// ----- MembershipTable. -----

TEST(MembershipTest, FailureStreaksDriveSuspectThenDown) {
  MembershipTable table({.suspect_after = 2, .down_after = 4});
  table.AddNode(0);
  const uint64_t epoch0 = table.epoch();

  EXPECT_FALSE(table.ReportFailure(0));  // 1 failure: still alive.
  EXPECT_EQ(table.health(0), NodeHealth::kAlive);
  EXPECT_TRUE(table.ReportFailure(0));  // 2: suspect.
  EXPECT_EQ(table.health(0), NodeHealth::kSuspect);
  EXPECT_TRUE(table.Servable(0));  // Suspect still serves.
  EXPECT_FALSE(table.ReportFailure(0));  // 3: still suspect.
  EXPECT_TRUE(table.ReportFailure(0));  // 4: down.
  EXPECT_EQ(table.health(0), NodeHealth::kDown);
  EXPECT_FALSE(table.Servable(0));
  EXPECT_GT(table.epoch(), epoch0);

  const MemberCounters counters = table.counters(0);
  EXPECT_EQ(counters.suspect_transitions, 1u);
  EXPECT_EQ(counters.down_transitions, 1u);
}

TEST(MembershipTest, SuccessRecoversSuspectButNeverDown) {
  MembershipTable table({.suspect_after = 1, .down_after = 3});
  table.AddNode(0);
  table.AddNode(1);

  ASSERT_TRUE(table.ReportFailure(0));
  ASSERT_EQ(table.health(0), NodeHealth::kSuspect);
  EXPECT_TRUE(table.ReportSuccess(0));
  EXPECT_EQ(table.health(0), NodeHealth::kAlive);
  // The streak was cleared: it takes a full streak to suspect again.
  EXPECT_TRUE(table.ReportFailure(0));

  for (int i = 0; i < 3; ++i) table.ReportFailure(1);
  ASSERT_EQ(table.health(1), NodeHealth::kDown);
  EXPECT_FALSE(table.ReportSuccess(1));  // Down is sticky...
  EXPECT_EQ(table.health(1), NodeHealth::kDown);
  EXPECT_FALSE(table.ReportFailure(1));  // ...and further failures no-op.
  EXPECT_TRUE(table.Rejoin(1));  // ...until an explicit rejoin.
  EXPECT_EQ(table.health(1), NodeHealth::kAlive);
  EXPECT_FALSE(table.Rejoin(1));  // Rejoining an alive node is a no-op.
  EXPECT_EQ(table.counters(1).rejoins, 1u);
}

TEST(MembershipTest, ServableNodesExcludesOnlyDownMembers) {
  MembershipTable table({.suspect_after = 1, .down_after = 2});
  for (int i = 0; i < 3; ++i) table.AddNode(i);
  table.ReportFailure(1);  // Suspect.
  table.ReportFailure(2);
  table.ReportFailure(2);  // Down.
  EXPECT_EQ(table.ServableNodes(), (std::vector<int>{0, 1}));
}

// ----- NodeChannel + InvalidationBus. -----

service::InvalidateRequest MakeInvalidate(const std::string& app_id,
                                          uint64_t nonce) {
  service::InvalidateRequest request;
  request.app_id = app_id;
  request.level = 0;  // Blind: clears the whole app cache.
  request.nonce = nonce;
  return request;
}

// A sealed one-notice envelope: the bus's frame at max_batch = 1.
std::string Envelope(uint64_t batch_nonce,
                     const service::InvalidateRequest& notice) {
  service::InvalidateBatchRequest batch;
  batch.nonce = batch_nonce;
  batch.notices.push_back(Encode(notice));
  return Seal(Encode(batch));
}

// Sends `notice` in a one-notice envelope and returns the member's ack.
service::InvalidateBatchResponse::Ack SendOne(
    NodeChannel& channel, uint64_t batch_nonce,
    const service::InvalidateRequest& notice) {
  const service::ChannelOutcome outcome =
      channel.RoundTrip(Envelope(batch_nonce, notice));
  EXPECT_TRUE(outcome.delivered);
  auto inner = service::Unseal(outcome.response);
  EXPECT_TRUE(inner.ok());
  if (!inner.ok()) return {};
  auto acks = service::DecodeInvalidateBatchResponse(*inner);
  EXPECT_TRUE(acks.ok());
  if (!acks.ok() || acks->acks.size() != 1) {
    ADD_FAILURE() << "expected exactly one ack";
    return {};
  }
  return acks->acks[0];
}

TEST(NodeChannelTest, DuplicateNonceAppliesOnce) {
  service::DsspNode node;
  NodeChannel channel(node);
  const std::string frame = Envelope(7, MakeInvalidate("app", 7));

  auto first = channel.RoundTrip(frame);
  ASSERT_TRUE(first.delivered);
  auto second = channel.RoundTrip(frame);
  ASSERT_TRUE(second.delivered);
  EXPECT_EQ(first.response, second.response);
  EXPECT_EQ(channel.notices_applied(), 1u);
  EXPECT_EQ(channel.duplicates_suppressed(), 1u);
}

TEST(NodeChannelTest, KilledChannelDropsFramesUntilRevive) {
  service::DsspNode node;
  NodeChannel channel(node);
  channel.Kill();
  const std::string frame = Envelope(1, MakeInvalidate("app", 1));
  EXPECT_FALSE(channel.RoundTrip(frame).delivered);
  EXPECT_EQ(channel.notices_applied(), 0u);
  channel.Revive();
  EXPECT_TRUE(channel.RoundTrip(frame).delivered);
  EXPECT_EQ(channel.notices_applied(), 1u);
}

TEST(NodeChannelTest, MalformedFramesAnswerWithSealedErrors) {
  service::DsspNode node;
  NodeChannel channel(node);
  // Not sealed at all.
  auto outcome = channel.RoundTrip("junk");
  ASSERT_TRUE(outcome.delivered);
  auto inner = service::Unseal(outcome.response);
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(service::PeekType(*inner), service::MessageType::kError);
  // Sealed, but a zero envelope nonce is invalid on the wire.
  outcome = channel.RoundTrip(Envelope(0, MakeInvalidate("app", 1)));
  ASSERT_TRUE(outcome.delivered);
  inner = service::Unseal(outcome.response);
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(service::PeekType(*inner), service::MessageType::kError);
  // A well-formed envelope around a notice with a zero nonce: that notice
  // alone is refused.
  const service::InvalidateBatchResponse::Ack ack =
      SendOne(channel, 1, MakeInvalidate("app", 0));
  EXPECT_FALSE(ack.accepted);
  EXPECT_EQ(ack.code, StatusCode::kParseError);
  // A bare notice outside any envelope is refused and not applied.
  outcome = channel.RoundTrip(Seal(Encode(MakeInvalidate("app", 2))));
  ASSERT_TRUE(outcome.delivered);
  inner = service::Unseal(outcome.response);
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(service::PeekType(*inner), service::MessageType::kError);
  EXPECT_EQ(channel.notices_applied(), 0u);
}

TEST(InvalidationBusTest, QueuesForDeadMemberAndReplaysInOrderOnFlush) {
  service::DsspNode alive_node, dead_node;
  NodeChannel alive_channel(alive_node), dead_channel(dead_node);
  InvalidationBus bus;
  bus.AddMember(0, &alive_channel);
  bus.AddMember(1, &dead_channel);
  dead_channel.Kill();

  service::UpdateNotice notice;  // Blind notice; mechanics are the point.
  for (int i = 0; i < 5; ++i) {
    const PublishOutcome outcome = bus.Publish("app", notice);
    EXPECT_EQ(outcome.delivered_members, 1);
    EXPECT_EQ(outcome.failed_members, 1);
  }
  EXPECT_EQ(bus.Pending(0), 0u);
  EXPECT_EQ(bus.Pending(1), 5u);
  EXPECT_EQ(alive_channel.notices_applied(), 5u);

  dead_channel.Revive();
  auto replayed = bus.Flush(1);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 5u);
  EXPECT_EQ(bus.Pending(1), 0u);
  EXPECT_EQ(dead_channel.notices_applied(), 5u);

  const BusStats stats = bus.stats();
  EXPECT_EQ(stats.published, 5u);
  EXPECT_EQ(stats.delivered_notices, 10u);
  // The five frames that bounced off the dead wire were transient, not
  // dropped: they stayed queued and replayed at the Flush above.
  EXPECT_EQ(stats.unreachable_failures, 5u);
  EXPECT_EQ(stats.dropped_frames, 0u);
}

TEST(InvalidationBusTest, DeferredMemberQueuesWithoutWireAttempts) {
  service::DsspNode node;
  NodeChannel channel(node);
  channel.Kill();  // Any wire attempt would fail (and cost retries).
  InvalidationBus bus;
  bus.AddMember(0, &channel);
  bus.SetDeferred(0, true);

  service::UpdateNotice notice;
  const PublishOutcome outcome = bus.Publish("app", notice);
  EXPECT_EQ(outcome.deferred_members, 1);
  EXPECT_EQ(outcome.failed_members, 0);
  EXPECT_EQ(bus.stats().wire_retries, 0u);  // Never touched the wire.
  EXPECT_EQ(bus.Pending(0), 1u);
}

TEST(InvalidationBusTest, LagBoundDefersDeliveryUntilExceeded) {
  service::DsspNode node;
  NodeChannel channel(node);
  BusOptions options;
  options.bus_lag = 2;
  InvalidationBus bus(options);
  bus.AddMember(0, &channel);

  service::UpdateNotice notice;
  bus.Publish("app", notice);
  bus.Publish("app", notice);
  EXPECT_EQ(bus.Pending(0), 2u);  // Within the bound: lazily queued.
  EXPECT_EQ(channel.notices_applied(), 0u);
  bus.Publish("app", notice);  // Exceeds the bound: drains everything.
  EXPECT_EQ(bus.Pending(0), 0u);
  EXPECT_EQ(channel.notices_applied(), 3u);
}

// ----- ClusterRouter. -----

TEST(ClusterRouterTest, StoresReplicateToTheReplicaSet) {
  ClusterOptions options;
  options.num_nodes = 4;
  options.replication = 2;
  ClusterRouter router(options);
  auto app = MakeKvApp("kv", &router);

  std::set<std::string> queried;
  for (int64_t id = 1; id <= 40; ++id) {
    ASSERT_TRUE(app->Query("Q1", {Value(id)}).ok());
    queried.insert(std::to_string(id));
  }
  // Every distinct key is cached on exactly `replication` members.
  EXPECT_EQ(router.TotalCacheSize("kv"), 2 * queried.size());
  // And a repeat query is a hit on its preferred owner.
  service::AccessStats stats;
  ASSERT_TRUE(app->Query("Q1", {Value(1)}, &stats).ok());
  EXPECT_TRUE(stats.cache_hit);
  EXPECT_EQ(router.route_stats().replica_fallbacks, 0u);
}

// A fill stores one entry object on every replica. Each replica drops its
// reference only when its own invalidation notice lands.
TEST(ClusterRouterTest, ReplicasShareOneEntryUntilTheirOwnNoticeLands) {
  ClusterOptions options;
  options.num_nodes = 2;
  options.replication = 2;  // Both members hold every key.
  options.bus.bus_lag = 1;  // A notice waits on the bus until flushed.
  ClusterRouter router(options);
  auto app = MakeKvApp("kv", &router);

  service::CacheEntry fill;
  fill.key = "k";
  fill.blob = "blob";
  router.Store("kv", std::move(fill));
  const std::shared_ptr<const service::CacheEntry> held =
      router.node(0).LookupShared("kv", "k");
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(router.node(1).LookupShared("kv", "k"), held);

  service::UpdateNotice blind;  // Blind: invalidates every entry.
  router.OnUpdate("kv", blind);
  ASSERT_EQ(router.bus().Pending(0), 1u);
  ASSERT_EQ(router.bus().Pending(1), 1u);
  ASSERT_TRUE(router.bus().Flush(0).ok());
  EXPECT_EQ(router.node(0).LookupShared("kv", "k"), nullptr);
  // Member 1 has not seen its notice yet: it still serves the shared entry,
  // within the bus-lag bound.
  EXPECT_EQ(router.node(1).LookupShared("kv", "k"), held);
  EXPECT_EQ(router.LookupShared("kv", "k"), held);

  ASSERT_TRUE(router.bus().Flush(1).ok());
  EXPECT_EQ(router.node(1).LookupShared("kv", "k"), nullptr);
  EXPECT_EQ(router.LookupShared("kv", "k"), nullptr);
  EXPECT_EQ(held->blob, "blob");  // The caller's reference still reads.
}

TEST(ClusterRouterTest, SingleNodeClusterBehavesLikeOneNode) {
  ClusterOptions options;
  options.num_nodes = 1;
  options.replication = 2;  // Capped by the member count.
  ClusterRouter router(options);
  auto cluster_app = MakeKvApp("kv", &router);

  service::DsspNode node;
  auto plain_app = MakeKvApp("kv", &node);

  for (int64_t id = 1; id <= 30; ++id) {
    service::AccessStats a, b;
    auto via_cluster = cluster_app->Query("Q1", {Value(id)}, &a);
    auto via_node = plain_app->Query("Q1", {Value(id)}, &b);
    ASSERT_TRUE(via_cluster.ok() && via_node.ok());
    EXPECT_EQ(via_cluster->rows(), via_node->rows());
    EXPECT_EQ(a.cache_hit, b.cache_hit);
  }
  ASSERT_TRUE(cluster_app->Update("U1", {Value(77), Value(5)}).ok());
  ASSERT_TRUE(plain_app->Update("U1", {Value(77), Value(5)}).ok());
  EXPECT_EQ(router.AppStats("kv").entries_invalidated,
            node.stats("kv").entries_invalidated);
  EXPECT_EQ(router.TotalCacheSize("kv"), node.CacheSize("kv"));
}

// Every member refuses an entry that breaks the group invariant (see
// DsspNode::Store), so the write-through caches it nowhere.
TEST(ClusterRouterTest, MembersRefuseEntriesOutsideTheirGroups) {
  ClusterOptions options;
  options.num_nodes = 4;
  options.replication = 2;
  ClusterRouter router(options);
  auto app = MakeKvApp("kv", &router);

  service::CacheEntry past_templates;
  past_templates.key = "past";
  past_templates.level = analysis::ExposureLevel::kTemplate;
  past_templates.template_index = 1;  // The kv app has one query template.
  past_templates.blob = "blob";
  router.Store("kv", std::move(past_templates));
  service::CacheEntry blind_under_template;
  blind_under_template.key = "blind";
  blind_under_template.template_index = 0;
  blind_under_template.blob = "blob";
  router.Store("kv", std::move(blind_under_template));

  EXPECT_EQ(router.TotalCacheSize("kv"), 0u);
  EXPECT_EQ(router.AppStats("kv").stores, 0u);
}

TEST(ClusterRouterTest, AppStatsSumsRejectedNotices) {
  ClusterOptions options;
  options.num_nodes = 2;
  ClusterRouter router(options);
  auto app = MakeKvApp("kv", &router);

  service::UpdateNotice poison;
  poison.level = analysis::ExposureLevel::kView;  // Never legal for updates.
  router.node(0).OnUpdate("kv", poison);
  ASSERT_EQ(router.node(0).stats("kv").rejected_notices, 1u);
  EXPECT_EQ(router.AppStats("kv").rejected_notices, 1u);
  EXPECT_EQ(router.AppStats("kv").updates_observed, 0u);
}

TEST(ClusterRouterTest, DeadOwnerFallsBackToReplicaWithoutMissing) {
  ClusterOptions options;
  options.num_nodes = 3;
  options.replication = 2;
  ClusterRouter router(options);
  auto app = MakeKvApp("kv", &router);

  for (int64_t id = 1; id <= 60; ++id) {
    ASSERT_TRUE(app->Query("Q1", {Value(id)}).ok());
  }
  router.KillNode(0);

  // Through the outage every key still hits: consistent hashing promotes
  // exactly the member that already replicates each of the dead owner's
  // keys, so the survivors serve everything from cache.
  uint64_t outage_hits = 0;
  for (int64_t id = 1; id <= 60; ++id) {
    service::AccessStats stats;
    ASSERT_TRUE(app->Query("Q1", {Value(id)}, &stats).ok());
    if (stats.cache_hit) ++outage_hits;
  }
  EXPECT_EQ(outage_hits, 60u);
  // The lookup-path wire failures drove the failure detector.
  EXPECT_EQ(router.membership().health(0), NodeHealth::kDown);
  EXPECT_GT(router.route_stats().rebalances, 0u);

  // Keys first stored DURING the outage live only on the survivors.
  for (int64_t id = 61; id <= 120; ++id) {
    ASSERT_TRUE(app->Query("Q1", {Value(id)}).ok());
  }
  ASSERT_TRUE(router.ReviveNode(0).ok());

  // After the rejoin, node 0 owns a share of those keys again but never
  // saw their stores; the member that stood in for it answers from the
  // replica-fallback path, so clients still miss nothing.
  uint64_t rejoin_hits = 0;
  for (int64_t id = 61; id <= 120; ++id) {
    service::AccessStats stats;
    ASSERT_TRUE(app->Query("Q1", {Value(id)}, &stats).ok());
    if (stats.cache_hit) ++rejoin_hits;
  }
  EXPECT_EQ(rejoin_hits, 60u);
  EXPECT_GT(router.route_stats().replica_fallbacks, 0u);
}

TEST(ClusterRouterTest, RejoinDrainsMissedInvalidationsBeforeServing) {
  ClusterOptions options;
  options.num_nodes = 2;
  options.replication = 1;  // No replicas: placement is unambiguous.
  options.seed = 11;
  ClusterRouter router(options);
  auto app = MakeKvApp("kv", &router);

  // Warm every key, then kill node 1 and update THROUGH the outage.
  for (int64_t id = 1; id <= 50; ++id) {
    ASSERT_TRUE(app->Query("Q1", {Value(id)}).ok());
  }
  router.KillNode(1);
  for (int64_t id = 1; id <= 50; ++id) {
    ASSERT_TRUE(app->Update("U1", {Value(1000 + id), Value(id)}).ok());
  }
  EXPECT_EQ(router.membership().health(1), NodeHealth::kDown);
  const size_t missed = router.bus().Pending(1);
  EXPECT_GT(missed, 0u);

  // The rejoin gate: revive drains the queue before the member serves.
  auto replayed = router.ReviveNode(1);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, missed);
  EXPECT_EQ(router.bus().Pending(1), 0u);
  EXPECT_EQ(router.membership().health(1), NodeHealth::kAlive);

  // Post-rejoin queries see the updated values (no stale cache survivors).
  for (int64_t id = 1; id <= 50; ++id) {
    auto result = app->Query("Q1", {Value(id)});
    ASSERT_TRUE(result.ok());
    auto direct = app->home().database().ExecuteQuery(
        app->templates().queries()[0].Bind({Value(id)}));
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(result->SameResult(*direct)) << "id=" << id;
  }
  EXPECT_GT(router.node_stats(1).warming_lookups, 0u);
}

TEST(ClusterRouterTest, LaggingMemberIsSkippedUntilItCatchesUp) {
  ClusterOptions options;
  options.num_nodes = 2;
  options.replication = 2;  // Both members hold every key.
  ClusterRouter router(options);
  auto app = MakeKvApp("kv", &router);
  ASSERT_TRUE(app->Query("Q1", {Value(1)}).ok());

  // Wedge member 0's bus queue open (deferred), then push an update: its
  // pending count now exceeds bus_lag = 0, so it must not serve.
  router.bus().SetDeferred(0, true);
  ASSERT_TRUE(app->Update("U1", {Value(9), Value(2)}).ok());
  ASSERT_GT(router.bus().Pending(0), 0u);

  const uint64_t skips_before = router.route_stats().lagging_skips;
  ASSERT_TRUE(app->Query("Q1", {Value(1)}).ok());
  EXPECT_GT(router.route_stats().lagging_skips, skips_before);

  // Catch the member up; it serves again.
  router.bus().SetDeferred(0, false);
  ASSERT_TRUE(router.bus().Flush(0).ok());
  const uint64_t skips_after = router.route_stats().lagging_skips;
  ASSERT_TRUE(app->Query("Q1", {Value(1)}).ok());
  EXPECT_EQ(router.route_stats().lagging_skips, skips_after);
}

TEST(ClusterRouterTest, CacheCapacityIsCeilDividedAcrossMembers) {
  ClusterOptions options;
  options.num_nodes = 4;
  options.replication = 1;
  ClusterRouter router(options);
  auto app = MakeKvApp("kv", &router);
  router.SetCacheCapacity("kv", 10);  // ceil(10/4) = 3 per member.

  for (int64_t id = 1; id <= kKeySpace; ++id) {
    ASSERT_TRUE(app->Query("Q1", {Value(id)}).ok());
  }
  EXPECT_LE(router.TotalCacheSize("kv"), 12u);
  EXPECT_GT(router.AppStats("kv").entries_invalidated +
                router.TotalCacheSize("kv"),
            0u);
}

// ----- Concurrency soak (the TSan lane's target). -----

TEST(ClusterConcurrencyTest, ParallelTrafficWithKillAndRejoinStaysSafe) {
  ClusterOptions options;
  options.num_nodes = 3;
  options.replication = 2;
  ClusterRouter router(options);
  auto app = MakeKvApp("kv", &router);
  // Nonced updates: a multi-threaded tenant must use the hardened wire so
  // the home server serializes concurrent applies (the legacy nonce-less
  // path assumes a single-threaded tenant).
  app->SetWirePolicy(service::WirePolicy{});

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 300;

  // Phase 1: concurrent reads while a chaos thread kills and revives a
  // member. Reads and membership transitions must not race.
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kOpsPerThread; ++i) {
          const int64_t id = (i * 7 + t * 13) % kKeySpace + 1;
          auto result = app->Query("Q1", {Value(id)});
          ASSERT_TRUE(result.ok());
          ASSERT_EQ(result->num_rows(), 1u);
        }
      });
    }
    threads.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        router.KillNode(2);
        std::this_thread::yield();
        while (!router.ReviveNode(2).ok()) std::this_thread::yield();
      }
    });
    for (std::thread& t : threads) t.join();
  }

  // Phase 2: concurrent updates fan invalidations through the bus from
  // multiple publisher threads.
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kOpsPerThread / 3; ++i) {
          const int64_t id = (i * 3 + t * 29) % kKeySpace + 1;
          auto effect =
              app->Update("U1", {Value(t * 100000 + i), Value(id)});
          ASSERT_TRUE(effect.ok());
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  // Every member saw every published notice exactly once.
  const BusStats stats = router.bus().stats();
  EXPECT_EQ(stats.published,
            static_cast<uint64_t>(kThreads) * (kOpsPerThread / 3));
  for (int i = 0; i < router.num_nodes(); ++i) {
    EXPECT_EQ(router.bus().Pending(i), 0u) << "node " << i;
  }

  // And the caches are coherent: every key matches the master database.
  for (int64_t id = 1; id <= kKeySpace; ++id) {
    auto result = app->Query("Q1", {Value(id)});
    ASSERT_TRUE(result.ok());
    auto direct = app->home().database().ExecuteQuery(
        app->templates().queries()[0].Bind({Value(id)}));
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(result->SameResult(*direct)) << "id=" << id;
  }
}

// ----- Malformed-notice handling on the bus endpoint. -----

// A notice the node refuses (template index out of range for the app) must
// get a refused ack and must NOT consume its nonce: a later corrected notice
// reusing the nonce still applies.
TEST(NodeChannelTest, RejectedNoticeIsNotNonceRecorded) {
  service::DsspNode node;
  auto app = MakeKvApp("kv", &node);
  NodeChannel channel(node);

  service::InvalidateRequest bad = MakeInvalidate("kv", 5);
  bad.level = 1;  // Template-level...
  bad.template_index = 999;  // ...with an index the app never published.
  service::InvalidateBatchResponse::Ack ack = SendOne(channel, 1, bad);
  EXPECT_FALSE(ack.accepted);
  EXPECT_EQ(ack.code, StatusCode::kInvalidArgument);
  EXPECT_EQ(channel.notices_applied(), 0u);
  // The endpoint refuses the frame before OnUpdate ever sees it; the
  // node-level rejection counter is for notices that reach the node.
  EXPECT_EQ(node.stats("kv").rejected_notices, 0u);

  service::InvalidateRequest fixed = MakeInvalidate("kv", 5);  // Same nonce.
  fixed.level = 1;
  fixed.template_index = 0;
  EXPECT_TRUE(SendOne(channel, 2, fixed).accepted);
  EXPECT_EQ(channel.notices_applied(), 1u);
  EXPECT_EQ(channel.duplicates_suppressed(), 0u);

  // An out-of-range level byte is refused before it ever becomes an enum.
  service::InvalidateRequest bad_level = MakeInvalidate("kv", 6);
  bad_level.level = 7;
  ack = SendOne(channel, 3, bad_level);
  EXPECT_FALSE(ack.accepted);
  EXPECT_EQ(ack.code, StatusCode::kParseError);  // The codec refuses it.
  EXPECT_EQ(channel.notices_applied(), 1u);
}

// A remote invalidation delivered through the bus endpoint must advance the
// member's staleness epoch exactly once — duplicates (retried frames) are
// deduplicated and must not age retained entries twice.
TEST(NodeChannelTest, RemoteInvalidationAdvancesStaleEpochOnce) {
  service::DsspNode node;
  auto app = MakeKvApp("kv", &node);
  NodeChannel channel(node);
  node.SetStaleRetention("kv", 10);
  service::CacheEntry entry;
  entry.key = "k";
  entry.blob = "blob";
  node.Store("kv", std::move(entry));

  EXPECT_TRUE(SendOne(channel, 1, MakeInvalidate("kv", 9)).accepted);
  EXPECT_TRUE(node.LookupStale("kv", "k", 1).has_value());
  EXPECT_FALSE(node.LookupStale("kv", "k", 0).has_value());

  // Same notice nonce again, in a new envelope (a resend after a lost ack):
  // suppressed, the entry is still only one behind.
  EXPECT_TRUE(SendOne(channel, 2, MakeInvalidate("kv", 9)).accepted);
  EXPECT_EQ(channel.duplicates_suppressed(), 1u);
  EXPECT_TRUE(node.LookupStale("kv", "k", 1).has_value());
}

// ----- k-staleness vs. bus backlog. -----

// Updates still queued on the bus for a member have not bumped its local
// epoch: an entry it retained reads fresher than it globally is. The router
// must tighten the caller's staleness bound by the member's backlog.
TEST(ClusterRouterTest, StaleBoundTightensWithBusBacklog) {
  ClusterOptions options;
  options.num_nodes = 1;
  options.replication = 1;
  options.bus.bus_lag = 3;  // Defer delivery while <= 3 frames queue.
  ClusterRouter router(options);
  auto app = MakeKvApp("kv", &router);
  router.SetStaleRetention("kv", 10);

  service::CacheEntry entry;
  entry.key = "k";
  entry.blob = "blob";
  router.node(0).Store("kv", std::move(entry));

  service::UpdateNotice blind;  // Blind: invalidates everything.
  router.OnUpdate("kv", blind);
  ASSERT_TRUE(router.bus().Flush(0).ok());  // U1 applied: entry 1 behind.
  router.OnUpdate("kv", blind);  // U2, U3: deferred under the lag bound —
  router.OnUpdate("kv", blind);  // the member is 2 frames behind globally.
  ASSERT_EQ(router.bus().Pending(0), 2u);

  // Globally the entry is 3 updates behind (U1 applied + 2 queued).
  EXPECT_TRUE(router.LookupStale("kv", "k", 3).has_value());
  // A bound of 2 must miss: the member alone would report 1 behind and
  // serve it, but the backlog makes that answer 3 behind in global terms.
  EXPECT_FALSE(router.LookupStale("kv", "k", 2).has_value());
  // A bound below the backlog itself skips the member entirely.
  const uint64_t skips_before = router.route_stats().lagging_skips;
  EXPECT_FALSE(router.LookupStale("kv", "k", 1).has_value());
  EXPECT_GT(router.route_stats().lagging_skips, skips_before);
}

}  // namespace
}  // namespace dssp::cluster
