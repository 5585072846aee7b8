// Tests for the fault-tolerant DSSP<->home wire path: channel fault
// injection, retry/timeout/backoff accounting, nonce-deduplicated updates,
// staleness-bounded degraded serving — and the acceptance soak, which pushes
// >= 100k mixed query/update frames through a lossy wire and requires every
// delivered result to match a no-fault oracle run with no update applied
// twice.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend/in_memory_backend.h"
#include "catalog/schema.h"
#include "common/random.h"
#include "crypto/keyring.h"
#include "dssp/app.h"
#include "dssp/channel.h"
#include "dssp/node.h"
#include "dssp/protocol.h"
#include "dssp/retry.h"

namespace dssp::service {
namespace {

using sql::Value;

constexpr int64_t kKeySpace = 300;

// Minimal single-table tenant: Q1 reads one row, U1 overwrites it. Every
// update writes a globally unique value, so any lost, duplicated, or
// reordered update on the faulty wire shows up in a later query result.
std::unique_ptr<ScalableApp> MakeKvApp(const std::string& id,
                                       DsspNode* node) {
  auto app = std::make_unique<ScalableApp>(
      id, node, crypto::KeyRing::FromPassphrase("wire-secret"));
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
  EXPECT_TRUE(
      app->home()
          .AddUpdateTemplate("UPDATE kv SET val = ? WHERE id = ?")
          .ok());
  EXPECT_TRUE(app->Finalize().ok());
  return app;
}

// ----- Channels. -----

TEST(DirectChannelTest, MatchesDispatchFrameExactly) {
  DsspNode node;
  auto app = MakeKvApp("direct", &node);
  const std::string frame = Encode(QueryRequest{
      app->home().statement_cipher().Encrypt("SELECT val FROM kv WHERE id = 7"),
      true});
  DirectChannel channel(app->home());
  const ChannelOutcome outcome = channel.RoundTrip(frame);
  EXPECT_TRUE(outcome.delivered);
  EXPECT_EQ(outcome.home_deliveries, 1);
  EXPECT_EQ(outcome.delay_s, 0.0);
  EXPECT_EQ(outcome.response, DispatchFrame(app->home(), frame));
}

class FaultChannelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    app_ = MakeKvApp("faults", &node_);
    direct_ = std::make_unique<DirectChannel>(app_->home());
    sealed_query_ = Seal(Encode(QueryRequest{
        app_->home().statement_cipher().Encrypt(
            "SELECT val FROM kv WHERE id = 3"),
        true}));
  }

  DsspNode node_;
  std::unique_ptr<ScalableApp> app_;
  std::unique_ptr<DirectChannel> direct_;
  std::string sealed_query_;
};

TEST_F(FaultChannelTest, DropRequestNeverReachesHome) {
  FaultProfile profile;
  profile.drop_request = 1.0;
  FaultInjectingChannel channel(*direct_, profile, 1);
  const ChannelOutcome outcome = channel.RoundTrip(sealed_query_);
  EXPECT_FALSE(outcome.delivered);
  EXPECT_EQ(outcome.home_deliveries, 0);
  EXPECT_EQ(app_->home().queries_executed(), 0u);
}

TEST_F(FaultChannelTest, DropResponseReachesHomeButNotClient) {
  FaultProfile profile;
  profile.drop_response = 1.0;
  FaultInjectingChannel channel(*direct_, profile, 1);
  const ChannelOutcome outcome = channel.RoundTrip(sealed_query_);
  EXPECT_FALSE(outcome.delivered);
  EXPECT_EQ(outcome.home_deliveries, 1);  // The home did the work.
  EXPECT_EQ(app_->home().queries_executed(), 1u);
}

TEST_F(FaultChannelTest, CorruptRequestIsDetectedByTheSeal) {
  FaultProfile profile;
  profile.corrupt_request = 1.0;
  FaultInjectingChannel channel(*direct_, profile, 7);
  const ChannelOutcome outcome = channel.RoundTrip(sealed_query_);
  ASSERT_TRUE(outcome.delivered);
  EXPECT_TRUE(outcome.request_corrupted);
  // The home saw a damaged envelope and answered with kCorruptFrame.
  auto inner = Unseal(outcome.response);
  ASSERT_TRUE(inner.ok());
  auto error = DecodeErrorResponse(*inner);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, StatusCode::kCorruptFrame);
  EXPECT_EQ(app_->home().queries_executed(), 0u);
}

TEST_F(FaultChannelTest, CorruptResponseFailsUnseal) {
  FaultProfile profile;
  profile.corrupt_response = 1.0;
  FaultInjectingChannel channel(*direct_, profile, 7);
  const ChannelOutcome outcome = channel.RoundTrip(sealed_query_);
  ASSERT_TRUE(outcome.delivered);
  EXPECT_TRUE(outcome.response_corrupted);
  EXPECT_FALSE(Unseal(outcome.response).ok());
}

TEST_F(FaultChannelTest, DuplicateDeliversTwiceAndDelaySpikes) {
  FaultProfile profile;
  profile.duplicate_request = 1.0;
  profile.delay_probability = 1.0;
  FaultInjectingChannel channel(*direct_, profile, 11);
  const ChannelOutcome outcome = channel.RoundTrip(sealed_query_);
  EXPECT_TRUE(outcome.delivered);
  EXPECT_EQ(outcome.home_deliveries, 2);
  EXPECT_EQ(app_->home().queries_executed(), 2u);  // Queries: no dedup.
  EXPECT_GT(outcome.delay_s, 0.0);
}

TEST_F(FaultChannelTest, DuplicatedNoncedUpdateAppliesOnce) {
  FaultProfile profile;
  profile.duplicate_request = 1.0;
  FaultInjectingChannel channel(*direct_, profile, 13);
  const std::string update = Seal(Encode(UpdateRequest{
      app_->home().statement_cipher().Encrypt(
          "UPDATE kv SET val = 999 WHERE id = 3"),
      /*nonce=*/42}));
  const ChannelOutcome outcome = channel.RoundTrip(update);
  ASSERT_TRUE(outcome.delivered);
  EXPECT_EQ(outcome.home_deliveries, 2);
  EXPECT_EQ(app_->home().updates_applied(), 1u);
  EXPECT_EQ(app_->home().duplicates_suppressed(), 1u);
  auto effect = UnwrapUpdateResponse(*Unseal(outcome.response));
  ASSERT_TRUE(effect.ok());
  EXPECT_EQ(effect->rows_affected, 1u);
}

// ----- FaultProfile validation. -----

TEST(FaultProfileValidateTest, DefaultAndFullProfilesAreValid) {
  EXPECT_TRUE(FaultProfile{}.Validate().ok());
  FaultProfile full;
  full.drop_request = 1.0;
  full.drop_response = 1.0;
  full.corrupt_request = 1.0;
  full.corrupt_response = 1.0;
  full.duplicate_request = 1.0;
  full.delay_probability = 1.0;
  full.delay_mean_s = 0.0;
  full.max_corrupt_bytes = 0;
  EXPECT_TRUE(full.Validate().ok());
}

TEST(FaultProfileValidateTest, RejectsOutOfRangeProbabilities) {
  const auto probability_fields = {
      &FaultProfile::drop_request,    &FaultProfile::drop_response,
      &FaultProfile::corrupt_request, &FaultProfile::corrupt_response,
      &FaultProfile::duplicate_request, &FaultProfile::delay_probability,
  };
  for (auto field : probability_fields) {
    FaultProfile profile;
    profile.*field = -0.01;
    EXPECT_FALSE(profile.Validate().ok());
    profile.*field = 1.01;
    EXPECT_FALSE(profile.Validate().ok());
    profile.*field = std::nan("");
    EXPECT_FALSE(profile.Validate().ok());
    profile.*field = 0.5;
    EXPECT_TRUE(profile.Validate().ok());
  }
}

TEST(FaultProfileValidateTest, RejectsNegativeDelayAndCorruptBytes) {
  FaultProfile profile;
  profile.delay_mean_s = -0.001;
  EXPECT_FALSE(profile.Validate().ok());
  profile.delay_mean_s = std::nan("");
  EXPECT_FALSE(profile.Validate().ok());
  profile = FaultProfile{};
  profile.max_corrupt_bytes = -1;
  EXPECT_FALSE(profile.Validate().ok());
}

TEST(FaultProfileValidateTest, MessageNamesTheOffendingField) {
  FaultProfile profile;
  profile.corrupt_response = 2.0;
  const Status status = profile.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("corrupt_response"), std::string::npos)
      << status.message();
}

using FaultProfileValidateDeathTest = FaultChannelTest;

TEST_F(FaultProfileValidateDeathTest, ChannelConstructionChecksTheProfile) {
  FaultProfile bad;
  bad.drop_request = 7.0;
  EXPECT_DEATH(FaultInjectingChannel(*direct_, bad, 1), "drop_request");
}

// ----- RetryingClient against a scripted channel. -----

// Deterministic wire: plays back a per-attempt script, then delivers.
class ScriptedChannel : public Channel {
 public:
  enum class Action { kDeliver, kDropRequest, kDropResponse, kGarble };

  ScriptedChannel(backend::InMemoryBackend& home, std::vector<Action> script)
      : home_(home), script_(std::move(script)) {}

  ChannelOutcome RoundTrip(std::string_view request_frame) override {
    const Action action =
        calls_ < script_.size() ? script_[calls_] : Action::kDeliver;
    ++calls_;
    ChannelOutcome outcome;
    if (action == Action::kDropRequest) return outcome;
    outcome.home_deliveries = 1;
    std::string response = DispatchFrame(home_, request_frame);
    if (action == Action::kDropResponse) return outcome;
    outcome.delivered = true;
    if (action == Action::kGarble) response[response.size() / 2] ^= 0x20;
    outcome.response = std::move(response);
    return outcome;
  }

  size_t calls() const { return calls_; }

 private:
  backend::InMemoryBackend& home_;
  std::vector<Action> script_;
  size_t calls_ = 0;
};

class RetryClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    app_ = MakeKvApp("retry", &node_);
    query_frame_ = Encode(QueryRequest{
        app_->home().statement_cipher().Encrypt(
            "SELECT val FROM kv WHERE id = 5"),
        true});
  }

  RetryPolicy TestPolicy() {
    RetryPolicy policy;
    policy.max_attempts = 4;
    policy.attempt_timeout_s = 0.5;
    policy.initial_backoff_s = 0.05;
    policy.backoff_multiplier = 2.0;
    policy.max_backoff_s = 1.0;
    policy.jitter_fraction = 0.2;
    policy.deadline_s = 10.0;
    return policy;
  }

  DsspNode node_;
  std::unique_ptr<ScalableApp> app_;
  std::string query_frame_;
};

TEST_F(RetryClientTest, FirstTrySucceedsWithNoRetryCost) {
  ScriptedChannel channel(app_->home(), {});
  RetryingClient client(&channel, TestPolicy(), 1);
  WireStats ws;
  auto inner = client.Call(query_frame_, &ws);
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(PeekType(*inner), MessageType::kQueryResponse);
  EXPECT_EQ(ws.attempts, 1u);
  EXPECT_EQ(ws.retries, 0u);
  EXPECT_EQ(ws.timeouts, 0u);
  EXPECT_EQ(ws.delay_s, 0.0);
  EXPECT_EQ(ws.request_bytes, Seal(query_frame_).size());
}

TEST_F(RetryClientTest, RecoversFromDropsAndChargesTimeoutsPlusBackoff) {
  using A = ScriptedChannel::Action;
  ScriptedChannel channel(app_->home(),
                          {A::kDropRequest, A::kDropResponse});
  RetryingClient client(&channel, TestPolicy(), 2);
  WireStats ws;
  auto inner = client.Call(query_frame_, &ws);
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(ws.attempts, 3u);
  EXPECT_EQ(ws.retries, 2u);
  EXPECT_EQ(ws.timeouts, 2u);
  // Two attempt timeouts plus two jittered backoffs (0.05 and 0.10 +/-20%).
  EXPECT_GE(ws.delay_s, 2 * 0.5 + 0.8 * (0.05 + 0.10));
  EXPECT_LE(ws.delay_s, 2 * 0.5 + 1.2 * (0.05 + 0.10));
  EXPECT_EQ(ws.request_bytes, 3 * Seal(query_frame_).size());
}

TEST_F(RetryClientTest, RecoversFromCorruptionWithoutTimeoutCharge) {
  using A = ScriptedChannel::Action;
  ScriptedChannel channel(app_->home(), {A::kGarble});
  RetryingClient client(&channel, TestPolicy(), 3);
  WireStats ws;
  auto inner = client.Call(query_frame_, &ws);
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(ws.attempts, 2u);
  EXPECT_EQ(ws.corrupt_frames_dropped, 1u);
  EXPECT_EQ(ws.timeouts, 0u);
}

TEST_F(RetryClientTest, ExhaustionReturnsUnavailable) {
  using A = ScriptedChannel::Action;
  ScriptedChannel channel(
      app_->home(),
      std::vector<A>(8, A::kDropRequest));  // More drops than attempts.
  RetryingClient client(&channel, TestPolicy(), 4);
  WireStats ws;
  auto inner = client.Call(query_frame_, &ws);
  ASSERT_FALSE(inner.ok());
  EXPECT_EQ(inner.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(ws.attempts, 4u);  // max_attempts, no more.
  EXPECT_EQ(channel.calls(), 4u);
}

TEST_F(RetryClientTest, DeadlineCapsTheRetryLoop) {
  using A = ScriptedChannel::Action;
  ScriptedChannel channel(app_->home(), std::vector<A>(8, A::kDropRequest));
  RetryPolicy policy = TestPolicy();
  policy.max_attempts = 8;
  policy.deadline_s = 1.2;  // Covers two 0.5s timeouts, not a third round.
  RetryingClient client(&channel, policy, 5);
  WireStats ws;
  auto inner = client.Call(query_frame_, &ws);
  ASSERT_FALSE(inner.ok());
  EXPECT_EQ(inner.status().code(), StatusCode::kDeadlineExceeded);
  // The deadline fires well before the attempt budget runs out. (delay_s
  // may exceed the deadline by up to one attempt timeout: the check runs
  // before each retry, and the last attempt's loss is still charged.)
  EXPECT_GE(ws.attempts, 2u);
  EXPECT_LT(ws.attempts, 8u);
}

TEST_F(RetryClientTest, ApplicationErrorsAreNotRetried) {
  // A deterministic home-side error (unparseable statement) must surface on
  // the first attempt: retrying it would just repeat the failure.
  ScriptedChannel channel(app_->home(), {});
  RetryingClient client(&channel, TestPolicy(), 6);
  const std::string bad = Encode(QueryRequest{
      app_->home().statement_cipher().Encrypt("NOT EVEN SQL"), true});
  WireStats ws;
  auto inner = client.Call(bad, &ws);
  ASSERT_TRUE(inner.ok());  // The *frame* arrived fine...
  EXPECT_EQ(PeekType(*inner), MessageType::kError);  // ...carrying the error.
  EXPECT_EQ(ws.attempts, 1u);
  EXPECT_EQ(channel.calls(), 1u);
}

// ----- Hardened app path: wire counters and degraded mode. -----

TEST(HardenedAppTest, PerfectWireIsInvisibleToResults) {
  DsspNode node;
  auto plain = MakeKvApp("plain", &node);
  auto hardened = MakeKvApp("hard", &node);
  hardened->SetWirePolicy(WirePolicy{});
  for (int64_t id = 1; id <= 20; ++id) {
    auto a = plain->Query("Q1", {Value(id)});
    auto b = hardened->Query("Q1", {Value(id)});
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->rows(), b->rows());
  }
  auto ua = plain->Update("U1", {Value(7), Value(4)});
  auto ub = hardened->Update("U1", {Value(7), Value(4)});
  ASSERT_TRUE(ua.ok() && ub.ok());
  EXPECT_EQ(ua->rows_affected, ub->rows_affected);
  const WireCounters wc = hardened->wire_counters();
  EXPECT_EQ(wc.retries, 0u);
  EXPECT_EQ(wc.timeouts, 0u);
  EXPECT_EQ(wc.failures, 0u);
  EXPECT_GT(wc.attempts, 0u);
}

TEST(HardenedAppTest, LossyWireStillYieldsCorrectResults) {
  DsspNode node;
  auto app = MakeKvApp("lossy", &node);
  auto direct = std::make_unique<DirectChannel>(app->home());
  FaultProfile profile;
  profile.drop_request = 0.2;
  profile.drop_response = 0.2;
  profile.corrupt_request = 0.1;
  profile.corrupt_response = 0.1;
  profile.duplicate_request = 0.1;
  WirePolicy policy;
  policy.retry.max_attempts = 40;
  policy.retry.deadline_s = 0;  // Unlimited: retries always win eventually.
  policy.retry.attempt_timeout_s = 0.01;
  policy.retry.initial_backoff_s = 0.001;
  policy.retry.max_backoff_s = 0.01;
  app->SetWirePolicy(policy);
  // `direct` stays alive on this stack frame for the app's whole lifetime.
  app->SetChannel(std::make_unique<FaultInjectingChannel>(
      *direct, profile, /*seed=*/99));

  uint64_t updates_issued = 0;
  for (int round = 0; round < 200; ++round) {
    const int64_t id = round % 25 + 1;
    if (round % 4 == 3) {
      AccessStats stats;
      auto effect = app->Update("U1", {Value(round), Value(id)}, &stats);
      ASSERT_TRUE(effect.ok()) << round;
      EXPECT_EQ(effect->rows_affected, 1u);
      ++updates_issued;
    } else {
      auto result = app->Query("Q1", {Value(id)});
      ASSERT_TRUE(result.ok()) << round;
      ASSERT_EQ(result->num_rows(), 1u);
    }
  }
  // Exactly one application per issued update, despite drops/duplicates.
  EXPECT_EQ(app->home().updates_applied(), updates_issued);
  const WireCounters wc = app->wire_counters();
  EXPECT_GT(wc.retries, 0u);
  EXPECT_GT(wc.timeouts, 0u);
  EXPECT_EQ(wc.failures, 0u);
}

class StaleServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    app_ = MakeKvApp("stale", &node_);
    node_.SetStaleRetention("stale", 64);
    WirePolicy policy;
    policy.retry.max_attempts = 2;
    policy.retry.attempt_timeout_s = 0.01;
    policy.retry.initial_backoff_s = 0.001;
    policy.stale_serve_bound = 1;
    app_->SetWirePolicy(policy);
  }

  void MakeHomeUnreachable() {
    direct_ = std::make_unique<DirectChannel>(app_->home());
    FaultProfile outage;
    outage.drop_request = 1.0;
    app_->SetChannel(std::make_unique<FaultInjectingChannel>(
        *direct_, outage, /*seed=*/5));
  }

  DsspNode node_;
  std::unique_ptr<ScalableApp> app_;
  std::unique_ptr<DirectChannel> direct_;
};

TEST_F(StaleServeTest, ServesInvalidatedEntryWithinBoundDuringOutage) {
  // Cache id=9, invalidate it with an update, then cut the wire.
  auto before = app_->Query("Q1", {Value(9)});
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(app_->Update("U1", {Value(1234), Value(9)}).ok());
  MakeHomeUnreachable();

  AccessStats stats;
  auto degraded = app_->Query("Q1", {Value(9)}, &stats);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(stats.served_stale);
  EXPECT_FALSE(stats.cache_hit);
  // The stale copy predates the update: it shows the *old* value.
  EXPECT_EQ(degraded->rows(), before->rows());
  EXPECT_EQ(app_->wire_counters().stale_serves, 1u);
  EXPECT_EQ(node_.stats("stale").stale_hits, 1u);

  // A key never cached has no stale copy: the outage surfaces.
  auto missing = app_->Query("Q1", {Value(10)});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kUnavailable);
}

TEST_F(StaleServeTest, EntriesPastTheStalenessBoundAreNotServed) {
  ASSERT_TRUE(app_->Query("Q1", {Value(9)}).ok());
  // Two updates: the retained entry is now 2 observed updates behind,
  // outside stale_serve_bound = 1.
  ASSERT_TRUE(app_->Update("U1", {Value(1), Value(9)}).ok());
  ASSERT_TRUE(app_->Update("U1", {Value(2), Value(8)}).ok());
  MakeHomeUnreachable();
  auto degraded = app_->Query("Q1", {Value(9)});
  ASSERT_FALSE(degraded.ok());
  EXPECT_EQ(degraded.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(app_->wire_counters().stale_serves, 0u);
}

TEST_F(StaleServeTest, ZeroBoundDisablesDegradedMode) {
  WirePolicy policy;
  policy.retry.max_attempts = 2;
  policy.retry.attempt_timeout_s = 0.01;
  policy.stale_serve_bound = 0;
  app_->SetWirePolicy(policy);
  ASSERT_TRUE(app_->Query("Q1", {Value(9)}).ok());
  ASSERT_TRUE(app_->Update("U1", {Value(5), Value(9)}).ok());
  MakeHomeUnreachable();
  auto degraded = app_->Query("Q1", {Value(9)});
  ASSERT_FALSE(degraded.ok());
  EXPECT_EQ(degraded.status().code(), StatusCode::kUnavailable);
}

// ----- Concurrency: the hardened path under real threads. -----
// (Run under -DDSSP_TSAN=ON; queries are engine-read-only, nonce'd updates
// serialize in the home server's dedup section, so phases don't race the
// single-writer engine.)

TEST(WireConcurrencyTest, ParallelQueriesAndNoncedUpdatesStayConsistent) {
  DsspNode node;
  auto app = MakeKvApp("mt", &node);
  node.SetStaleRetention("mt", 32);
  auto direct = std::make_unique<DirectChannel>(app->home());
  FaultProfile profile;
  profile.drop_request = 0.1;
  profile.drop_response = 0.1;
  profile.corrupt_request = 0.05;
  profile.corrupt_response = 0.05;
  profile.duplicate_request = 0.1;
  profile.delay_probability = 0.05;
  WirePolicy policy;
  policy.retry.max_attempts = 50;
  policy.retry.deadline_s = 0;
  policy.retry.attempt_timeout_s = 0.01;
  policy.retry.initial_backoff_s = 0.001;
  policy.retry.max_backoff_s = 0.01;
  app->SetWirePolicy(policy);
  app->SetChannel(
      std::make_unique<FaultInjectingChannel>(*direct, profile, 17));

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 400;
  constexpr int kUpdatesPerThread = 150;

  // Phase 1: concurrent queries over the lossy wire.
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kQueriesPerThread; ++i) {
          const int64_t id = (i * 7 + t * 13) % kKeySpace + 1;
          auto result = app->Query("Q1", {Value(id)});
          ASSERT_TRUE(result.ok());
          ASSERT_EQ(result->num_rows(), 1u);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  // Phase 2: concurrent nonce'd updates; dedup must keep applications
  // exactly one per issued op even when duplicates race retries.
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kUpdatesPerThread; ++i) {
          const int64_t id = (i * 3 + t * 29) % kKeySpace + 1;
          auto effect =
              app->Update("U1", {Value(t * 100000 + i), Value(id)});
          ASSERT_TRUE(effect.ok());
          EXPECT_EQ(effect->rows_affected, 1u);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  EXPECT_EQ(app->home().updates_applied(),
            static_cast<uint64_t>(kThreads) * kUpdatesPerThread);
  const WireCounters wc = app->wire_counters();
  EXPECT_EQ(wc.failures, 0u);
  EXPECT_GT(wc.attempts,
            static_cast<uint64_t>(kThreads) *
                (kQueriesPerThread + kUpdatesPerThread) / 2);
}

// ----- The acceptance soak: >= 100k frames vs. a no-fault oracle. -----

TEST(WireSoakTest, LossyWireMatchesOracleOverHundredThousandFrames) {
  size_t ops = 60000;
  if (const char* env = std::getenv("DSSP_SOAK_OPS")) {
    ops = static_cast<size_t>(std::strtoull(env, nullptr, 10));
    if (ops == 0) ops = 60000;
  }

  DsspNode oracle_node;
  DsspNode faulty_node;
  auto oracle = MakeKvApp("soak", &oracle_node);  // Legacy perfect wire.
  auto faulty = MakeKvApp("soak", &faulty_node);
  // A small cache keeps the miss rate high so the op stream actually
  // exercises the wire instead of the cache.
  oracle_node.SetCacheCapacity("soak", 32);
  faulty_node.SetCacheCapacity("soak", 32);

  auto direct = std::make_unique<DirectChannel>(faulty->home());
  FaultProfile profile;
  profile.drop_request = 0.03;
  profile.drop_response = 0.03;
  profile.corrupt_request = 0.02;
  profile.corrupt_response = 0.02;
  profile.duplicate_request = 0.03;
  profile.delay_probability = 0.02;
  WirePolicy policy;
  policy.retry.max_attempts = 40;  // Per-attempt failure ~0.1: never fails.
  policy.retry.deadline_s = 0;
  policy.retry.attempt_timeout_s = 0.01;
  policy.retry.initial_backoff_s = 0.001;
  policy.retry.max_backoff_s = 0.01;
  policy.stale_serve_bound = 0;  // Stale serves would diverge from oracle.
  faulty->SetWirePolicy(policy);
  faulty->SetChannel(
      std::make_unique<FaultInjectingChannel>(*direct, profile, 0xFA11));

  Rng rng(20060615);  // One op stream, replayed against both stacks.
  uint64_t updates_issued = 0;
  int64_t next_val = 1;
  for (size_t op = 0; op < ops; ++op) {
    const int64_t id = rng.NextInt(1, kKeySpace);
    if (rng.NextBool(0.2)) {
      const std::vector<Value> params = {Value(next_val++), Value(id)};
      auto a = oracle->Update("U1", params);
      auto b = faulty->Update("U1", params);
      ASSERT_TRUE(a.ok()) << "oracle update failed at op " << op;
      ASSERT_TRUE(b.ok()) << "faulty update failed at op " << op;
      ASSERT_EQ(a->rows_affected, b->rows_affected) << "op " << op;
      ++updates_issued;
    } else {
      const std::vector<Value> params = {Value(id)};
      auto a = oracle->Query("Q1", params);
      auto b = faulty->Query("Q1", params);
      ASSERT_TRUE(a.ok()) << "oracle query failed at op " << op;
      ASSERT_TRUE(b.ok()) << "faulty query failed at op " << op;
      // The acceptance bar: every delivered result identical to the
      // no-fault oracle.
      ASSERT_EQ(a->rows(), b->rows()) << "result divergence at op " << op;
    }
  }

  // At-most-once: one application per issued update on BOTH stacks, with
  // the faulty side having actually suppressed wire-level duplicates.
  EXPECT_EQ(oracle->home().updates_applied(), updates_issued);
  EXPECT_EQ(faulty->home().updates_applied(), updates_issued);
  EXPECT_GT(faulty->home().duplicates_suppressed(), 0u);
  EXPECT_EQ(oracle->home().duplicates_suppressed(), 0u);

  const WireCounters wc = faulty->wire_counters();
  EXPECT_EQ(wc.failures, 0u);
  EXPECT_GT(wc.retries, 0u);
  EXPECT_GT(wc.timeouts, 0u);
  EXPECT_GT(wc.corrupt_frames_dropped, 0u);

  // Frame volume: requests put on the wire plus responses that came back.
  const uint64_t frames = wc.attempts + (wc.attempts - wc.timeouts);
  if (ops >= 60000) {
    EXPECT_GE(frames, 100000u) << "soak too small to meet the acceptance bar";
  } else {
    EXPECT_GE(frames, ops);  // Reduced runs still hammer the wire.
  }
}

}  // namespace
}  // namespace dssp::service
