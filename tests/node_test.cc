#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "crypto/keyring.h"
#include "dssp/app.h"
#include "dssp/node.h"
#include "workloads/toystore.h"

namespace dssp::service {
namespace {

using analysis::ExposureAssignment;
using analysis::ExposureLevel;
using sql::Value;

class NodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    app_ = std::make_unique<ScalableApp>(
        "toystore", &node_, crypto::KeyRing::FromPassphrase("node-test"));
    ASSERT_TRUE(toystore_.Setup(*app_, 1.0, 7).ok());
    ASSERT_TRUE(app_->Finalize().ok());
  }

  DsspNode node_;
  std::unique_ptr<ScalableApp> app_;
  workloads::ToystoreApplication toystore_;
};

TEST_F(NodeTest, BlindUpdateNoticeInvalidatesEverything) {
  // Even entries of ignorable templates must die when the update reveals
  // nothing.
  ASSERT_TRUE(app_->Query("Q2", {Value(7)}).ok());
  ASSERT_TRUE(app_->Query("Q3", {Value(10001)}).ok());
  ASSERT_EQ(node_.CacheSize("toystore"), 2u);

  UpdateNotice notice;
  notice.level = ExposureLevel::kBlind;
  EXPECT_EQ(node_.OnUpdate("toystore", notice), 2u);
  EXPECT_EQ(node_.CacheSize("toystore"), 0u);
}

TEST_F(NodeTest, TemplateNoticeUsesIgnorability) {
  ASSERT_TRUE(app_->Query("Q2", {Value(7)}).ok());
  ASSERT_TRUE(app_->Query("Q3", {Value(10001)}).ok());

  UpdateNotice notice;
  notice.level = ExposureLevel::kTemplate;
  notice.template_index = 0;  // U1: DELETE FROM toys.
  // Q2 (toys) invalidated, Q3 (customers x credit_card) spared.
  EXPECT_EQ(node_.OnUpdate("toystore", notice), 1u);
  EXPECT_EQ(node_.CacheSize("toystore"), 1u);
}

TEST_F(NodeTest, StatementNoticeSparesIndependentInstances) {
  ASSERT_TRUE(app_->Query("Q2", {Value(7)}).ok());
  ASSERT_TRUE(app_->Query("Q2", {Value(9)}).ok());

  UpdateNotice notice;
  notice.level = ExposureLevel::kStmt;
  notice.template_index = 0;
  notice.statement =
      app_->templates().updates()[0].Bind({Value(7)});
  EXPECT_EQ(node_.OnUpdate("toystore", notice), 1u);
  // Q2(9) survived.
  EXPECT_EQ(node_.CacheSize("toystore"), 1u);
}

// ValidateNotice accepts a template-level notice that names no template;
// it reveals no more than a blind one, so it must reach every group.
TEST_F(NodeTest, TemplateNoticeWithoutTemplateInvalidatesEveryGroup) {
  ASSERT_TRUE(app_->Query("Q2", {Value(7)}).ok());
  ASSERT_TRUE(app_->Query("Q3", {Value(10001)}).ok());
  CacheEntry blind;
  blind.key = "blind-key";
  blind.blob = "blob";
  node_.Store("toystore", std::move(blind));
  ASSERT_EQ(node_.CacheSize("toystore"), 3u);

  UpdateNotice notice;
  notice.level = ExposureLevel::kTemplate;
  notice.template_index = CacheEntry::kNoTemplate;
  ASSERT_TRUE(node_.ValidateNotice("toystore", notice).ok());
  // U1 alone would spare Q3 (TemplateNoticeUsesIgnorability).
  EXPECT_EQ(node_.OnUpdate("toystore", notice), 3u);
  EXPECT_EQ(node_.CacheSize("toystore"), 0u);
}

// An entry whose template index is past the app's query templates has no
// group an update could visit: it is refused, not cached and not counted.
TEST_F(NodeTest, StoreRefusesOutOfRangeTemplateIndex) {
  for (const ExposureLevel level :
       {ExposureLevel::kTemplate, ExposureLevel::kStmt, ExposureLevel::kView}) {
    CacheEntry entry;
    entry.key = "bad-index";
    entry.level = level;
    entry.template_index = app_->templates().num_queries();
    entry.blob = "blob";
    node_.Store("toystore", entry);
    entry.template_index = CacheEntry::kNoTemplate;  // Exposed, no template.
    node_.Store("toystore", std::move(entry));
  }
  EXPECT_EQ(node_.CacheSize("toystore"), 0u);
  EXPECT_EQ(node_.stats("toystore").stores, 0u);

  // The node survives the next update, and good entries still store.
  UpdateNotice blind;
  EXPECT_EQ(node_.OnUpdate("toystore", blind), 0u);
  ASSERT_TRUE(app_->Query("Q2", {Value(7)}).ok());
  EXPECT_EQ(node_.CacheSize("toystore"), 1u);
  EXPECT_EQ(node_.stats("toystore").stores, 1u);
}

// A blind entry reveals no template, so it must not be filed under one: a
// template notice that spares that template's group would spare it too.
TEST_F(NodeTest, StoreRefusesBlindEntryUnderATemplate) {
  CacheEntry entry;
  entry.key = "blind-under-q3";
  entry.level = ExposureLevel::kBlind;
  entry.template_index = 2;  // Q3.
  entry.blob = "blob";
  node_.Store("toystore", std::move(entry));
  EXPECT_EQ(node_.CacheSize("toystore"), 0u);
  EXPECT_EQ(node_.stats("toystore").stores, 0u);
}

TEST_F(NodeTest, BlindEntriesDieOnAnyUpdate) {
  ExposureAssignment exposure = ExposureAssignment::FullExposure(
      app_->templates().num_queries(), app_->templates().num_updates());
  exposure.query_levels[2] = ExposureLevel::kBlind;  // Q3 blind.
  ASSERT_TRUE(app_->SetExposure(exposure).ok());
  ASSERT_TRUE(app_->Query("Q3", {Value(10001)}).ok());

  // U1 is ignorable for Q3, but the DSSP cannot know which template the
  // blind entry belongs to.
  UpdateNotice notice;
  notice.level = ExposureLevel::kStmt;
  notice.template_index = 0;
  notice.statement = app_->templates().updates()[0].Bind({Value(7)});
  EXPECT_EQ(node_.OnUpdate("toystore", notice), 1u);
}

TEST_F(NodeTest, StatsCountOperations) {
  ASSERT_TRUE(app_->Query("Q2", {Value(7)}).ok());
  ASSERT_TRUE(app_->Query("Q2", {Value(7)}).ok());
  UpdateNotice notice;
  notice.level = ExposureLevel::kBlind;
  node_.OnUpdate("toystore", notice);
  const DsspStats& stats = node_.stats("toystore");
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.updates_observed, 1u);
  EXPECT_EQ(stats.entries_invalidated, 1u);
}

TEST_F(NodeTest, CapacityBoundsOneTenant) {
  node_.SetCacheCapacity("toystore", 3);
  for (int64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(app_->Query("Q2", {Value(i)}).ok());
  }
  EXPECT_EQ(node_.CacheSize("toystore"), 3u);
  EXPECT_EQ(node_.GetCacheCounters("toystore").total_evictions(), 7u);
  // The most recent entries are the survivors: Q2(10) hits...
  AccessStats stats;
  ASSERT_TRUE(app_->Query("Q2", {Value(10)}, &stats).ok());
  EXPECT_TRUE(stats.cache_hit);
  // ...and an evicted one misses.
  ASSERT_TRUE(app_->Query("Q2", {Value(1)}, &stats).ok());
  EXPECT_FALSE(stats.cache_hit);
}

TEST_F(NodeTest, TotalCacheSizeSpansApps) {
  ScalableApp other("toystore-b", &node_,
                    crypto::KeyRing::FromPassphrase("other"));
  workloads::ToystoreApplication toystore2;
  ASSERT_TRUE(toystore2.Setup(other, 1.0, 8).ok());
  ASSERT_TRUE(other.Finalize().ok());
  ASSERT_TRUE(app_->Query("Q2", {Value(1)}).ok());
  ASSERT_TRUE(other.Query("Q2", {Value(1)}).ok());
  ASSERT_TRUE(other.Query("Q2", {Value(2)}).ok());
  EXPECT_EQ(node_.TotalCacheSize(), 3u);
}

TEST_F(NodeTest, HasAppTracksRegistration) {
  EXPECT_FALSE(node_.HasApp("ghost"));
  EXPECT_TRUE(node_.HasApp("toystore"));
}

// Regression: every one of these used to DSSP_CHECK-abort the whole node
// on an unregistered app_id. A shared provider must degrade gracefully.
TEST_F(NodeTest, LookupForUnknownAppMisses) {
  EXPECT_FALSE(node_.Lookup("ghost", "some-key").has_value());
}

TEST_F(NodeTest, StoreForUnknownAppIsANoop) {
  CacheEntry entry;
  entry.key = "k";
  entry.blob = "blob";
  node_.Store("ghost", std::move(entry));
  EXPECT_EQ(node_.CacheSize("ghost"), 0u);
  EXPECT_EQ(node_.TotalCacheSize(), 0u);
}

TEST_F(NodeTest, OnUpdateForUnknownAppInvalidatesNothing) {
  UpdateNotice notice;
  notice.level = ExposureLevel::kBlind;
  EXPECT_EQ(node_.OnUpdate("ghost", notice), 0u);
}

TEST_F(NodeTest, StatsForUnknownAppAreZero) {
  const DsspStats stats = node_.stats("ghost");
  EXPECT_EQ(stats.lookups, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.updates_observed, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.0);
}

TEST_F(NodeTest, CacheAccountingForUnknownAppIsZero) {
  const CacheCounters counters = node_.GetCacheCounters("ghost");
  EXPECT_EQ(counters.total_evictions(), 0u);
  EXPECT_EQ(counters.invalidation_removals, 0u);
  EXPECT_EQ(node_.CacheSize("ghost"), 0u);
  EXPECT_EQ(node_.ClearCache("ghost"), 0u);
  node_.SetCacheCapacity("ghost", 5);  // No-op, must not abort.
  EXPECT_FALSE(node_.HasApp("ghost"));
}

TEST_F(NodeTest, CacheCountersSplitEvictionCauses) {
  // Overflow evictions.
  node_.SetCacheCapacity("toystore", 3);
  for (int64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(app_->Query("Q2", {Value(i)}).ok());
  }
  CacheCounters counters = node_.GetCacheCounters("toystore");
  EXPECT_EQ(counters.insert_evictions, 2u);
  EXPECT_EQ(counters.shrink_evictions, 0u);
  // Shrink evictions.
  node_.SetCacheCapacity("toystore", 1);
  counters = node_.GetCacheCounters("toystore");
  EXPECT_EQ(counters.shrink_evictions, 2u);
  EXPECT_EQ(counters.total_evictions(), 4u);
  // Invalidation removals are not evictions.
  UpdateNotice notice;
  notice.level = ExposureLevel::kBlind;
  EXPECT_EQ(node_.OnUpdate("toystore", notice), 1u);
  counters = node_.GetCacheCounters("toystore");
  EXPECT_EQ(counters.invalidation_removals, 1u);
  EXPECT_EQ(counters.total_evictions(), 4u);
}

// Regression: LookupStale must feed the lookup/miss counters like Lookup
// does — a degraded-mode deployment otherwise reports a hit rate computed
// over a denominator that ignores most of its traffic.
TEST_F(NodeTest, StaleLookupsCountAsLookupsAndMisses) {
  node_.SetStaleRetention("toystore", 8);
  CacheEntry entry;
  entry.key = "stale-key";
  entry.blob = "blob";
  node_.Store("toystore", std::move(entry));
  const std::string key = "stale-key";

  UpdateNotice notice;
  notice.level = ExposureLevel::kBlind;
  ASSERT_EQ(node_.OnUpdate("toystore", notice), 1u);

  const DsspStats before = node_.stats("toystore");
  ASSERT_TRUE(node_.LookupStale("toystore", key, 1).has_value());  // Hit.
  EXPECT_FALSE(node_.LookupStale("toystore", key, 0).has_value());  // Miss.
  EXPECT_FALSE(node_.LookupStale("toystore", "nope", 5).has_value());

  const DsspStats after = node_.stats("toystore");
  EXPECT_EQ(after.lookups, before.lookups + 3);
  EXPECT_EQ(after.misses, before.misses + 2);
  EXPECT_EQ(after.stale_hits, before.stale_hits + 1);
  EXPECT_EQ(after.hits, before.hits);  // Stale hits are not fresh hits.
}

// Regression: a malformed notice (out-of-range template index or exposure
// level) must be refused and counted, not abort the shared node.
TEST_F(NodeTest, MalformedNoticeIsRejectedNotFatal) {
  ASSERT_TRUE(app_->Query("Q2", {Value(7)}).ok());

  UpdateNotice bad_index;
  bad_index.level = ExposureLevel::kTemplate;
  bad_index.template_index = 999;
  EXPECT_EQ(node_.OnUpdate("toystore", bad_index), 0u);

  UpdateNotice bad_level;
  bad_level.level = static_cast<ExposureLevel>(7);
  EXPECT_EQ(node_.OnUpdate("toystore", bad_level), 0u);

  UpdateNotice view_level;  // Updates never expose views.
  view_level.level = ExposureLevel::kView;
  view_level.template_index = 0;
  EXPECT_EQ(node_.OnUpdate("toystore", view_level), 0u);

  const DsspStats stats = node_.stats("toystore");
  EXPECT_EQ(stats.rejected_notices, 3u);
  EXPECT_EQ(stats.updates_observed, 0u);
  EXPECT_EQ(node_.CacheSize("toystore"), 1u);  // Nothing invalidated.

  // The node survives and a well-formed notice still applies.
  UpdateNotice good;
  good.level = ExposureLevel::kBlind;
  EXPECT_EQ(node_.OnUpdate("toystore", good), 1u);
  EXPECT_EQ(node_.stats("toystore").updates_observed, 1u);
}

// Rejected notices must not advance the staleness epoch: an entry that is
// one observed update behind stays one behind through any amount of junk.
TEST_F(NodeTest, RejectedNoticesDoNotAdvanceStaleEpoch) {
  node_.SetStaleRetention("toystore", 8);
  CacheEntry entry;
  entry.key = "epoch-key";
  entry.blob = "blob";
  node_.Store("toystore", std::move(entry));
  const std::string key = "epoch-key";

  UpdateNotice good;
  good.level = ExposureLevel::kBlind;
  ASSERT_EQ(node_.OnUpdate("toystore", good), 1u);

  UpdateNotice bad;
  bad.level = ExposureLevel::kTemplate;
  bad.template_index = 12345;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(node_.OnUpdate("toystore", bad), 0u);
  }
  // Still exactly one update behind.
  EXPECT_TRUE(node_.LookupStale("toystore", key, 1).has_value());
}

// LookupShared hands out the cached entry itself; Lookup is the same
// lookup plus one copy, and both feed the same counters.
TEST_F(NodeTest, SharedLookupOutlivesInvalidationAndClear) {
  CacheEntry entry;
  entry.key = "shared-key";
  entry.blob = std::string(100, 'b');
  node_.Store("toystore", entry);

  const std::shared_ptr<const CacheEntry> held =
      node_.LookupShared("toystore", "shared-key");
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(node_.LookupShared("toystore", "shared-key").get(), held.get());
  const std::optional<CacheEntry> copy = node_.Lookup("toystore", "shared-key");
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(copy->blob, held->blob);
  EXPECT_EQ(node_.LookupShared("ghost", "shared-key"), nullptr);

  UpdateNotice blind;
  ASSERT_EQ(node_.OnUpdate("toystore", blind), 1u);
  EXPECT_EQ(node_.LookupShared("toystore", "shared-key"), nullptr);
  EXPECT_EQ(held->key, "shared-key");
  EXPECT_EQ(held->blob, std::string(100, 'b'));

  node_.Store("toystore", entry);
  const std::shared_ptr<const CacheEntry> again =
      node_.LookupShared("toystore", "shared-key");
  ASSERT_EQ(node_.ClearCache("toystore"), 1u);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->blob, std::string(100, 'b'));

  const DsspStats stats = node_.stats("toystore");
  EXPECT_EQ(stats.lookups, 5u);  // The unknown app's lookup is not counted.
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.misses, 1u);
}

// A decorator that overrides only the copying Lookup, the shape of a
// tracing wrapper written before LookupShared existed. ScalableApp reaches
// it through the default LookupShared, so it must see every lookup and the
// hits it serves must be correct.
class CopyingLookupBackend : public CacheBackend {
 public:
  explicit CopyingLookupBackend(DsspNode& inner) : inner_(inner) {}

  Status RegisterApp(std::string app_id, const catalog::Catalog* catalog,
                     const templates::TemplateSet* templates) override {
    return inner_.RegisterApp(std::move(app_id), catalog, templates);
  }
  std::optional<CacheEntry> Lookup(const std::string& app_id,
                                   const std::string& key) override {
    ++lookups;
    return inner_.Lookup(app_id, key);
  }
  std::optional<CacheEntry> LookupStale(const std::string& app_id,
                                        const std::string& key,
                                        uint64_t max_updates_behind) override {
    return inner_.LookupStale(app_id, key, max_updates_behind);
  }
  void Store(const std::string& app_id, CacheEntry entry) override {
    inner_.Store(app_id, std::move(entry));
  }
  size_t OnUpdate(const std::string& app_id,
                  const UpdateNotice& notice) override {
    return inner_.OnUpdate(app_id, notice);
  }
  size_t ClearCache(const std::string& app_id) override {
    return inner_.ClearCache(app_id);
  }
  void SetStaleRetention(const std::string& app_id,
                         size_t max_entries) override {
    inner_.SetStaleRetention(app_id, max_entries);
  }

  int lookups = 0;

 private:
  DsspNode& inner_;
};

TEST(CacheBackendTest, CopyingLookupDecoratorServesCorrectHits) {
  DsspNode node;
  CopyingLookupBackend decorated(node);
  ScalableApp app("toystore", &decorated,
                  crypto::KeyRing::FromPassphrase("decorated"));
  workloads::ToystoreApplication toystore;
  ASSERT_TRUE(toystore.Setup(app, 1.0, 7).ok());
  ASSERT_TRUE(app.Finalize().ok());
  // The same answers straight from the home database.
  DsspNode plain_node;
  ScalableApp plain("toystore", &plain_node,
                    crypto::KeyRing::FromPassphrase("decorated"));
  workloads::ToystoreApplication plain_toystore;
  ASSERT_TRUE(plain_toystore.Setup(plain, 1.0, 7).ok());
  ASSERT_TRUE(plain.Finalize().ok());

  int queries = 0;
  for (const ExposureLevel level :
       {ExposureLevel::kView, ExposureLevel::kStmt, ExposureLevel::kTemplate,
        ExposureLevel::kBlind}) {
    ExposureAssignment exposure = ExposureAssignment::FullExposure(
        app.templates().num_queries(), app.templates().num_updates());
    for (ExposureLevel& query_level : exposure.query_levels) {
      query_level = level;
    }
    ASSERT_TRUE(app.SetExposure(exposure).ok());
    for (int64_t zip = 1; zip <= 3; ++zip) {
      SCOPED_TRACE(::testing::Message() << "level " << static_cast<int>(level)
                                        << " zip " << zip);
      const StatusOr<engine::QueryResult> expected =
          plain.Query("Q2", {Value(zip)});
      ASSERT_TRUE(expected.ok());
      for (const bool want_hit : {false, true}) {
        AccessStats stats;
        const StatusOr<engine::QueryResult> got =
            app.Query("Q2", {Value(zip)}, &stats);
        ++queries;
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(stats.cache_hit, want_hit);
        EXPECT_EQ(got->Serialize(), expected->Serialize());
      }
    }
  }
  EXPECT_EQ(decorated.lookups, queries);
  EXPECT_EQ(node.stats("toystore").lookups, static_cast<uint64_t>(queries));
  EXPECT_EQ(node.stats("toystore").hits, static_cast<uint64_t>(queries / 2));
}

}  // namespace
}  // namespace dssp::service
