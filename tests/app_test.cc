#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "common/random.h"
#include "crypto/keyring.h"
#include "dssp/app.h"
#include "sim/workload.h"
#include "workloads/application.h"
#include "workloads/toystore.h"

namespace dssp::service {
namespace {

using analysis::ExposureAssignment;
using analysis::ExposureLevel;
using sql::Value;

class AppTest : public ::testing::Test {
 protected:
  void SetUp() override {
    app_ = std::make_unique<ScalableApp>(
        "toystore", &dssp_, crypto::KeyRing::FromPassphrase("test-secret"));
    ASSERT_TRUE(toystore_.Setup(*app_, 1.0, 7).ok());
    ASSERT_TRUE(app_->Finalize().ok());
  }

  Status SetUniformExposure(ExposureLevel query_level,
                            ExposureLevel update_level) {
    ExposureAssignment exposure = ExposureAssignment::FullExposure(
        app_->templates().num_queries(), app_->templates().num_updates());
    for (auto& level : exposure.query_levels) level = query_level;
    for (auto& level : exposure.update_levels) level = update_level;
    return app_->SetExposure(exposure);
  }

  DsspNode dssp_;
  std::unique_ptr<ScalableApp> app_;
  workloads::ToystoreApplication toystore_;
};

TEST_F(AppTest, FinalizeIsRequiredAndUnique) {
  DsspNode node;
  ScalableApp fresh("x", &node, crypto::KeyRing::FromPassphrase("k"));
  EXPECT_EQ(fresh.Query("Q1", {}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(app_->Finalize().code(), StatusCode::kFailedPrecondition);
}

TEST_F(AppTest, QueryReturnsCorrectResultAtEveryLevel) {
  for (ExposureLevel level :
       {ExposureLevel::kView, ExposureLevel::kStmt, ExposureLevel::kTemplate,
        ExposureLevel::kBlind}) {
    ASSERT_TRUE(SetUniformExposure(level, ExposureLevel::kStmt).ok());
    auto result = app_->Query("Q2", {Value(5)});
    ASSERT_TRUE(result.ok()) << ExposureLevelName(level);
    ASSERT_EQ(result->num_rows(), 1u) << ExposureLevelName(level);
    // qty of toy 5 is (5*7)%100+1 = 36.
    EXPECT_EQ(result->rows()[0][0], Value(36)) << ExposureLevelName(level);
  }
}

TEST_F(AppTest, SecondQueryHitsAtEveryLevel) {
  for (ExposureLevel level :
       {ExposureLevel::kView, ExposureLevel::kStmt, ExposureLevel::kTemplate,
        ExposureLevel::kBlind}) {
    ASSERT_TRUE(SetUniformExposure(level, ExposureLevel::kStmt).ok());
    AccessStats stats;
    ASSERT_TRUE(app_->Query("Q2", {Value(9)}, &stats).ok());
    EXPECT_FALSE(stats.cache_hit);
    EXPECT_GT(stats.wan_request_bytes, 0u);
    ASSERT_TRUE(app_->Query("Q2", {Value(9)}, &stats).ok());
    EXPECT_TRUE(stats.cache_hit) << ExposureLevelName(level);
    EXPECT_EQ(stats.wan_request_bytes, 0u);
    // Different parameters still miss.
    ASSERT_TRUE(app_->Query("Q2", {Value(10)}, &stats).ok());
    EXPECT_FALSE(stats.cache_hit);
  }
}

TEST_F(AppTest, UpdateInvalidatesAffectedEntriesOnly) {
  // Full exposure (default): MVIS-grade invalidation.
  AccessStats stats;
  ASSERT_TRUE(app_->Query("Q2", {Value(5)}, &stats).ok());
  ASSERT_TRUE(app_->Query("Q2", {Value(7)}, &stats).ok());
  ASSERT_TRUE(app_->Query("Q3", {Value(10001)}, &stats).ok());
  EXPECT_EQ(dssp_.CacheSize("toystore"), 3u);

  // Delete toy 5: only Q2(5) dies.
  ASSERT_TRUE(app_->Update("U1", {Value(5)}, &stats).ok());
  EXPECT_EQ(stats.entries_invalidated, 1u);
  ASSERT_TRUE(app_->Query("Q2", {Value(7)}, &stats).ok());
  EXPECT_TRUE(stats.cache_hit);
  ASSERT_TRUE(app_->Query("Q2", {Value(5)}, &stats).ok());
  EXPECT_FALSE(stats.cache_hit);
  EXPECT_EQ(app_->Query("Q2", {Value(5)})->num_rows(), 0u + 1u - 1u);
}

TEST_F(AppTest, BlindExposureInvalidatesEverything) {
  ASSERT_TRUE(
      SetUniformExposure(ExposureLevel::kBlind, ExposureLevel::kBlind).ok());
  AccessStats stats;
  ASSERT_TRUE(app_->Query("Q2", {Value(7)}, &stats).ok());
  ASSERT_TRUE(app_->Query("Q3", {Value(10001)}, &stats).ok());
  ASSERT_TRUE(app_->Update("U1", {Value(5)}, &stats).ok());
  EXPECT_EQ(stats.entries_invalidated, 2u);
  EXPECT_EQ(dssp_.CacheSize("toystore"), 0u);
}

TEST_F(AppTest, TemplateExposureSparesIgnorableTemplates) {
  ASSERT_TRUE(SetUniformExposure(ExposureLevel::kTemplate,
                                 ExposureLevel::kTemplate)
                  .ok());
  AccessStats stats;
  ASSERT_TRUE(app_->Query("Q2", {Value(7)}, &stats).ok());
  ASSERT_TRUE(app_->Query("Q3", {Value(10001)}, &stats).ok());
  // U1 (delete toys) is ignorable for Q3 but not Q2.
  ASSERT_TRUE(app_->Update("U1", {Value(5)}, &stats).ok());
  EXPECT_EQ(stats.entries_invalidated, 1u);
  ASSERT_TRUE(app_->Query("Q3", {Value(10001)}, &stats).ok());
  EXPECT_TRUE(stats.cache_hit);
}

TEST_F(AppTest, ResultsAreConsistentAfterUpdates) {
  // The DSSP-served answer always matches a direct master-database query.
  ASSERT_TRUE(app_->Query("Q2", {Value(5)}).ok());
  ASSERT_TRUE(app_->Update("U1", {Value(5)}).ok());
  const auto cached = app_->Query("Q2", {Value(5)});
  ASSERT_TRUE(cached.ok());
  const auto direct =
      app_->home().database().Query("SELECT qty FROM toys WHERE toy_id = 5");
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(cached->SameResult(*direct));
  EXPECT_EQ(cached->num_rows(), 0u);
}

TEST_F(AppTest, SetExposureValidation) {
  ExposureAssignment bad = ExposureAssignment::FullExposure(
      app_->templates().num_queries(), app_->templates().num_updates());
  bad.query_levels.pop_back();
  EXPECT_EQ(app_->SetExposure(bad).code(), StatusCode::kInvalidArgument);

  ExposureAssignment view_update = ExposureAssignment::FullExposure(
      app_->templates().num_queries(), app_->templates().num_updates());
  view_update.update_levels[0] = ExposureLevel::kView;
  EXPECT_EQ(app_->SetExposure(view_update).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(AppTest, SetExposureClearsCache) {
  ASSERT_TRUE(app_->Query("Q2", {Value(5)}).ok());
  EXPECT_EQ(dssp_.CacheSize("toystore"), 1u);
  ASSERT_TRUE(
      SetUniformExposure(ExposureLevel::kStmt, ExposureLevel::kStmt).ok());
  EXPECT_EQ(dssp_.CacheSize("toystore"), 0u);
}

TEST_F(AppTest, UnknownTemplateAndBadArity) {
  EXPECT_EQ(app_->Query("Q99", {}).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(app_->Update("U99", {}).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(app_->Query("Q2", {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(app_->Update("U1", {Value(1), Value(2)}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(AppTest, UpdateEffectPropagates) {
  AccessStats stats;
  auto effect = app_->Update("U1", {Value(5)}, &stats);
  ASSERT_TRUE(effect.ok());
  EXPECT_EQ(effect->rows_affected, 1u);
  EXPECT_EQ(stats.rows_affected, 1u);
  EXPECT_TRUE(stats.is_update);
  effect = app_->Update("U1", {Value(5)});
  ASSERT_TRUE(effect.ok());
  EXPECT_EQ(effect->rows_affected, 0u);
}

TEST_F(AppTest, ConstraintViolationSurfacesToCaller) {
  // Customer 1 already has a card (cid is the PK of credit_card).
  const auto effect = app_->Update(
      "U2", {Value(1), Value("4000-dup"), Value(10001)});
  ASSERT_FALSE(effect.ok());
  EXPECT_EQ(effect.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(AppTest, TwoAppsAreIsolated) {
  ScalableApp other("toystore2", &dssp_,
                    crypto::KeyRing::FromPassphrase("other-secret"));
  workloads::ToystoreApplication toystore2;
  ASSERT_TRUE(toystore2.Setup(other, 1.0, 8).ok());
  ASSERT_TRUE(other.Finalize().ok());

  ASSERT_TRUE(app_->Query("Q2", {Value(5)}).ok());
  ASSERT_TRUE(other.Query("Q2", {Value(5)}).ok());
  EXPECT_EQ(dssp_.CacheSize("toystore"), 1u);
  EXPECT_EQ(dssp_.CacheSize("toystore2"), 1u);

  // An update in app 2 never invalidates app 1's entries.
  AccessStats stats;
  ASSERT_TRUE(other.Update("U1", {Value(5)}, &stats).ok());
  EXPECT_EQ(dssp_.CacheSize("toystore"), 1u);
  EXPECT_EQ(dssp_.CacheSize("toystore2"), 0u);

  // And app 1's data is unchanged.
  const auto r = app_->Query("Q2", {Value(5)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 1u);
}

TEST_F(AppTest, DsspStatsAccumulate) {
  AccessStats stats;
  ASSERT_TRUE(app_->Query("Q2", {Value(5)}, &stats).ok());
  ASSERT_TRUE(app_->Query("Q2", {Value(5)}, &stats).ok());
  ASSERT_TRUE(app_->Update("U1", {Value(5)}, &stats).ok());
  const DsspStats& s = dssp_.stats("toystore");
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.updates_observed, 1u);
  EXPECT_EQ(s.entries_invalidated, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST_F(AppTest, NodeRejectsDuplicateRegistration) {
  EXPECT_EQ(dssp_.RegisterApp("toystore", &app_->home().database().catalog(),
                              &app_->templates())
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(dssp_.HasApp("toystore"));
  EXPECT_FALSE(dssp_.HasApp("ghost"));
}

// Forwards to a DsspNode and remembers the entry the latest shared lookup
// returned and the key of the latest fill, so a test can reach the cached
// entry behind each answer.
class EntrySpy : public CacheBackend {
 public:
  Status RegisterApp(std::string app_id, const catalog::Catalog* catalog,
                     const templates::TemplateSet* templates) override {
    return node.RegisterApp(std::move(app_id), catalog, templates);
  }
  std::optional<CacheEntry> Lookup(const std::string& app_id,
                                   const std::string& key) override {
    return node.Lookup(app_id, key);
  }
  std::shared_ptr<const CacheEntry> LookupShared(
      const std::string& app_id, const std::string& key) override {
    last_lookup = node.LookupShared(app_id, key);
    return last_lookup;
  }
  std::optional<CacheEntry> LookupStale(const std::string& app_id,
                                        const std::string& key,
                                        uint64_t max_updates_behind) override {
    return node.LookupStale(app_id, key, max_updates_behind);
  }
  void Store(const std::string& app_id, CacheEntry entry) override {
    last_stored_key = entry.key;
    node.Store(app_id, std::move(entry));
  }
  size_t OnUpdate(const std::string& app_id,
                  const UpdateNotice& notice) override {
    return node.OnUpdate(app_id, notice);
  }
  size_t ClearCache(const std::string& app_id) override {
    return node.ClearCache(app_id);
  }
  void SetStaleRetention(const std::string& app_id,
                         size_t max_entries) override {
    node.SetStaleRetention(app_id, max_entries);
  }

  DsspNode node;
  std::shared_ptr<const CacheEntry> last_lookup;
  std::string last_stored_key;
};

// A view-level hit hands back the cached entry's own decoded result, and a
// view-level fill hands back the result it stored; the encrypted levels
// still decode a result of their own for every answer. Covers every query
// template the sessions of the four workloads issue. The rest are never
// issued: bookstore Q17 and Q22, auction Q4 and Q17-Q19, bboard Q16.
class ViewResultSharingTest
    : public ::testing::TestWithParam<std::tuple<std::string, size_t>> {};

TEST_P(ViewResultSharingTest, ViewHitsShareTheStoredResult) {
  const auto& [app_name, issued_templates] = GetParam();
  EntrySpy spy;
  ScalableApp app(app_name, &spy,
                  crypto::KeyRing::FromPassphrase("sharing"));
  auto workload = workloads::MakeApplication(app_name);
  ASSERT_TRUE(workload->Setup(app, 0.25, 41).ok());
  ASSERT_TRUE(app.Finalize().ok());

  // One instance of every query template the sessions issue. Updates are
  // not applied, so each instance reads the populated database.
  std::map<std::string, std::vector<Value>> instances;
  auto session = workload->NewSession(8);
  Rng rng(55);
  for (int page = 0; page < 2000; ++page) {
    for (const sim::DbOp& op : session->NextPage(rng)) {
      if (!op.is_update) instances.emplace(op.template_id, op.params);
    }
  }
  ASSERT_EQ(instances.size(), issued_templates);

  for (ExposureLevel level :
       {ExposureLevel::kView, ExposureLevel::kStmt, ExposureLevel::kTemplate,
        ExposureLevel::kBlind}) {
    ExposureAssignment exposure = ExposureAssignment::FullExposure(
        app.templates().num_queries(), app.templates().num_updates());
    for (auto& query_level : exposure.query_levels) query_level = level;
    ASSERT_TRUE(app.SetExposure(exposure).ok());
    for (const auto& [template_id, params] : instances) {
      const std::string where =
          app_name + " " + template_id + " " + ExposureLevelName(level);
      AccessStats stats;
      auto fill = app.Query(template_id, params, &stats);
      ASSERT_TRUE(fill.ok()) << where;
      ASSERT_FALSE(stats.cache_hit) << where;
      const std::shared_ptr<const CacheEntry> stored =
          spy.node.LookupShared(app_name, spy.last_stored_key);
      ASSERT_NE(stored, nullptr) << where;

      auto hit = app.Query(template_id, params, &stats);
      ASSERT_TRUE(hit.ok()) << where;
      ASSERT_TRUE(stats.cache_hit) << where;
      ASSERT_EQ(spy.last_lookup, stored) << where;
      EXPECT_EQ(stats.result_rows, hit->num_rows()) << where;
      EXPECT_TRUE(hit->SameResult(*fill)) << where;

      if (level == ExposureLevel::kView) {
        ASSERT_TRUE(stored->result.has_value()) << where;
        EXPECT_EQ(&fill->rows(), &stored->result->rows()) << where;
        EXPECT_EQ(&hit->rows(), &stored->result->rows()) << where;
        auto decoded = engine::QueryResult::Deserialize(stored->blob);
        ASSERT_TRUE(decoded.ok()) << where;
        EXPECT_TRUE(hit->SameResult(*decoded)) << where;
      } else {
        EXPECT_FALSE(stored->result.has_value()) << where;
        EXPECT_NE(&hit->rows(), &fill->rows()) << where;
        auto decoded = engine::QueryResult::Deserialize(
            app.home().result_cipher().Decrypt(stored->blob));
        ASSERT_TRUE(decoded.ok()) << where;
        EXPECT_TRUE(hit->SameResult(*decoded)) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ViewResultSharingTest,
    ::testing::Values(std::make_tuple("toystore", 3),
                      std::make_tuple("bookstore", 26),
                      std::make_tuple("auction", 18),
                      std::make_tuple("bboard", 17)),
    [](const auto& info) { return std::get<0>(info.param); });

}  // namespace
}  // namespace dssp::service
