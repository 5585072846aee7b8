// The paper's correctness property (Section 2.2) as an executable oracle:
//
//   For any query Q, database D, and update U:
//     Q[D] != Q[D + U]  =>  S(U, Q, ...) = I.
//
// For every benchmark application we run a realistic trace, maintain a pool
// of cached query instances with their materialized results, and on every
// update (a) record each strategy's decision for each cached instance, then
// (b) apply the update and re-execute the instances. Any instance whose
// result changed MUST have been invalidated by every strategy class. We also
// check the Figure 4 hierarchy: invalidation counts are monotone
// MBS >= MTIS >= MSIS >= MVIS.
//
// The strategies answer from the InvalidationPlan compiled for the app, and
// the MixedStrategy is built exactly as DsspNode::RegisterApp builds it, so
// this checks the serving decision path against re-execution. The mixed
// strategy is asked at every (update, query) exposure pair.

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "analysis/plan.h"
#include "crypto/keyring.h"
#include "dssp/app.h"
#include "invalidation/strategies.h"
#include "workloads/application.h"

namespace dssp::invalidation {
namespace {

using analysis::ExposureLevel;
using sql::Value;

struct CachedInstance {
  size_t query_index;
  sql::Statement statement;
  engine::QueryResult result;
};

class OracleTest : public ::testing::TestWithParam<std::string> {};

TEST_P(OracleTest, StrategiesAreCorrectAndMonotoneOnRealTraces) {
  service::DsspNode node;
  service::ScalableApp app(GetParam(), &node,
                           crypto::KeyRing::FromPassphrase("oracle"));
  auto workload = workloads::MakeApplication(GetParam());
  ASSERT_TRUE(workload->Setup(app, /*scale=*/0.3, /*seed=*/21).ok());
  ASSERT_TRUE(app.Finalize().ok());
  engine::Database& db = app.home().database();
  const templates::TemplateSet& templates = app.templates();
  const catalog::Catalog& catalog = db.catalog();

  // What DsspNode::RegisterApp compiles and installs.
  const analysis::InvalidationPlan plan =
      analysis::InvalidationPlan::Compile(templates, catalog);
  BlindStrategy blind;
  TemplateInspectionStrategy tis(plan);
  StatementInspectionStrategy sis(catalog, plan);
  ViewInspectionStrategy vis(catalog, plan);
  MixedStrategy mixed(catalog, plan);
  constexpr ExposureLevel kUpdateLevels[] = {
      ExposureLevel::kBlind, ExposureLevel::kTemplate, ExposureLevel::kStmt};
  constexpr ExposureLevel kQueryLevels[] = {
      ExposureLevel::kBlind, ExposureLevel::kTemplate, ExposureLevel::kStmt,
      ExposureLevel::kView};
  constexpr size_t kNumUpdateLevels = std::size(kUpdateLevels);
  constexpr size_t kNumQueryLevels = std::size(kQueryLevels);

  auto session = workload->NewSession(4);
  Rng rng(99);

  std::map<std::string, CachedInstance> cached;  // Keyed by statement text.
  uint64_t inv_blind = 0;
  uint64_t inv_tis = 0;
  uint64_t inv_sis = 0;
  uint64_t inv_vis = 0;
  uint64_t updates_seen = 0;
  uint64_t changes_seen = 0;

  constexpr size_t kMaxCached = 150;
  constexpr int kPages = 250;

  for (int page = 0; page < kPages; ++page) {
    for (const sim::DbOp& op : session->NextPage(rng)) {
      if (!op.is_update) {
        const size_t index = templates.QueryIndex(op.template_id);
        ASSERT_NE(index, templates::TemplateSet::kNpos);
        const templates::QueryTemplate& tmpl = templates.queries()[index];
        sql::Statement bound = tmpl.Bind(op.params);
        const std::string key = sql::ToSql(bound);
        auto result = db.ExecuteQuery(bound);
        ASSERT_TRUE(result.ok()) << key << ": " << result.status().ToString();
        if (cached.size() < kMaxCached || cached.count(key) != 0) {
          cached[key] =
              CachedInstance{index, std::move(bound), std::move(*result)};
        }
        continue;
      }

      // An update: collect decisions, apply, verify.
      const size_t u_index = templates.UpdateIndex(op.template_id);
      ASSERT_NE(u_index, templates::TemplateSet::kNpos);
      const templates::UpdateTemplate& u_tmpl = templates.updates()[u_index];
      const sql::Statement u_stmt = u_tmpl.Bind(op.params);
      ++updates_seen;

      UpdateView uv;
      uv.level = ExposureLevel::kStmt;
      uv.tmpl = &u_tmpl;
      uv.statement = &u_stmt;
      uv.template_index = u_index;
      // The notice the node would receive at each update exposure level.
      UpdateView gated_updates[kNumUpdateLevels];
      for (size_t i = 0; i < kNumUpdateLevels; ++i) {
        gated_updates[i].level = kUpdateLevels[i];
        if (kUpdateLevels[i] != ExposureLevel::kBlind) {
          gated_updates[i].tmpl = &u_tmpl;
          gated_updates[i].template_index = u_index;
        }
        if (kUpdateLevels[i] == ExposureLevel::kStmt) {
          gated_updates[i].statement = &u_stmt;
        }
      }

      struct Decisions {
        Decision blind, tis, sis, vis;
        Decision mixed[kNumUpdateLevels][kNumQueryLevels];
      };
      std::map<std::string, Decisions> decisions;
      for (const auto& [key, instance] : cached) {
        const templates::QueryTemplate& q_tmpl =
            templates.queries()[instance.query_index];
        CachedQueryView blind_view;
        blind_view.level = ExposureLevel::kBlind;
        CachedQueryView tis_view;
        tis_view.level = ExposureLevel::kTemplate;
        tis_view.tmpl = &q_tmpl;
        tis_view.template_index = instance.query_index;
        CachedQueryView sis_view = tis_view;
        sis_view.level = ExposureLevel::kStmt;
        sis_view.statement = &instance.statement;
        CachedQueryView vis_view = sis_view;
        vis_view.level = ExposureLevel::kView;
        vis_view.result = &instance.result;
        decisions[key] = Decisions{
            blind.Decide(uv, blind_view), tis.Decide(uv, tis_view),
            sis.Decide(uv, sis_view), vis.Decide(uv, vis_view), {}};
        const CachedQueryView gated_queries[kNumQueryLevels] = {
            blind_view, tis_view, sis_view, vis_view};
        for (size_t i = 0; i < kNumUpdateLevels; ++i) {
          for (size_t j = 0; j < kNumQueryLevels; ++j) {
            decisions[key].mixed[i][j] =
                mixed.Decide(gated_updates[i], gated_queries[j]);
          }
        }
        if (decisions[key].blind == Decision::kInvalidate) ++inv_blind;
        if (decisions[key].tis == Decision::kInvalidate) ++inv_tis;
        if (decisions[key].sis == Decision::kInvalidate) ++inv_sis;
        if (decisions[key].vis == Decision::kInvalidate) ++inv_vis;

        // Per-pair monotonicity (Figure 4 containment).
        EXPECT_TRUE(decisions[key].blind == Decision::kInvalidate ||
                    decisions[key].tis == Decision::kDoNotInvalidate);
        EXPECT_TRUE(decisions[key].tis == Decision::kInvalidate ||
                    decisions[key].sis == Decision::kDoNotInvalidate);
        EXPECT_TRUE(decisions[key].sis == Decision::kInvalidate ||
                    decisions[key].vis == Decision::kDoNotInvalidate);
      }

      auto effect = db.ExecuteUpdate(u_stmt);
      ASSERT_TRUE(effect.ok())
          << sql::ToSql(u_stmt) << ": " << effect.status().ToString();

      for (auto& [key, instance] : cached) {
        auto fresh = db.ExecuteQuery(instance.statement);
        ASSERT_TRUE(fresh.ok());
        if (!fresh->SameResult(instance.result)) {
          ++changes_seen;
          const Decisions& d = decisions[key];
          // THE correctness property: a changed result must have been
          // invalidated by every strategy class.
          EXPECT_EQ(d.blind, Decision::kInvalidate)
              << "MBS missed: " << sql::ToSql(u_stmt) << " vs " << key;
          EXPECT_EQ(d.tis, Decision::kInvalidate)
              << "MTIS missed: " << sql::ToSql(u_stmt) << " vs " << key;
          EXPECT_EQ(d.sis, Decision::kInvalidate)
              << "MSIS missed: " << sql::ToSql(u_stmt) << " vs " << key;
          EXPECT_EQ(d.vis, Decision::kInvalidate)
              << "MVIS missed: " << sql::ToSql(u_stmt) << " vs " << key;
          for (size_t i = 0; i < kNumUpdateLevels; ++i) {
            for (size_t j = 0; j < kNumQueryLevels; ++j) {
              EXPECT_EQ(d.mixed[i][j], Decision::kInvalidate)
                  << "mixed missed at ("
                  << analysis::ExposureLevelName(kUpdateLevels[i]) << ", "
                  << analysis::ExposureLevelName(kQueryLevels[j])
                  << "): " << sql::ToSql(u_stmt) << " vs " << key;
            }
          }
          instance.result = std::move(*fresh);
        }
      }
    }
  }

  // The trace exercised the machinery.
  EXPECT_GT(updates_seen, 20u);
  EXPECT_GT(changes_seen, 0u);
  // Aggregate monotonicity: more information, fewer invalidations.
  EXPECT_GE(inv_blind, inv_tis);
  EXPECT_GE(inv_tis, inv_sis);
  EXPECT_GE(inv_sis, inv_vis);
  // And the refinement is not vacuous.
  EXPECT_LT(inv_tis, inv_blind);
  EXPECT_LT(inv_sis, inv_tis);
}

INSTANTIATE_TEST_SUITE_P(Apps, OracleTest,
                         ::testing::Values("toystore", "auction", "bboard",
                                           "bookstore"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace dssp::invalidation
