// Ablation: how much work does the statement-level independence solver do
// inside MSIS, and how much further does view inspection (MVIS) refine?
// For each application, replays a trace against a pool of cached query
// instances and reports the fraction of (update, cached entry) decisions
// that invalidate, per strategy variant. Every variant answers from the
// compiled InvalidationPlan. MSIS without the solver keeps only the plan's
// template-level verdict, which is exactly MTIS's decision, so the
// "MSIS(no solver)" column is computed with MTIS over the same plan.

#include <cstdio>
#include <map>

#include "analysis/plan.h"
#include "bench/bench_util.h"
#include "invalidation/strategies.h"

namespace {

using dssp::analysis::ExposureLevel;
using dssp::analysis::InvalidationPlan;
using dssp::invalidation::CachedQueryView;
using dssp::invalidation::Decision;
using dssp::invalidation::StatementInspectionStrategy;
using dssp::invalidation::TemplateInspectionStrategy;
using dssp::invalidation::UpdateView;
using dssp::invalidation::ViewInspectionStrategy;

struct Cached {
  size_t query_index;
  dssp::sql::Statement statement;
  dssp::engine::QueryResult result;
};

}  // namespace

int main() {
  std::printf(
      "Ablation — MSIS independence solver and MVIS view refinement\n"
      "(fraction of decisions that invalidate; lower is better)\n\n");
  std::printf("%-11s %14s %14s %14s\n", "Application", "MSIS(no solver)",
              "MSIS", "MVIS");
  std::printf("%s\n", std::string(60, '-').c_str());

  for (std::string_view name : dssp::workloads::kEvaluationApps) {
    auto system = dssp::bench::BuildSystem(std::string(name), 0.25, 3);
    auto& db = system->app->home().database();
    const auto& templates = system->app->templates();
    const auto& catalog = db.catalog();

    const InvalidationPlan plan = InvalidationPlan::Compile(templates, catalog);
    const TemplateInspectionStrategy sis_no_solver(plan);
    const StatementInspectionStrategy sis(catalog, plan);
    const ViewInspectionStrategy vis(catalog, plan);

    auto session = system->workload->NewSession(9);
    dssp::Rng rng(43);
    std::map<std::string, Cached> cached;
    uint64_t decisions = 0;
    uint64_t inv_no_solver = 0;
    uint64_t inv_sis = 0;
    uint64_t inv_vis = 0;

    for (int page = 0; page < 400; ++page) {
      for (const dssp::sim::DbOp& op : session->NextPage(rng)) {
        if (!op.is_update) {
          const size_t index = templates.QueryIndex(op.template_id);
          auto bound = templates.queries()[index].Bind(op.params);
          const std::string key = dssp::sql::ToSql(bound);
          if (cached.size() < 120 || cached.count(key) != 0) {
            auto result = db.ExecuteQuery(bound);
            DSSP_CHECK(result.ok());
            cached[key] = Cached{index, std::move(bound),
                                 std::move(*result)};
          }
          continue;
        }
        const size_t u_index = templates.UpdateIndex(op.template_id);
        const auto& u_tmpl = templates.updates()[u_index];
        const dssp::sql::Statement u_stmt = u_tmpl.Bind(op.params);
        UpdateView uv;
        uv.level = ExposureLevel::kStmt;
        uv.tmpl = &u_tmpl;
        uv.statement = &u_stmt;
        uv.template_index = u_index;
        for (const auto& [key, entry] : cached) {
          CachedQueryView qv;
          qv.level = ExposureLevel::kView;
          qv.tmpl = &templates.queries()[entry.query_index];
          qv.statement = &entry.statement;
          qv.result = &entry.result;
          qv.template_index = entry.query_index;
          ++decisions;
          if (sis_no_solver.Decide(uv, qv) == Decision::kInvalidate) {
            ++inv_no_solver;
          }
          if (sis.Decide(uv, qv) == Decision::kInvalidate) ++inv_sis;
          if (vis.Decide(uv, qv) == Decision::kInvalidate) ++inv_vis;
        }
        DSSP_CHECK(db.ExecuteUpdate(u_stmt).ok());
        // Refresh cached results so MVIS sees current views.
        for (auto& [key, entry] : cached) {
          auto fresh = db.ExecuteQuery(entry.statement);
          DSSP_CHECK(fresh.ok());
          entry.result = std::move(*fresh);
        }
      }
    }
    const double denom = decisions == 0 ? 1.0 : static_cast<double>(decisions);
    std::printf("%-11s %14.4f %14.4f %14.4f\n", std::string(name).c_str(),
                static_cast<double>(inv_no_solver) / denom,
                static_cast<double>(inv_sis) / denom,
                static_cast<double>(inv_vis) / denom);
  }

  std::printf(
      "\nInterpretation: the parameter-level independence test removes the\n"
      "bulk of statement-level invalidations; view inspection shaves off a\n"
      "further slice (deletions/modifications whose rows are provably absent\n"
      "from the cached result).\n");
  return 0;
}
