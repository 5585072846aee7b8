// Reproduces Table 2: invalidations for simple-toystore update U1 with
// parameter 5, as a function of what information the DSSP can access.
//
// Expected (paper):
//   blind                -> all of Q1, Q2, Q3
//   templates            -> all Q1, all Q2
//   templates+params     -> all Q1, Q2 only if toy_id = 5
//   templates+params+res -> Q1 only if its result contains toy 5,
//                           Q2 only if toy_id = 5

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/plan.h"
#include "invalidation/strategies.h"
#include "workloads/toystore.h"

namespace {

using dssp::analysis::ExposureLevel;
using dssp::invalidation::CachedQueryView;
using dssp::invalidation::Decision;
using dssp::invalidation::InvalidationStrategy;
using dssp::invalidation::UpdateView;
using dssp::sql::Value;

struct Instance {
  std::string label;
  std::string query_id;
  std::vector<Value> params;
};

}  // namespace

int main() {
  auto bundle = dssp::workloads::MakeSimpleToystore();
  DSSP_CHECK(bundle.ok());
  auto& [db, templates] = *bundle;
  const dssp::catalog::Catalog& catalog = db->catalog();

  // Cached instances. Toy 5 is named "toy5"; Q1('toy5') contains it, while
  // Q1('toy3') does not.
  const std::vector<Instance> instances = {
      {"Q1(toy_name='toy5')", "Q1", {Value("toy5")}},
      {"Q1(toy_name='toy3')", "Q1", {Value("toy3")}},
      {"Q2(toy_id=5)", "Q2", {Value(5)}},
      {"Q2(toy_id=7)", "Q2", {Value(7)}},
      {"Q3(cust_id=2)", "Q3", {Value(2)}},
  };

  const size_t u1_index = templates.UpdateIndex("U1");
  DSSP_CHECK(u1_index != dssp::templates::TemplateSet::kNpos);
  const auto* u1 = &templates.updates()[u1_index];
  const dssp::sql::Statement update_stmt = u1->Bind({Value(5)});

  const auto plan =
      dssp::analysis::InvalidationPlan::Compile(templates, catalog);
  dssp::invalidation::BlindStrategy blind;
  dssp::invalidation::TemplateInspectionStrategy tis(plan);
  dssp::invalidation::StatementInspectionStrategy sis(catalog, plan);
  dssp::invalidation::ViewInspectionStrategy vis(catalog, plan);

  struct Scenario {
    const char* accessible;
    const InvalidationStrategy* strategy;
    ExposureLevel update_level;
    ExposureLevel query_level;
  };
  const Scenario scenarios[] = {
      {"nothing (blind)           ", &blind, ExposureLevel::kBlind,
       ExposureLevel::kBlind},
      {"templates                 ", &tis, ExposureLevel::kTemplate,
       ExposureLevel::kTemplate},
      {"templates+parameters      ", &sis, ExposureLevel::kStmt,
       ExposureLevel::kStmt},
      {"templates+params+results  ", &vis, ExposureLevel::kStmt,
       ExposureLevel::kView},
  };

  std::printf("Table 2 — invalidations on U1(toy_id=5), simple-toystore\n");
  std::printf("%-28s %s\n", "DSSP can access", "invalidated cached results");
  std::printf("%s\n", std::string(90, '-').c_str());

  for (const Scenario& scenario : scenarios) {
    UpdateView uv;
    uv.level = scenario.update_level;
    if (uv.level != ExposureLevel::kBlind) {
      uv.tmpl = u1;
      uv.template_index = u1_index;
    }
    if (uv.level == ExposureLevel::kStmt) uv.statement = &update_stmt;

    std::string invalidated;
    for (const Instance& instance : instances) {
      const size_t q_index = templates.QueryIndex(instance.query_id);
      const auto* q = &templates.queries()[q_index];
      const dssp::sql::Statement stmt = q->Bind(instance.params);
      const auto result = db->ExecuteQuery(stmt);
      DSSP_CHECK(result.ok());

      CachedQueryView qv;
      qv.level = scenario.query_level;
      if (qv.level != ExposureLevel::kBlind) {
        qv.tmpl = q;
        qv.template_index = q_index;
      }
      if (qv.level == ExposureLevel::kStmt ||
          qv.level == ExposureLevel::kView) {
        qv.statement = &stmt;
      }
      if (qv.level == ExposureLevel::kView) qv.result = &*result;

      if (scenario.strategy->Decide(uv, qv) == Decision::kInvalidate) {
        if (!invalidated.empty()) invalidated += ", ";
        invalidated += instance.label;
      }
    }
    std::printf("%-28s %s\n", scenario.accessible,
                invalidated.empty() ? "(none)" : invalidated.c_str());
  }

  std::printf(
      "\nPaper shape check: each row invalidates a subset of the row "
      "above it.\n");
  return 0;
}
