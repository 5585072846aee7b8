#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/plan.h"
#include "engine/database.h"
#include "invalidation/strategies.h"
#include "workloads/toystore.h"

namespace dssp::invalidation {
namespace {

using analysis::ExposureLevel;
using sql::Value;
using templates::QueryTemplate;
using templates::UpdateTemplate;

// The Section 4.4 modification example (not part of the toystore set) in
// a template set of its own, with its compiled plan: Um is update 0 and Qm
// is query 0.
struct ModificationExample {
  templates::TemplateSet templates;
  analysis::InvalidationPlan plan;

  const UpdateTemplate& um() const { return templates.updates()[0]; }
  const QueryTemplate& qm() const { return templates.queries()[0]; }
};

// Shared fixture: the Table 3 toystore and its compiled plan, plus helpers
// that build fully populated views (as if everything were exposed) and let
// each test gate what a strategy may see.
class StrategiesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto bundle = workloads::MakeToystore();
    ASSERT_TRUE(bundle.ok());
    db_ = std::move(bundle->db);
    templates_ = std::move(bundle->templates);
    plan_ = analysis::InvalidationPlan::Compile(templates_, catalog());
  }

  const catalog::Catalog& catalog() const { return db_->catalog(); }
  const analysis::InvalidationPlan& plan() const { return plan_; }

  // Section 4.4: SET qty = ? WHERE toy_id = ? vs SELECT toy_id WHERE qty > ?.
  ModificationExample MakeModificationExample() const {
    ModificationExample example;
    auto mod = UpdateTemplate::Create(
        "Um", "UPDATE toys SET qty = ? WHERE toy_id = ?", catalog());
    EXPECT_TRUE(mod.ok());
    EXPECT_TRUE(example.templates.AddUpdate(std::move(mod).value()).ok());
    auto q = QueryTemplate::Create(
        "Qm", "SELECT toy_id FROM toys WHERE qty > ?", catalog());
    EXPECT_TRUE(q.ok());
    EXPECT_TRUE(example.templates.AddQuery(std::move(q).value()).ok());
    example.plan =
        analysis::InvalidationPlan::Compile(example.templates, catalog());
    return example;
  }

  // Builds an UpdateView at `level` for template `id` with `params`.
  UpdateView MakeUpdate(const std::string& id, std::vector<Value> params,
                        ExposureLevel level = ExposureLevel::kStmt) {
    const UpdateTemplate* tmpl = templates_.FindUpdate(id);
    EXPECT_NE(tmpl, nullptr);
    update_stmt_ = tmpl->Bind(params);
    UpdateView view;
    view.level = level;
    if (level != ExposureLevel::kBlind) {
      view.tmpl = tmpl;
      view.template_index = templates_.UpdateIndex(id);
    }
    if (level == ExposureLevel::kStmt) view.statement = &update_stmt_;
    return view;
  }

  // Builds a CachedQueryView at `level`, executing the query to obtain the
  // real result when the level exposes it.
  CachedQueryView MakeQuery(const std::string& id, std::vector<Value> params,
                            ExposureLevel level = ExposureLevel::kView) {
    const QueryTemplate* tmpl = templates_.FindQuery(id);
    EXPECT_NE(tmpl, nullptr);
    query_stmt_ = tmpl->Bind(params);
    auto result = db_->ExecuteQuery(query_stmt_);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    query_result_ = std::move(result).value();
    CachedQueryView view;
    view.level = level;
    if (level != ExposureLevel::kBlind) {
      view.tmpl = tmpl;
      view.template_index = templates_.QueryIndex(id);
    }
    if (level == ExposureLevel::kStmt || level == ExposureLevel::kView) {
      view.statement = &query_stmt_;
    }
    if (level == ExposureLevel::kView) view.result = &query_result_;
    return view;
  }

  std::unique_ptr<engine::Database> db_;
  templates::TemplateSet templates_;
  analysis::InvalidationPlan plan_;
  sql::Statement update_stmt_;
  sql::Statement query_stmt_;
  engine::QueryResult query_result_;
};

// ----- Table 2: invalidations under the four information regimes. -----
// Update U1 with parameter 5 against cached Q1/Q2/Q3 instances.

TEST_F(StrategiesTest, Table2BlindRowInvalidatesEverything) {
  BlindStrategy blind;
  const UpdateView u = MakeUpdate("U1", {Value(5)}, ExposureLevel::kBlind);
  EXPECT_EQ(blind.Decide(u, MakeQuery("Q1", {Value("toy3")},
                                      ExposureLevel::kBlind)),
            Decision::kInvalidate);
  EXPECT_EQ(blind.Decide(u, MakeQuery("Q2", {Value(5)},
                                      ExposureLevel::kBlind)),
            Decision::kInvalidate);
  EXPECT_EQ(blind.Decide(u, MakeQuery("Q3", {Value(10001)},
                                      ExposureLevel::kBlind)),
            Decision::kInvalidate);
}

TEST_F(StrategiesTest, Table2TemplateRowSparesQ3) {
  TemplateInspectionStrategy tis(plan());
  const UpdateView u = MakeUpdate("U1", {Value(5)}, ExposureLevel::kTemplate);
  // All of Q1, all of Q2 invalidated; Q3 untouched (ignorable).
  EXPECT_EQ(tis.Decide(u, MakeQuery("Q1", {Value("toy3")},
                                    ExposureLevel::kTemplate)),
            Decision::kInvalidate);
  EXPECT_EQ(tis.Decide(u, MakeQuery("Q2", {Value(7)},
                                    ExposureLevel::kTemplate)),
            Decision::kInvalidate);
  EXPECT_EQ(tis.Decide(u, MakeQuery("Q3", {Value(10001)},
                                    ExposureLevel::kTemplate)),
            Decision::kDoNotInvalidate);
}

TEST_F(StrategiesTest, Table2StatementRowSparesOtherKeys) {
  StatementInspectionStrategy sis(catalog(), plan());
  const UpdateView u = MakeUpdate("U1", {Value(5)});
  // Q2 invalidated only if toy_id = 5.
  EXPECT_EQ(sis.Decide(u, MakeQuery("Q2", {Value(5)}, ExposureLevel::kStmt)),
            Decision::kInvalidate);
  EXPECT_EQ(sis.Decide(u, MakeQuery("Q2", {Value(7)}, ExposureLevel::kStmt)),
            Decision::kDoNotInvalidate);
  // All of Q1 still invalidated (name unknown for deleted toy).
  EXPECT_EQ(sis.Decide(u, MakeQuery("Q1", {Value("toy3")},
                                    ExposureLevel::kStmt)),
            Decision::kInvalidate);
}

TEST_F(StrategiesTest, Table2ViewRowChecksResultContent) {
  ViewInspectionStrategy vis(catalog(), plan());
  const UpdateView u = MakeUpdate("U1", {Value(5)});
  // Q1('toy5') preserves toy_id: its result contains toy 5 -> invalidate.
  EXPECT_EQ(vis.Decide(u, MakeQuery("Q1", {Value("toy5")})),
            Decision::kInvalidate);
  // Q1('toy3') yields toy 3 only -> the deletion of toy 5 cannot matter.
  EXPECT_EQ(vis.Decide(u, MakeQuery("Q1", {Value("toy3")})),
            Decision::kDoNotInvalidate);
  // Q2(5): statement-level match -> invalidate.
  EXPECT_EQ(vis.Decide(u, MakeQuery("Q2", {Value(5)})),
            Decision::kInvalidate);
}

// ----- Strategy hierarchy (Figure 4): more information never invalidates
// more. -----

TEST_F(StrategiesTest, HierarchyIsMonotone) {
  BlindStrategy blind;
  TemplateInspectionStrategy tis(plan());
  StatementInspectionStrategy sis(catalog(), plan());
  ViewInspectionStrategy vis(catalog(), plan());

  const struct {
    const char* update;
    std::vector<Value> update_params;
    const char* query;
    std::vector<Value> query_params;
  } cases[] = {
      {"U1", {Value(5)}, "Q1", {Value("toy3")}},
      {"U1", {Value(5)}, "Q1", {Value("toy5")}},
      {"U1", {Value(5)}, "Q2", {Value(5)}},
      {"U1", {Value(5)}, "Q2", {Value(7)}},
      {"U1", {Value(5)}, "Q3", {Value(10001)}},
      {"U2", {Value(15), Value("n"), Value(10001)}, "Q3", {Value(10001)}},
      {"U2", {Value(15), Value("n"), Value(10002)}, "Q3", {Value(10001)}},
      {"U2", {Value(15), Value("n"), Value(10001)}, "Q2", {Value(5)}},
  };
  for (const auto& c : cases) {
    const UpdateView u = MakeUpdate(c.update, c.update_params);
    // Rebuild the query view fresh for each strategy level.
    const int blind_inv =
        blind.Decide(u, MakeQuery(c.query, c.query_params,
                                  ExposureLevel::kBlind)) ==
        Decision::kInvalidate;
    const int tis_inv =
        tis.Decide(u, MakeQuery(c.query, c.query_params,
                                ExposureLevel::kTemplate)) ==
        Decision::kInvalidate;
    const int sis_inv = sis.Decide(u, MakeQuery(c.query, c.query_params,
                                                ExposureLevel::kStmt)) ==
                        Decision::kInvalidate;
    const int vis_inv =
        vis.Decide(u, MakeQuery(c.query, c.query_params)) ==
        Decision::kInvalidate;
    EXPECT_GE(blind_inv, tis_inv) << c.update << "/" << c.query;
    EXPECT_GE(tis_inv, sis_inv) << c.update << "/" << c.query;
    EXPECT_GE(sis_inv, vis_inv) << c.update << "/" << c.query;
  }
}

// ----- VIS refinements. -----

TEST_F(StrategiesTest, VisModificationPaperExample) {
  // Section 4.4: SET qty=10 WHERE toy_id=5 vs SELECT toy_id WHERE qty>100.
  const ModificationExample example = MakeModificationExample();
  ASSERT_FALSE(HasFailure());

  const sql::Statement update_stmt = example.um().Bind({Value(10), Value(5)});
  const sql::Statement query_stmt = example.qm().Bind({Value(100)});
  const auto result = db_->ExecuteQuery(query_stmt);
  ASSERT_TRUE(result.ok());
  // No toy has qty > 100 in the fixture (qty <= 100), and in particular
  // toy 5 is absent from the result.
  ASSERT_TRUE(std::none_of(result->rows().begin(), result->rows().end(),
                           [](const engine::Row& row) {
                             return row[0] == Value(5);
                           }));

  UpdateView uv;
  uv.level = ExposureLevel::kStmt;
  uv.tmpl = &example.um();
  uv.statement = &update_stmt;
  uv.template_index = 0;
  CachedQueryView qv;
  qv.level = ExposureLevel::kView;
  qv.tmpl = &example.qm();
  qv.statement = &query_stmt;
  qv.result = &*result;
  qv.template_index = 0;

  StatementInspectionStrategy sis(catalog(), example.plan);
  ViewInspectionStrategy vis(catalog(), example.plan);
  // MSIS must invalidate; MVIS must not (the paper's exact scenario).
  EXPECT_EQ(sis.Decide(uv, qv), Decision::kInvalidate);
  EXPECT_EQ(vis.Decide(uv, qv), Decision::kDoNotInvalidate);
}

TEST_F(StrategiesTest, VisModificationEntryForcesInvalidation) {
  const ModificationExample example = MakeModificationExample();
  ASSERT_FALSE(HasFailure());
  // New qty 500 > 100: the modified row enters the result.
  const sql::Statement update_stmt =
      example.um().Bind({Value(500), Value(5)});
  const sql::Statement query_stmt = example.qm().Bind({Value(100)});
  const auto result = db_->ExecuteQuery(query_stmt);
  ASSERT_TRUE(result.ok());

  UpdateView uv{ExposureLevel::kStmt, &example.um(), &update_stmt, 0};
  CachedQueryView qv{ExposureLevel::kView, &example.qm(), &query_stmt,
                     &*result, 0};
  ViewInspectionStrategy vis(catalog(), example.plan);
  EXPECT_EQ(vis.Decide(uv, qv), Decision::kInvalidate);
}

TEST_F(StrategiesTest, VisFallsBackWhenPredicateAttrsNotPreserved) {
  // Q2 preserves only qty; a deletion keyed on toy_id cannot be checked
  // against the view, so VIS falls back to the statement decision.
  ViewInspectionStrategy vis(catalog(), plan());
  const UpdateView u = MakeUpdate("U1", {Value(5)});
  EXPECT_EQ(vis.Decide(u, MakeQuery("Q2", {Value(5)})),
            Decision::kInvalidate);
  EXPECT_EQ(vis.Decide(u, MakeQuery("Q2", {Value(7)})),
            Decision::kDoNotInvalidate);  // Statement-level independence.
}

// ----- Gated information: strategies never peek beyond the exposure. -----

TEST_F(StrategiesTest, StrategiesInvalidateWhenInformationHidden) {
  TemplateInspectionStrategy tis(plan());
  StatementInspectionStrategy sis(catalog(), plan());
  // Blind update: even TIS must invalidate everything.
  const UpdateView blind_update =
      MakeUpdate("U1", {Value(5)}, ExposureLevel::kBlind);
  EXPECT_EQ(tis.Decide(blind_update, MakeQuery("Q3", {Value(10001)},
                                               ExposureLevel::kTemplate)),
            Decision::kInvalidate);
  // Blind query entry: must be invalidated by any update.
  const UpdateView u = MakeUpdate("U1", {Value(5)});
  EXPECT_EQ(sis.Decide(u, MakeQuery("Q3", {Value(10001)},
                                    ExposureLevel::kBlind)),
            Decision::kInvalidate);
  // Template-level update: SIS has no parameters, cannot prove independence
  // for same-template pairs.
  const UpdateView template_update =
      MakeUpdate("U1", {Value(5)}, ExposureLevel::kTemplate);
  EXPECT_EQ(sis.Decide(template_update,
                       MakeQuery("Q2", {Value(7)}, ExposureLevel::kStmt)),
            Decision::kInvalidate);
}

// A view whose template is exposed but carries no TemplateSet index has no
// compiled pair to consult: every plan-backed strategy invalidates it, even
// for a pair the plan spares.
TEST_F(StrategiesTest, MissingTemplateIndexInvalidates) {
  TemplateInspectionStrategy tis(plan());
  StatementInspectionStrategy sis(catalog(), plan());
  ViewInspectionStrategy vis(catalog(), plan());
  MixedStrategy mixed(catalog(), plan());
  const InvalidationStrategy* const strategies[] = {&tis, &sis, &vis, &mixed};

  for (const ExposureLevel update_level :
       {ExposureLevel::kTemplate, ExposureLevel::kStmt}) {
    for (const ExposureLevel query_level :
         {ExposureLevel::kTemplate, ExposureLevel::kStmt,
          ExposureLevel::kView}) {
      // U1 is ignorable for Q3 (Table 2): with both indices, spared.
      const UpdateView u = MakeUpdate("U1", {Value(5)}, update_level);
      const CachedQueryView q = MakeQuery("Q3", {Value(10001)}, query_level);
      UpdateView u_unindexed = u;
      u_unindexed.template_index = kNoTemplateIndex;
      CachedQueryView q_unindexed = q;
      q_unindexed.template_index = kNoTemplateIndex;
      for (const InvalidationStrategy* strategy : strategies) {
        const std::string where =
            std::string(strategy->name()) + " at (" +
            analysis::ExposureLevelName(update_level) + ", " +
            analysis::ExposureLevelName(query_level) + ")";
        EXPECT_EQ(strategy->Decide(u, q), Decision::kDoNotInvalidate)
            << where;
        EXPECT_EQ(strategy->Decide(u_unindexed, q), Decision::kInvalidate)
            << where << ", update unindexed";
        EXPECT_EQ(strategy->Decide(u, q_unindexed), Decision::kInvalidate)
            << where << ", query unindexed";
        EXPECT_EQ(strategy->Decide(u_unindexed, q_unindexed),
                  Decision::kInvalidate)
            << where << ", both unindexed";
      }
    }
  }
}

// ----- MixedStrategy dispatch (Figure 6 shaded cells). -----

TEST_F(StrategiesTest, MixedDispatchesByExposure) {
  MixedStrategy mixed(catalog(), plan());
  // (stmt, stmt) -> SIS: independent instance spared.
  EXPECT_EQ(mixed.Decide(MakeUpdate("U1", {Value(5)}),
                         MakeQuery("Q2", {Value(7)}, ExposureLevel::kStmt)),
            Decision::kDoNotInvalidate);
  // (stmt, template) -> TIS: same pair now invalidated.
  EXPECT_EQ(
      mixed.Decide(MakeUpdate("U1", {Value(5)}),
                   MakeQuery("Q2", {Value(7)}, ExposureLevel::kTemplate)),
      Decision::kInvalidate);
  // (blind, view) -> blind.
  EXPECT_EQ(mixed.Decide(MakeUpdate("U1", {Value(5)}, ExposureLevel::kBlind),
                         MakeQuery("Q3", {Value(10001)})),
            Decision::kInvalidate);
  // (stmt, view) -> VIS.
  EXPECT_EQ(mixed.Decide(MakeUpdate("U1", {Value(5)}),
                         MakeQuery("Q1", {Value("toy3")})),
            Decision::kDoNotInvalidate);
}

TEST_F(StrategiesTest, StrategyNames) {
  EXPECT_EQ(BlindStrategy().name(), "MBS");
  EXPECT_EQ(TemplateInspectionStrategy(plan()).name(), "MTIS");
  EXPECT_EQ(StatementInspectionStrategy(catalog(), plan()).name(), "MSIS");
  EXPECT_EQ(ViewInspectionStrategy(catalog(), plan()).name(), "MVIS");
  EXPECT_EQ(MixedStrategy(catalog(), plan()).name(), "mixed");
}

}  // namespace
}  // namespace dssp::invalidation
