// Differential verification of the ahead-of-time invalidation-plan compiler
// (analysis/plan.h) against the per-call re-derivation of Section 4
// (RederiveOracle, rederive_oracle.h):
//
//  1. On every (update, query) template pair of all four paper workloads,
//     the plan-backed MTIS and MSIS decisions must be bit-identical to the
//     re-derived ones for randomized parameter bindings (>= 100k bound
//     statement pairs together with the random-template part).
//  2. On randomly generated templates over a synthetic PK/FK schema, same.
//  3. Against the brute-force database oracle: whenever the compiled path
//     answers "do not invalidate", actually applying the update must leave
//     the query result unchanged.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/plan.h"
#include "catalog/schema.h"
#include "common/random.h"
#include "crypto/keyring.h"
#include "dssp/app.h"
#include "dssp/node.h"
#include "engine/database.h"
#include "invalidation/independence.h"
#include "invalidation/strategies.h"
#include "rederive_oracle.h"
#include "sql/ast.h"
#include "workloads/application.h"
#include "workloads/toystore.h"

namespace dssp::analysis {
namespace {

using invalidation::CachedQueryView;
using invalidation::Decision;
using invalidation::RederiveOracle;
using invalidation::StatementInspectionStrategy;
using invalidation::TemplateInspectionStrategy;
using invalidation::UpdateView;
using templates::QueryTemplate;
using templates::UpdateTemplate;

// ----- Random parameter binding. -----

// Infers each parameter's column type by walking the template statement
// against the catalog: a parameter compared with (or assigned to) a column
// gets that column's type; LIMIT parameters and unresolvable ones get int64.
std::vector<catalog::ColumnType> ParamTypes(const sql::Statement& stmt,
                                            const catalog::Catalog& catalog) {
  std::vector<catalog::ColumnType> types(
      static_cast<size_t>(stmt.num_params), catalog::ColumnType::kInt64);
  const auto note = [&](const sql::Operand& param, const std::string& table,
                        const std::string& column) {
    if (!sql::IsParameter(param)) return;
    const size_t index =
        static_cast<size_t>(std::get<sql::Parameter>(param).index);
    if (index >= types.size()) return;
    const catalog::TableSchema* schema = catalog.FindTable(table);
    if (schema == nullptr) return;
    const auto col = schema->ColumnIndex(column);
    if (col.has_value()) types[index] = schema->columns()[*col].type;
  };
  const auto note_where = [&](const std::vector<sql::Comparison>& where,
                              const std::vector<sql::TableRef>& from) {
    for (const sql::Comparison& cmp : where) {
      for (int side = 0; side < 2; ++side) {
        const sql::Operand& a = side == 0 ? cmp.lhs : cmp.rhs;
        const sql::Operand& b = side == 0 ? cmp.rhs : cmp.lhs;
        if (!sql::IsColumn(a)) continue;
        const std::string& column = std::get<sql::ColumnRef>(a).column;
        for (const sql::TableRef& ref : from) note(b, ref.table, column);
      }
    }
  };
  switch (stmt.kind()) {
    case sql::StatementKind::kSelect:
      note_where(stmt.select().where, stmt.select().from);
      break;
    case sql::StatementKind::kInsert: {
      const sql::InsertStatement& insert = stmt.insert();
      for (size_t i = 0;
           i < insert.columns.size() && i < insert.values.size(); ++i) {
        note(insert.values[i], insert.table, insert.columns[i]);
      }
      break;
    }
    case sql::StatementKind::kDelete:
      note_where(stmt.del().where, {{stmt.del().table, ""}});
      break;
    case sql::StatementKind::kUpdate: {
      const sql::UpdateStatement& mod = stmt.update();
      for (const auto& [column, operand] : mod.set) {
        note(operand, mod.table, column);
      }
      note_where(mod.where, {{mod.table, ""}});
      break;
    }
  }
  return types;
}

// Values are drawn from deliberately small domains so that equalities
// collide, intervals overlap and go empty, and the compiled programs see
// both outcomes of every test. `with_nulls` additionally mixes in NULLs
// (exercising the solver's NULL-excludes-row rules).
sql::Value RandomValue(Rng& rng, catalog::ColumnType type, bool with_nulls) {
  if (with_nulls && rng.NextBool(0.05)) return sql::Value();
  switch (type) {
    case catalog::ColumnType::kInt64:
      return sql::Value(rng.NextInt(-4, 14));
    case catalog::ColumnType::kDouble:
      return sql::Value(static_cast<double>(rng.NextInt(-4, 14)) +
                        (rng.NextBool(0.5) ? 0.5 : 0.0));
    case catalog::ColumnType::kString: {
      static constexpr const char* kPool[] = {"a", "b", "c", "m", "z"};
      return sql::Value(kPool[rng.NextBelow(5)]);
    }
  }
  return sql::Value(int64_t{0});
}

std::vector<sql::Value> RandomParams(
    Rng& rng, const std::vector<catalog::ColumnType>& types,
    bool with_nulls) {
  std::vector<sql::Value> params;
  params.reserve(types.size());
  for (const catalog::ColumnType type : types) {
    params.push_back(RandomValue(rng, type, with_nulls));
  }
  return params;
}

// ----- The differential check proper. -----

// Resolves a compiled statement-level decision to a concrete
// independent/invalidate answer the same way StatementInspectionStrategy
// does (kRunSolver falls back to the general solver).
bool PlanSaysIndependent(const PairPlan& plan, const UpdateTemplate& u,
                         const sql::Statement& us, const QueryTemplate& q,
                         const sql::Statement& qs,
                         const catalog::Catalog& catalog) {
  if (plan.kind == PlanKind::kNeverInvalidate) return true;
  switch (EvaluatePairPlan(plan, us, qs)) {
    case StmtDecision::kIndependent:
      return true;
    case StmtDecision::kInvalidate:
      return false;
    case StmtDecision::kRunSolver:
      return invalidation::ProvablyIndependent(u, us, q, qs, catalog);
  }
  return false;
}

// One bound statement pair: general solver vs compiled plan, plus the
// plan-backed MSIS against the re-derivation oracle at stmt/stmt exposure.
// Returns the number of compared statement pairs (1).
size_t CheckOnePair(const PairPlan& pair_plan, const UpdateTemplate& u,
                    size_t u_index, const sql::Statement& us,
                    const QueryTemplate& q, size_t q_index,
                    const sql::Statement& qs,
                    const catalog::Catalog& catalog,
                    const RederiveOracle& oracle,
                    const StatementInspectionStrategy& plan_sis) {
  const bool solver =
      invalidation::ProvablyIndependent(u, us, q, qs, catalog);
  const bool compiled =
      PlanSaysIndependent(pair_plan, u, us, q, qs, catalog);
  EXPECT_EQ(solver, compiled)
      << "pair (" << u.id() << ", " << q.id() << ") kind "
      << PlanKindName(pair_plan.kind) << " [" << pair_plan.rationale
      << "]\n  update: " << sql::ToSql(us) << "\n  query:  " << sql::ToSql(qs);

  // The oracle ignores template_index, so one pair of views serves both.
  const UpdateView uv{analysis::ExposureLevel::kStmt, &u, &us, u_index};
  const CachedQueryView qv{analysis::ExposureLevel::kStmt, &q, &qs, nullptr,
                           q_index};
  EXPECT_EQ(oracle.StatementLevel(uv, qv), plan_sis.Decide(uv, qv))
      << "MSIS mismatch on (" << u.id() << ", " << q.id() << ")";
  return 1;
}

// Template-level check: plan-backed MTIS vs the oracle for one pair.
void CheckTemplateLevel(const UpdateTemplate& u, size_t u_index,
                        const QueryTemplate& q, size_t q_index,
                        const RederiveOracle& oracle,
                        const TemplateInspectionStrategy& plan_tis) {
  const UpdateView uv{analysis::ExposureLevel::kTemplate, &u, nullptr,
                      u_index};
  const CachedQueryView qv{analysis::ExposureLevel::kTemplate, &q, nullptr,
                           nullptr, q_index};
  EXPECT_EQ(oracle.TemplateLevel(uv, qv), plan_tis.Decide(uv, qv))
      << "MTIS mismatch on (" << u.id() << ", " << q.id() << ")";
}

// Shared across both TESTs below so the 100k-pair floor applies to the
// whole differential surface, as the acceptance criteria phrase it.
size_t g_compared_pairs = 0;

TEST(PlanDifferentialTest, WorkloadsBitIdenticalToLegacy) {
  Rng rng(20260805);
  for (const std::string app_name :
       {"toystore", "auction", "bboard", "bookstore"}) {
    service::DsspNode node;
    service::ScalableApp app(app_name, &node,
                             crypto::KeyRing::FromPassphrase("differential"));
    auto workload = workloads::MakeApplication(app_name);
    ASSERT_TRUE(workload->Setup(app, 0.25, 41).ok());
    ASSERT_TRUE(app.Finalize().ok());

    const templates::TemplateSet& templates = app.templates();
    const catalog::Catalog& catalog = app.home().database().catalog();
    const InvalidationPlan plan = InvalidationPlan::Compile(templates, catalog);
    ASSERT_EQ(plan.num_updates(), templates.num_updates());
    ASSERT_EQ(plan.num_queries(), templates.num_queries());
    // No paper-workload template may defeat the compiler.
    EXPECT_EQ(plan.Summarize().solver_fallback, 0u) << app_name;

    const RederiveOracle oracle(catalog);
    const TemplateInspectionStrategy plan_tis(plan);
    const StatementInspectionStrategy plan_sis(catalog, plan);

    // Cache per-template parameter types and a pool of bindings.
    std::vector<std::vector<catalog::ColumnType>> qtypes, utypes;
    for (const QueryTemplate& q : templates.queries()) {
      qtypes.push_back(ParamTypes(q.statement(), catalog));
    }
    for (const UpdateTemplate& u : templates.updates()) {
      utypes.push_back(ParamTypes(u.statement(), catalog));
    }

    constexpr int kBindingsPerPair = 60;
    for (size_t ui = 0; ui < templates.num_updates(); ++ui) {
      const UpdateTemplate& u = templates.updates()[ui];
      for (size_t qi = 0; qi < templates.num_queries(); ++qi) {
        const QueryTemplate& q = templates.queries()[qi];
        CheckTemplateLevel(u, ui, q, qi, oracle, plan_tis);
        const PairPlan& pair_plan = plan.pair(ui, qi);
        for (int i = 0; i < kBindingsPerPair; ++i) {
          const sql::Statement us =
              u.Bind(RandomParams(rng, utypes[ui], /*with_nulls=*/true));
          const sql::Statement qs =
              q.Bind(RandomParams(rng, qtypes[qi], /*with_nulls=*/true));
          g_compared_pairs += CheckOnePair(pair_plan, u, ui, us, q, qi, qs,
                                          catalog, oracle, plan_sis);
        }
      }
    }

    // A plan compiled without the Section 4.5 PK/FK rules must match the
    // re-derivation without them, at template and at statement level.
    InvalidationPlan::Options no_ic;
    no_ic.use_integrity_constraints = false;
    const InvalidationPlan plan_no_ic =
        InvalidationPlan::Compile(templates, catalog, no_ic);
    const RederiveOracle oracle_no_ic(catalog,
                                      /*use_integrity_constraints=*/false);
    const TemplateInspectionStrategy tis_no_ic(plan_no_ic);
    const StatementInspectionStrategy sis_no_ic(catalog, plan_no_ic);
    Rng no_ic_rng(20260806);
    constexpr int kNoIcBindingsPerPair = 10;
    for (size_t ui = 0; ui < templates.num_updates(); ++ui) {
      const UpdateTemplate& u = templates.updates()[ui];
      for (size_t qi = 0; qi < templates.num_queries(); ++qi) {
        const QueryTemplate& q = templates.queries()[qi];
        CheckTemplateLevel(u, ui, q, qi, oracle_no_ic, tis_no_ic);
        for (int i = 0; i < kNoIcBindingsPerPair; ++i) {
          const sql::Statement us = u.Bind(
              RandomParams(no_ic_rng, utypes[ui], /*with_nulls=*/true));
          const sql::Statement qs = q.Bind(
              RandomParams(no_ic_rng, qtypes[qi], /*with_nulls=*/true));
          const UpdateView uv{analysis::ExposureLevel::kStmt, &u, &us, ui};
          const CachedQueryView qv{analysis::ExposureLevel::kStmt, &q, &qs,
                                   nullptr, qi};
          EXPECT_EQ(oracle_no_ic.StatementLevel(uv, qv),
                    sis_no_ic.Decide(uv, qv))
              << "MSIS (no integrity constraints) mismatch on (" << u.id()
              << ", " << q.id() << ")\n  update: " << sql::ToSql(us)
              << "\n  query:  " << sql::ToSql(qs);
        }
      }
    }
  }
}

// ----- Brute-force database oracle (soundness of compiled DNIs). -----

TEST(PlanDifferentialTest, CompiledDniNeverChangesResults) {
  auto bundle = workloads::MakeToystore();
  ASSERT_TRUE(bundle.ok());
  engine::Database& db = *bundle->db;
  const templates::TemplateSet& templates = bundle->templates;
  const catalog::Catalog& catalog = db.catalog();
  const InvalidationPlan plan = InvalidationPlan::Compile(templates, catalog);

  std::vector<std::vector<catalog::ColumnType>> qtypes, utypes;
  for (const QueryTemplate& q : templates.queries()) {
    qtypes.push_back(ParamTypes(q.statement(), catalog));
  }
  for (const UpdateTemplate& u : templates.updates()) {
    utypes.push_back(ParamTypes(u.statement(), catalog));
  }

  Rng rng(7);
  size_t oracle_checks = 0;
  for (int round = 0; round < 400; ++round) {
    const size_t ui = rng.NextBelow(templates.num_updates());
    const UpdateTemplate& u = templates.updates()[ui];
    // Oracle bindings avoid NULLs: the engine's constraint checks reject
    // NULL keys, which would just skip the round.
    const sql::Statement us =
        u.Bind(RandomParams(rng, utypes[ui], /*with_nulls=*/false));

    struct Probe {
      size_t qi;
      sql::Statement qs;
      engine::QueryResult before;
      bool independent;
    };
    std::vector<Probe> probes;
    for (size_t qi = 0; qi < templates.num_queries(); ++qi) {
      const QueryTemplate& q = templates.queries()[qi];
      sql::Statement qs =
          q.Bind(RandomParams(rng, qtypes[qi], /*with_nulls=*/false));
      auto before = db.ExecuteQuery(qs);
      ASSERT_TRUE(before.ok());
      const bool independent = PlanSaysIndependent(
          plan.pair(ui, qi), u, us, templates.queries()[qi], qs, catalog);
      probes.push_back(Probe{qi, std::move(qs), std::move(*before),
                             independent});
    }

    // Apply the update for real; constraint rejections (duplicate PK,
    // missing FK target) leave the database unchanged, so the probes still
    // hold trivially and the round stays valid.
    (void)db.ExecuteUpdate(us);

    for (const Probe& probe : probes) {
      auto after = db.ExecuteQuery(probe.qs);
      ASSERT_TRUE(after.ok());
      if (probe.independent) {
        EXPECT_TRUE(probe.before.SameResult(*after))
            << "unsound DNI: (" << u.id() << ", "
            << templates.queries()[probe.qi].id()
            << ")\n  update: " << sql::ToSql(us)
            << "\n  query:  " << sql::ToSql(probe.qs);
        ++oracle_checks;
      }
    }
  }
  EXPECT_GT(oracle_checks, 100u);
}

// ----- Randomly generated templates over a synthetic PK/FK schema. -----

catalog::Catalog SyntheticCatalog() {
  catalog::Catalog catalog;
  DSSP_CHECK(catalog
                 .AddTable(catalog::TableSchema(
                     "t1",
                     {{"a", catalog::ColumnType::kInt64},
                      {"b", catalog::ColumnType::kInt64},
                      {"c", catalog::ColumnType::kString}},
                     {"a"}))
                 .ok());
  DSSP_CHECK(catalog
                 .AddTable(catalog::TableSchema(
                     "t2",
                     {{"x", catalog::ColumnType::kInt64},
                      {"r", catalog::ColumnType::kInt64},
                      {"y", catalog::ColumnType::kInt64}},
                     {"x"}, {{"r", "t1", "a"}}))
                 .ok());
  return catalog;
}

struct RandomColumn {
  const char* table;
  const char* name;
  catalog::ColumnType type;
};

constexpr RandomColumn kColumns[] = {
    {"t1", "a", catalog::ColumnType::kInt64},
    {"t1", "b", catalog::ColumnType::kInt64},
    {"t1", "c", catalog::ColumnType::kString},
    {"t2", "x", catalog::ColumnType::kInt64},
    {"t2", "r", catalog::ColumnType::kInt64},
    {"t2", "y", catalog::ColumnType::kInt64},
};

std::string RandomLiteral(Rng& rng, catalog::ColumnType type) {
  if (type == catalog::ColumnType::kString) {
    static constexpr const char* kPool[] = {"'a'", "'b'", "'m'"};
    return kPool[rng.NextBelow(3)];
  }
  return std::to_string(rng.NextInt(-3, 12));
}

std::string RandomOperandSql(Rng& rng, catalog::ColumnType type) {
  return rng.NextBool(0.6) ? "?" : RandomLiteral(rng, type);
}

constexpr const char* kOps[] = {"=", "<", ">", "<=", ">="};

// 0-3 random unary conjuncts over `table`'s columns.
std::string RandomConjuncts(Rng& rng, const std::string& table,
                            bool lead_with_and) {
  std::string sql;
  const int n = static_cast<int>(rng.NextBelow(4));
  bool first = !lead_with_and;
  for (int i = 0; i < n; ++i) {
    const RandomColumn& col = kColumns[rng.NextBelow(6)];
    if (table != col.table) continue;
    sql += first ? "" : " AND ";
    first = false;
    sql += std::string(col.name) + " " + kOps[rng.NextBelow(5)] + " " +
           RandomOperandSql(rng, col.type);
  }
  return sql;
}

std::string RandomQuerySql(Rng& rng) {
  const bool join = rng.NextBool(0.35);
  std::string sql = "SELECT ";
  if (join) {
    sql += "b, y FROM t1, t2 WHERE r = a";
    sql += RandomConjuncts(rng, "t1", /*lead_with_and=*/true);
    sql += RandomConjuncts(rng, "t2", /*lead_with_and=*/true);
  } else {
    const std::string table = rng.NextBool(0.5) ? "t1" : "t2";
    sql += (table == "t1" ? "a, b, c" : "x, r, y");
    sql += " FROM " + table;
    const std::string where =
        RandomConjuncts(rng, table, /*lead_with_and=*/false);
    if (!where.empty()) sql += " WHERE " + where;
  }
  return sql;
}

std::string RandomUpdateSql(Rng& rng) {
  const std::string table = rng.NextBool(0.5) ? "t1" : "t2";
  switch (rng.NextBelow(3)) {
    case 0:  // Insertion.
      if (table == "t1") {
        return "INSERT INTO t1 (a, b, c) VALUES (?, " +
               RandomOperandSql(rng, catalog::ColumnType::kInt64) + ", " +
               RandomOperandSql(rng, catalog::ColumnType::kString) + ")";
      }
      return "INSERT INTO t2 (x, r, y) VALUES (?, ?, " +
             RandomOperandSql(rng, catalog::ColumnType::kInt64) + ")";
    case 1: {  // Deletion.
      std::string sql = "DELETE FROM " + table;
      const std::string where =
          RandomConjuncts(rng, table, /*lead_with_and=*/false);
      if (!where.empty()) sql += " WHERE " + where;
      return sql;
    }
    default: {  // Modification.
      std::string sql = "UPDATE " + table + " SET ";
      if (table == "t1") {
        sql += "b = " + RandomOperandSql(rng, catalog::ColumnType::kInt64);
        if (rng.NextBool(0.4)) {
          sql +=
              ", c = " + RandomOperandSql(rng, catalog::ColumnType::kString);
        }
      } else {
        sql += "y = " + RandomOperandSql(rng, catalog::ColumnType::kInt64);
        if (rng.NextBool(0.4)) {
          sql += ", r = " + RandomOperandSql(rng, catalog::ColumnType::kInt64);
        }
      }
      const std::string where =
          RandomConjuncts(rng, table, /*lead_with_and=*/false);
      if (!where.empty()) sql += " WHERE " + where;
      return sql;
    }
  }
}

TEST(PlanDifferentialTest, RandomTemplatesBitIdenticalToLegacy) {
  const catalog::Catalog catalog = SyntheticCatalog();
  Rng rng(424242);
  size_t kinds[5] = {0, 0, 0, 0, 0};

  // Keep generating template pairs until the whole differential surface
  // (workload part + this one) has crossed the 100k bound-pair floor.
  int generated = 0;
  while (g_compared_pairs < 100000 || generated < 300) {
    ASSERT_LT(generated, 20000) << "randomized part failed to converge";
    auto q = QueryTemplate::Create("q", RandomQuerySql(rng), catalog);
    auto u = UpdateTemplate::Create("u", RandomUpdateSql(rng), catalog);
    if (!q.ok() || !u.ok()) continue;
    ++generated;

    const PairPlan pair_plan = CompilePairPlan(*u, *q, catalog);
    ++kinds[static_cast<size_t>(pair_plan.kind)];

    const std::vector<catalog::ColumnType> ut =
        ParamTypes(u->statement(), catalog);
    const std::vector<catalog::ColumnType> qt =
        ParamTypes(q->statement(), catalog);
    for (int i = 0; i < 40; ++i) {
      const sql::Statement us =
          u->Bind(RandomParams(rng, ut, /*with_nulls=*/true));
      const sql::Statement qs =
          q->Bind(RandomParams(rng, qt, /*with_nulls=*/true));
      const bool solver =
          invalidation::ProvablyIndependent(*u, us, *q, qs, catalog);
      const bool compiled =
          PlanSaysIndependent(pair_plan, *u, us, *q, qs, catalog);
      EXPECT_EQ(solver, compiled)
          << "kind " << PlanKindName(pair_plan.kind) << " ["
          << pair_plan.rationale << "]\n  update tmpl: " << u->ToSql()
          << "\n  query tmpl:  " << q->ToSql()
          << "\n  update: " << sql::ToSql(us)
          << "\n  query:  " << sql::ToSql(qs);
      ++g_compared_pairs;
      if (::testing::Test::HasFailure()) return;  // Don't spam mismatches.
    }
  }
  EXPECT_GE(g_compared_pairs, 100000u);
  // The generator must exercise every compiled outcome (fallback excepted:
  // these shapes all compile).
  EXPECT_GT(kinds[static_cast<size_t>(PlanKind::kNeverInvalidate)], 0u);
  EXPECT_GT(kinds[static_cast<size_t>(PlanKind::kAlwaysInvalidate)], 0u);
  EXPECT_GT(kinds[static_cast<size_t>(PlanKind::kParamProgram)], 0u);
  EXPECT_GT(kinds[static_cast<size_t>(PlanKind::kViewTest)], 0u);
}

}  // namespace
}  // namespace dssp::analysis
