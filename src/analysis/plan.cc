#include "analysis/plan.h"

#include <map>
#include <optional>
#include <utility>

#include "analysis/ipm.h"
#include "analysis/query_slots.h"
#include "analysis/satisfiability.h"
#include "common/macros.h"
#include "engine/eval.h"

namespace dssp::analysis {

namespace {

using templates::QueryTemplate;
using templates::UpdateClass;
using templates::UpdateTemplate;
using Source = ValueRef::Source;

// Mirrors the row-exclusion semantics the statement-level solver applies to
// inserted and newly assigned values (independence.cc): NULL on either side
// excludes the row (no comparison is true against NULL), incomparable types
// exclude it (the value cannot equal a differently-typed constant), and
// otherwise the comparison itself decides.
bool TestExcludes(const sql::Value& v, sql::CompareOp op,
                  const sql::Value& c) {
  if (v.is_null() || c.is_null()) return true;
  const bool comparable =
      (v.is_numeric() && c.is_numeric()) ||
      (v.type() == sql::ValueType::kString &&
       c.type() == sql::ValueType::kString);
  if (!comparable) return true;
  return !engine::CompareValues(v, op, c);
}

// A compile-time constraint: the runtime ColumnConstraint with its value
// still symbolic (template literal or parameter coordinate).
struct ConstraintTemplate {
  std::string column;
  sql::CompareOp op;
  ValueRef value;
};

// Compile-time mirror of SlotConstraints (independence.cc): the unary
// constraints a bound query statement will contribute for FROM slot `slot`,
// with parameters left as coordinates. Binding only substitutes Parameter
// operands with literals, so the set of conjuncts this extracts is exactly
// the set the solver extracts from any binding.
std::vector<ConstraintTemplate> CompileSlotConstraints(
    const sql::SelectStatement& stmt, const QuerySlots& slots, size_t slot,
    const catalog::Catalog& catalog) {
  std::vector<ConstraintTemplate> out;
  for (size_t i = 0; i < stmt.where.size(); ++i) {
    const sql::Comparison& cmp = stmt.where[i];
    for (int side = 0; side < 2; ++side) {
      const sql::Operand& a = side == 0 ? cmp.lhs : cmp.rhs;
      const sql::Operand& b = side == 0 ? cmp.rhs : cmp.lhs;
      if (!sql::IsColumn(a) ||
          (!sql::IsLiteral(b) && !sql::IsParameter(b))) {
        continue;
      }
      const auto resolved =
          slots.Resolve(std::get<sql::ColumnRef>(a), catalog);
      if (!resolved.has_value() || resolved->first != slot) continue;
      const sql::CompareOp op =
          side == 0 ? cmp.op : sql::ReverseCompareOp(cmp.op);
      ValueRef value =
          sql::IsLiteral(b)
              ? ValueRef::Const(std::get<sql::Value>(b))
              : ValueRef::At(Source::kQueryWhere, i, /*rhs=*/side == 0);
      out.push_back(ConstraintTemplate{resolved->second, op,
                                       std::move(value)});
      break;
    }
  }
  return out;
}

// Compile-time mirror of UpdatePredicateConstraints (independence.cc).
std::vector<ConstraintTemplate> CompileUpdatePredicate(
    const std::vector<sql::Comparison>& where) {
  std::vector<ConstraintTemplate> out;
  for (size_t i = 0; i < where.size(); ++i) {
    const sql::Comparison& cmp = where[i];
    for (int side = 0; side < 2; ++side) {
      const sql::Operand& a = side == 0 ? cmp.lhs : cmp.rhs;
      const sql::Operand& b = side == 0 ? cmp.rhs : cmp.lhs;
      if (!sql::IsColumn(a) ||
          (!sql::IsLiteral(b) && !sql::IsParameter(b))) {
        continue;
      }
      const sql::CompareOp op =
          side == 0 ? cmp.op : sql::ReverseCompareOp(cmp.op);
      ValueRef value =
          sql::IsLiteral(b)
              ? ValueRef::Const(std::get<sql::Value>(b))
              : ValueRef::At(Source::kUpdateWhere, i, /*rhs=*/side == 0);
      out.push_back(ConstraintTemplate{std::get<sql::ColumnRef>(a).column,
                                       op, std::move(value)});
      break;
    }
  }
  return out;
}

// True if the conjunction of the compile-time-known constraints is already
// unsatisfiable; adding the parameter-dependent ones can only shrink the
// solution set further, so UNSAT here means UNSAT for every binding.
bool ConstSubsetUnsat(const std::vector<ConstraintTemplate>& cs) {
  std::vector<ColumnConstraint> known;
  for (const ConstraintTemplate& c : cs) {
    if (c.value.is_const()) {
      known.push_back(ColumnConstraint{c.column, c.op, c.value.literal});
    }
  }
  return !UnaryConjunctionSatisfiable(known);
}

bool AllConst(const std::vector<ConstraintTemplate>& cs) {
  for (const ConstraintTemplate& c : cs) {
    if (!c.value.is_const()) return false;
  }
  return true;
}

std::vector<CompiledConstraint> Emit(std::vector<ConstraintTemplate> cs) {
  std::vector<CompiledConstraint> out;
  out.reserve(cs.size());
  for (ConstraintTemplate& c : cs) {
    out.push_back(CompiledConstraint{std::move(c.column), c.op,
                                     std::move(c.value)});
  }
  return out;
}

PairPlan Fallback(const UpdateTemplate& u, std::string reason) {
  PairPlan plan;
  plan.kind = PlanKind::kSolverFallback;
  plan.update_class = u.update_class();
  plan.rationale = "solver-fallback: " + std::move(reason);
  return plan;
}

// Maps each written column to the symbolic value assigned to it. Duplicate
// columns: last assignment wins (matching the solver's std::map overwrite).
// Returns nullopt for a shape the solver would reject (non-literal,
// non-parameter operand), which forces kSolverFallback.
std::optional<std::map<std::string, ValueRef>> AssignedValues(
    const std::vector<std::string>& columns,
    const std::vector<sql::Operand>& operands, Source source) {
  if (columns.size() != operands.size()) return std::nullopt;
  std::map<std::string, ValueRef> out;
  for (size_t i = 0; i < columns.size(); ++i) {
    const sql::Operand& op = operands[i];
    if (sql::IsLiteral(op)) {
      out[columns[i]] = ValueRef::Const(std::get<sql::Value>(op));
    } else if (sql::IsParameter(op)) {
      out[columns[i]] = ValueRef::At(source, i);
    } else {
      return std::nullopt;
    }
  }
  return out;
}

// ----- Evaluation helpers. -----

// Fetches the runtime value a ValueRef denotes. Returns nullptr when the
// bound statement's shape does not match the compiled coordinates (not a
// binding of the compiled template); callers must then invalidate.
const sql::Value* Fetch(const ValueRef& ref, const sql::Statement& update,
                        const sql::Statement& query) {
  switch (ref.source) {
    case Source::kConst:
    case Source::kQueryWhere:
      return FetchFromQuery(ref, query);
    case Source::kUpdateWhere:
    case Source::kInsertValue:
    case Source::kSetValue:
      return FetchFromUpdate(ref, update);
  }
  DSSP_UNREACHABLE("bad ValueRef source");
}

}  // namespace

const sql::Value* FetchFromQuery(const ValueRef& ref,
                                 const sql::Statement& query) {
  switch (ref.source) {
    case Source::kConst:
      return &ref.literal;
    case Source::kQueryWhere: {
      if (query.kind() != sql::StatementKind::kSelect) return nullptr;
      const std::vector<sql::Comparison>& where = query.select().where;
      if (ref.index >= where.size()) return nullptr;
      const sql::Operand& op =
          ref.rhs ? where[ref.index].rhs : where[ref.index].lhs;
      return sql::IsLiteral(op) ? &std::get<sql::Value>(op) : nullptr;
    }
    default:
      return nullptr;
  }
}

const sql::Value* FetchFromUpdate(const ValueRef& ref,
                                  const sql::Statement& update) {
  switch (ref.source) {
    case Source::kConst:
      return &ref.literal;
    case Source::kUpdateWhere: {
      const std::vector<sql::Comparison>* where = nullptr;
      if (update.kind() == sql::StatementKind::kDelete) {
        where = &update.del().where;
      } else if (update.kind() == sql::StatementKind::kUpdate) {
        where = &update.update().where;
      } else {
        return nullptr;
      }
      if (ref.index >= where->size()) return nullptr;
      const sql::Operand& op =
          ref.rhs ? (*where)[ref.index].rhs : (*where)[ref.index].lhs;
      return sql::IsLiteral(op) ? &std::get<sql::Value>(op) : nullptr;
    }
    case Source::kInsertValue: {
      if (update.kind() != sql::StatementKind::kInsert) return nullptr;
      const std::vector<sql::Operand>& values = update.insert().values;
      if (ref.index >= values.size()) return nullptr;
      return sql::IsLiteral(values[ref.index])
                 ? &std::get<sql::Value>(values[ref.index])
                 : nullptr;
    }
    case Source::kSetValue: {
      if (update.kind() != sql::StatementKind::kUpdate) return nullptr;
      const auto& set = update.update().set;
      if (ref.index >= set.size()) return nullptr;
      return sql::IsLiteral(set[ref.index].second)
                 ? &std::get<sql::Value>(set[ref.index].second)
                 : nullptr;
    }
    default:
      return nullptr;
  }
}

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kNeverInvalidate:
      return "never-invalidate";
    case PlanKind::kAlwaysInvalidate:
      return "always-invalidate";
    case PlanKind::kParamProgram:
      return "param-program";
    case PlanKind::kSolverFallback:
      return "solver-fallback";
    case PlanKind::kViewTest:
      return "view-test";
  }
  return "unknown";
}

PairPlan CompilePairPlan(const UpdateTemplate& u, const QueryTemplate& q,
                         const catalog::Catalog& catalog,
                         const InvalidationPlan::Options& options) {
  PairPlan plan;
  plan.update_class = u.update_class();

  // ----- Template level: A = 0? (Lemma 1; Section 4.5.) -----
  if (templates::IsIgnorable(u, q)) {
    plan.kind = PlanKind::kNeverInvalidate;
    plan.rationale =
        "A=0: ignorable (G), M(U) disjoint from P(Q) u S(Q)";
    return plan;
  }
  if (options.use_integrity_constraints &&
      InsertionIrrelevantByConstraints(u, q, catalog)) {
    plan.kind = PlanKind::kNeverInvalidate;
    plan.rationale =
        "A=0: insertion irrelevant by PK/FK integrity constraints (4.5)";
    return plan;
  }

  // ----- Statement level: compile the per-binding independence test. -----
  const QuerySlots slots(q.statement().select());
  const std::string& target = u.table();
  std::string detail;  // Why the statement level cannot refine, if so.
  bool always_invalidate = false;
  size_t folded_slots = 0;

  switch (u.update_class()) {
    case UpdateClass::kInsertion: {
      const sql::InsertStatement& insert = u.statement().insert();
      const auto values = AssignedValues(insert.columns, insert.values,
                                         Source::kInsertValue);
      if (!values.has_value()) {
        return Fallback(u, "unmirrorable INSERT value list");
      }
      for (size_t s = 0;
           s < slots.physical.size() && !always_invalidate; ++s) {
        if (slots.physical[s] != target) continue;
        const std::vector<ConstraintTemplate> slot_cs =
            CompileSlotConstraints(q.statement().select(), slots, s, catalog);
        CompiledInsertCheck check;
        bool always_excluded = false;
        for (const ConstraintTemplate& c : slot_cs) {
          const auto it = values->find(c.column);
          if (it == values->end()) continue;  // Never the violating test.
          if (it->second.is_const() && c.value.is_const()) {
            if (TestExcludes(it->second.literal, c.op, c.value.literal)) {
              always_excluded = true;  // Row excluded for every binding.
              break;
            }
            continue;  // Test passes for every binding: contributes nothing.
          }
          check.tests.push_back(
              CompiledValueTest{it->second, c.op, c.value});
        }
        if (always_excluded) {
          ++folded_slots;
          continue;
        }
        if (check.tests.empty()) {
          // No test can ever exclude the inserted row from this slot.
          always_invalidate = true;
          detail = "slot " + std::to_string(s) + " over " + target +
                   " admits the inserted row for every binding";
          break;
        }
        plan.program.insert_checks.push_back(std::move(check));
      }
      break;
    }
    case UpdateClass::kDeletion:
    case UpdateClass::kModification: {
      const bool is_mod = u.update_class() == UpdateClass::kModification;
      const std::vector<sql::Comparison>& where =
          is_mod ? u.statement().update().where : u.statement().del().where;
      const std::vector<ConstraintTemplate> pred =
          CompileUpdatePredicate(where);

      // "No touched row is currently relevant" (both classes).
      for (size_t s = 0;
           s < slots.physical.size() && !always_invalidate; ++s) {
        if (slots.physical[s] != target) continue;
        std::vector<ConstraintTemplate> combined =
            CompileSlotConstraints(q.statement().select(), slots, s, catalog);
        combined.insert(combined.end(), pred.begin(), pred.end());
        if (ConstSubsetUnsat(combined)) {
          ++folded_slots;  // UNSAT for every binding: never blocks.
          continue;
        }
        if (AllConst(combined)) {
          always_invalidate = true;  // SAT for every binding.
          detail = "slot " + std::to_string(s) + " over " + target +
                   ": touched rows stay relevant for every binding";
          break;
        }
        plan.program.sat_checks.push_back(
            CompiledSatCheck{Emit(std::move(combined))});
      }

      // "No touched row may newly enter" (modifications only).
      if (is_mod && !always_invalidate) {
        const sql::UpdateStatement& mod = u.statement().update();
        std::vector<std::string> set_columns;
        std::vector<sql::Operand> set_operands;
        set_columns.reserve(mod.set.size());
        set_operands.reserve(mod.set.size());
        for (const auto& [col, operand] : mod.set) {
          set_columns.push_back(col);
          set_operands.push_back(operand);
        }
        const auto set_values =
            AssignedValues(set_columns, set_operands, Source::kSetValue);
        if (!set_values.has_value()) {
          return Fallback(u, "unmirrorable SET list");
        }
        for (size_t s = 0;
             s < slots.physical.size() && !always_invalidate; ++s) {
          if (slots.physical[s] != target) continue;
          const std::vector<ConstraintTemplate> slot_cs =
              CompileSlotConstraints(q.statement().select(), slots, s,
                                     catalog);
          CompiledEntryCheck check;
          std::vector<ConstraintTemplate> residual;
          bool always_excluded = false;
          for (const ConstraintTemplate& c : slot_cs) {
            const auto it = set_values->find(c.column);
            if (it == set_values->end()) {
              residual.push_back(c);
              continue;
            }
            if (it->second.is_const() && c.value.is_const()) {
              if (TestExcludes(it->second.literal, c.op, c.value.literal)) {
                always_excluded = true;  // Post-state excluded, any binding.
                break;
              }
              continue;  // Passes for every binding.
            }
            check.set_tests.push_back(
                CompiledValueTest{it->second, c.op, c.value});
          }
          if (always_excluded) {
            ++folded_slots;
            continue;
          }
          for (const ConstraintTemplate& c : pred) {
            if (set_values->count(c.column) == 0) residual.push_back(c);
          }
          if (ConstSubsetUnsat(residual)) {
            ++folded_slots;  // Residual UNSAT for every binding.
            continue;
          }
          if (check.set_tests.empty() && AllConst(residual)) {
            always_invalidate = true;  // Rows can enter for every binding.
            detail = "slot " + std::to_string(s) + " over " + target +
                     ": modified rows can enter the result for every binding";
            break;
          }
          check.residual = Emit(std::move(residual));
          plan.program.entry_checks.push_back(std::move(check));
        }
      }
      break;
    }
  }

  if (always_invalidate) {
    // Insertions: view inspection coincides with statement inspection
    // (Section 4.4 / documented MVIS deviation), so nothing below template
    // level can refine. Deletions/modifications: the cached result can
    // still prove the touched rows absent, so the C cell runs the view
    // test.
    plan.program = ParamProgram{};
    if (u.update_class() == UpdateClass::kInsertion) {
      plan.kind = PlanKind::kAlwaysInvalidate;
      plan.rationale = "B=A for every binding: " + detail;
    } else {
      plan.kind = PlanKind::kViewTest;
      plan.rationale = "B=A for every binding: " + detail +
                       "; only view inspection can refine (C cell)";
    }
    return plan;
  }

  plan.kind = PlanKind::kParamProgram;
  size_t tests = 0;
  for (const CompiledInsertCheck& c : plan.program.insert_checks) {
    tests += c.tests.size();
  }
  for (const CompiledSatCheck& c : plan.program.sat_checks) {
    tests += c.constraints.size();
  }
  for (const CompiledEntryCheck& c : plan.program.entry_checks) {
    tests += c.set_tests.size() + c.residual.size();
  }
  plan.rationale = "param-program: " +
                   std::to_string(plan.program.num_checks()) +
                   " slot checks, " + std::to_string(tests) +
                   " compiled tests";
  if (folded_slots > 0) {
    plan.rationale +=
        ", " + std::to_string(folded_slots) + " slots constant-folded";
  }
  if (plan.program.num_checks() == 0) {
    plan.rationale += " (independent for every binding)";
  }
  return plan;
}

StmtDecision EvaluatePairPlan(const PairPlan& plan,
                              const sql::Statement& update,
                              const sql::Statement& query) {
  switch (plan.kind) {
    case PlanKind::kNeverInvalidate:
      return StmtDecision::kIndependent;
    case PlanKind::kAlwaysInvalidate:
    case PlanKind::kViewTest:
      return StmtDecision::kInvalidate;
    case PlanKind::kSolverFallback:
      return StmtDecision::kRunSolver;
    case PlanKind::kParamProgram:
      break;
  }

  for (const CompiledInsertCheck& check : plan.program.insert_checks) {
    bool excluded = false;
    for (const CompiledValueTest& test : check.tests) {
      const sql::Value* v = Fetch(test.lhs, update, query);
      const sql::Value* c = Fetch(test.rhs, update, query);
      if (v == nullptr || c == nullptr) return StmtDecision::kInvalidate;
      if (TestExcludes(*v, test.op, *c)) {
        excluded = true;
        break;
      }
    }
    if (!excluded) return StmtDecision::kInvalidate;
  }

  std::vector<ColumnConstraint> cs;
  for (const CompiledSatCheck& check : plan.program.sat_checks) {
    cs.clear();
    cs.reserve(check.constraints.size());
    for (const CompiledConstraint& c : check.constraints) {
      const sql::Value* v = Fetch(c.value, update, query);
      if (v == nullptr) return StmtDecision::kInvalidate;
      cs.push_back(ColumnConstraint{c.column, c.op, *v});
    }
    if (UnaryConjunctionSatisfiable(cs)) return StmtDecision::kInvalidate;
  }

  for (const CompiledEntryCheck& check : plan.program.entry_checks) {
    bool excluded = false;
    for (const CompiledValueTest& test : check.set_tests) {
      const sql::Value* v = Fetch(test.lhs, update, query);
      const sql::Value* c = Fetch(test.rhs, update, query);
      if (v == nullptr || c == nullptr) return StmtDecision::kInvalidate;
      if (TestExcludes(*v, test.op, *c)) {
        excluded = true;
        break;
      }
    }
    if (excluded) continue;
    cs.clear();
    cs.reserve(check.residual.size());
    for (const CompiledConstraint& c : check.residual) {
      const sql::Value* v = Fetch(c.value, update, query);
      if (v == nullptr) return StmtDecision::kInvalidate;
      cs.push_back(ColumnConstraint{c.column, c.op, *v});
    }
    if (UnaryConjunctionSatisfiable(cs)) return StmtDecision::kInvalidate;
  }

  return StmtDecision::kIndependent;
}

InvalidationPlan InvalidationPlan::Compile(
    const templates::TemplateSet& templates, const catalog::Catalog& catalog,
    const Options& options) {
  InvalidationPlan plan;
  plan.num_updates_ = templates.num_updates();
  plan.num_queries_ = templates.num_queries();
  plan.options_ = options;
  plan.pairs_.reserve(plan.num_updates_ * plan.num_queries_);
  for (const UpdateTemplate& u : templates.updates()) {
    for (const QueryTemplate& q : templates.queries()) {
      plan.pairs_.push_back(CompilePairPlan(u, q, catalog, options));
    }
  }
  return plan;
}

InvalidationPlan::Summary InvalidationPlan::Summarize() const {
  Summary summary;
  for (const PairPlan& pair : pairs_) {
    switch (pair.kind) {
      case PlanKind::kNeverInvalidate:
        ++summary.never_invalidate;
        break;
      case PlanKind::kAlwaysInvalidate:
        ++summary.always_invalidate;
        break;
      case PlanKind::kParamProgram:
        ++summary.param_program;
        break;
      case PlanKind::kSolverFallback:
        ++summary.solver_fallback;
        break;
      case PlanKind::kViewTest:
        ++summary.view_test;
        break;
    }
  }
  return summary;
}

}  // namespace dssp::analysis
