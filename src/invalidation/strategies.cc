#include "invalidation/strategies.h"

#include <map>

#include "analysis/query_slots.h"
#include "engine/eval.h"
#include "invalidation/independence.h"

namespace dssp::invalidation {

Decision BlindStrategy::Decide(const UpdateView& update,
                               const CachedQueryView& query) const {
  (void)update;
  (void)query;
  return Decision::kInvalidate;
}

namespace {

// True when both templates are exposed and carry their TemplateSet index,
// so the pair has a compiled plan. Otherwise every strategy invalidates.
bool HasPlanPair(const UpdateView& update, const CachedQueryView& query) {
  return update.tmpl != nullptr && query.tmpl != nullptr &&
         update.template_index != kNoTemplateIndex &&
         query.template_index != kNoTemplateIndex;
}

// The compiled plan of the pair, or nullptr when it has none.
const analysis::PairPlan* FindPair(const analysis::InvalidationPlan& plan,
                                   const UpdateView& update,
                                   const CachedQueryView& query) {
  return HasPlanPair(update, query)
             ? &plan.pair(update.template_index, query.template_index)
             : nullptr;
}

}  // namespace

Decision TemplateInspectionStrategy::Decide(
    const UpdateView& update, const CachedQueryView& query) const {
  // kNeverInvalidate is the compiled A cell: the pair is ignorable
  // (Lemma 1) or ruled out by the Section 4.5 PK/FK rules.
  const analysis::PairPlan* pair = FindPair(plan_, update, query);
  return pair != nullptr && pair->kind == analysis::PlanKind::kNeverInvalidate
             ? Decision::kDoNotInvalidate
             : Decision::kInvalidate;
}

Decision StatementInspectionStrategy::Decide(
    const UpdateView& update, const CachedQueryView& query) const {
  const analysis::PairPlan* pair = FindPair(plan_, update, query);
  if (pair == nullptr) return Decision::kInvalidate;
  if (pair->kind == analysis::PlanKind::kNeverInvalidate) {
    return Decision::kDoNotInvalidate;
  }
  if (update.statement == nullptr || query.statement == nullptr) {
    return Decision::kInvalidate;
  }
  switch (analysis::EvaluatePairPlan(*pair, *update.statement,
                                     *query.statement)) {
    case analysis::StmtDecision::kIndependent:
      return Decision::kDoNotInvalidate;
    case analysis::StmtDecision::kInvalidate:
      return Decision::kInvalidate;
    case analysis::StmtDecision::kRunSolver:
      return ProvablyIndependent(*update.tmpl, *update.statement, *query.tmpl,
                                 *query.statement, catalog_,
                                 plan_.options().use_integrity_constraints)
                 ? Decision::kDoNotInvalidate
                 : Decision::kInvalidate;
  }
  DSSP_UNREACHABLE("bad StmtDecision");
}

namespace {

// Tests whether any cached result row, viewed as the slot-`slot` contributing
// base row, satisfies the update's predicate. Requires every predicate
// attribute to be preserved from that slot; returns nullopt when it is not
// (the caller must then fall back to the statement-level decision).
std::optional<bool> AnyResultRowMatches(
    const templates::QueryTemplate& query_template,
    const engine::QueryResult& result, size_t slot,
    const catalog::TableSchema& schema,
    const std::vector<sql::Comparison>& predicate) {
  const std::vector<templates::QueryTemplate::OutputColumn>& outputs =
      query_template.output_columns();
  if (outputs.size() != result.num_columns()) return std::nullopt;

  // Map each predicate-referenced column to a result column index.
  std::map<std::string, size_t> column_to_output;
  for (const sql::Comparison& cmp : predicate) {
    for (const sql::Operand* op : {&cmp.lhs, &cmp.rhs}) {
      if (!sql::IsColumn(*op)) continue;
      const std::string& col = std::get<sql::ColumnRef>(*op).column;
      if (column_to_output.contains(col)) continue;
      bool found = false;
      for (size_t k = 0; k < outputs.size(); ++k) {
        if (outputs[k].slot == slot && outputs[k].attribute.has_value() &&
            outputs[k].attribute->column == col) {
          column_to_output[col] = k;
          found = true;
          break;
        }
      }
      if (!found) return std::nullopt;  // Attribute not preserved from slot.
    }
  }

  // Bind the predicate once; Matches() surfaces errors per row at exactly
  // the points EvalPredicateOnRow would (errors conservatively count as a
  // match below).
  const engine::BoundPredicate bound =
      engine::BoundPredicate::Bind(schema, predicate);
  for (const engine::Row& result_row : result.rows()) {
    // Reconstruct the contributing base row (only predicate-referenced
    // columns matter; the predicate never reads the others).
    engine::Row base(schema.num_columns());
    for (const auto& [col, k] : column_to_output) {
      base[*schema.ColumnIndex(col)] = result_row[k];
    }
    const StatusOr<bool> matches = bound.Matches(base);
    if (!matches.ok() || *matches) return true;
  }
  return false;
}

}  // namespace

Decision ViewInspectionStrategy::Decide(const UpdateView& update,
                                        const CachedQueryView& query) const {
  // Start from the statement-level decision; the view can only refine it.
  if (sis_.Decide(update, query) == Decision::kDoNotInvalidate) {
    return Decision::kDoNotInvalidate;
  }
  if (!HasPlanPair(update, query) || update.statement == nullptr ||
      query.statement == nullptr || query.result == nullptr) {
    return Decision::kInvalidate;
  }

  const templates::UpdateTemplate& u = *update.tmpl;
  const catalog::TableSchema* schema = catalog_.FindTable(u.table());
  if (schema == nullptr) return Decision::kInvalidate;

  const std::vector<sql::Comparison>* predicate = nullptr;
  switch (u.update_class()) {
    case templates::UpdateClass::kInsertion:
      // Documented deviation: insertions keep the MSIS decision. For
      // queries in E ∩ N this is exactly minimal (Section 4.4 proves
      // C = B); outside E/N it is merely conservative.
      return Decision::kInvalidate;
    case templates::UpdateClass::kDeletion:
      predicate = &update.statement->del().where;
      break;
    case templates::UpdateClass::kModification:
      predicate = &update.statement->update().where;
      // The modified rows might newly enter the result; the view cannot
      // rule that out, only the statement test can.
      if (!ModificationCannotEnter(u, *update.statement, *query.statement,
                                   catalog_)) {
        return Decision::kInvalidate;
      }
      break;
  }

  // The update touches only rows matching `predicate`. If, for every FROM
  // slot over the updated table, no cached result row derives from such a
  // row, the cached result cannot change.
  const analysis::QuerySlots slots(query.statement->select());
  for (size_t s = 0; s < slots.physical.size(); ++s) {
    if (slots.physical[s] != u.table()) continue;
    const std::optional<bool> any_match = AnyResultRowMatches(
        *query.tmpl, *query.result, s, *schema, *predicate);
    if (!any_match.has_value() || *any_match) {
      return Decision::kInvalidate;
    }
  }
  return Decision::kDoNotInvalidate;
}

Decision MixedStrategy::Decide(const UpdateView& update,
                               const CachedQueryView& query) const {
  switch (analysis::SymbolFor(update.level, query.level)) {
    case analysis::IpmSymbol::kOne:
      return blind_.Decide(update, query);
    case analysis::IpmSymbol::kA:
      return tis_.Decide(update, query);
    case analysis::IpmSymbol::kB:
      return sis_.Decide(update, query);
    case analysis::IpmSymbol::kC:
      return vis_.Decide(update, query);
  }
  DSSP_UNREACHABLE("bad IpmSymbol");
}

}  // namespace dssp::invalidation
