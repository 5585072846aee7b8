#include "engine/program.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <unordered_map>
#include <utility>

#include "engine/batch.h"
#include "engine/database.h"
#include "engine/eval.h"

namespace dssp::engine {

namespace {

// Type class for comparability checking, as the interpreter's binder uses
// it: 0 = numeric, 1 = string, -1 = NULL literal (comparisons with NULL are
// simply false, so NULL is compatible with everything).
int ValueTypeClass(const sql::Value& v) {
  if (v.is_null()) return -1;
  return v.is_numeric() ? 0 : 1;
}

}  // namespace

// ---------------------------------------------------------------------------
// Compilation. The Compiler mirrors SelectExecution's binder pass for pass —
// same checks in the same order with the same error text — but resolves every
// name against the catalog alone and emits direct-coordinate ops instead of
// interpreting. Anything it rejects would be rejected (or cannot be planned)
// identically by the interpreter, which remains the fallback.
// ---------------------------------------------------------------------------

class QueryProgram::Compiler {
 public:
  Compiler(const catalog::Catalog& catalog, const sql::SelectStatement& stmt)
      : catalog_(catalog), stmt_(stmt) {}

  StatusOr<QueryProgram> Run() {
    DSSP_RETURN_IF_ERROR(BindFrom());
    DSSP_RETURN_IF_ERROR(BindWhere());
    DSSP_RETURN_IF_ERROR(ResolveLimit());
    PlanAccess();
    if (stmt_.has_aggregate() || !stmt_.group_by.empty()) {
      prog_.aggregate_ = true;
      DSSP_RETURN_IF_ERROR(CompileAggregateTail());
    } else {
      DSSP_RETURN_IF_ERROR(CompileProjectTail());
    }
    prog_.ordered_ = !stmt_.order_by.empty();
    prog_.num_params_ = max_param_ + 1;
    return std::move(prog_);
  }

 private:
  // A compile-time operand: resolved column coordinate, or literal/param.
  struct BoundOp {
    bool is_column = false;
    Coord coord;
    ValueRef value;
  };

  struct BoundConj {
    BoundOp lhs;
    sql::CompareOp op = sql::CompareOp::kEq;
    BoundOp rhs;
    std::vector<size_t> slots;  // Sorted unique FROM slots referenced.
    bool applied = false;
  };

  StatusOr<Coord> BindColumn(const sql::ColumnRef& ref) const {
    if (!ref.table.empty()) {
      for (size_t s = 0; s < schemas_.size(); ++s) {
        if (stmt_.from[s].effective_name() == ref.table) {
          const std::optional<size_t> col = schemas_[s]->ColumnIndex(ref.column);
          if (!col.has_value()) {
            return NotFoundError("column " + ref.ToString());
          }
          return Coord{static_cast<uint32_t>(s), static_cast<uint32_t>(*col)};
        }
      }
      return NotFoundError("table " + ref.table + " in FROM clause");
    }
    std::optional<Coord> found;
    for (size_t s = 0; s < schemas_.size(); ++s) {
      const std::optional<size_t> col = schemas_[s]->ColumnIndex(ref.column);
      if (col.has_value()) {
        if (found.has_value()) {
          return InvalidArgumentError("ambiguous column " + ref.column);
        }
        found = Coord{static_cast<uint32_t>(s), static_cast<uint32_t>(*col)};
      }
    }
    if (!found.has_value()) return NotFoundError("column " + ref.column);
    return *found;
  }

  Status BindFrom() {
    if (stmt_.from.empty()) {
      return InvalidArgumentError("empty FROM clause");
    }
    std::set<std::string> names;
    for (const sql::TableRef& ref : stmt_.from) {
      const catalog::TableSchema* schema = catalog_.FindTable(ref.table);
      if (schema == nullptr) return NotFoundError("table " + ref.table);
      if (!names.insert(ref.effective_name()).second) {
        return InvalidArgumentError("duplicate FROM name " +
                                    ref.effective_name());
      }
      schemas_.push_back(schema);
      SlotPlan plan;
      plan.table_name = ref.table;
      prog_.slots_.push_back(std::move(plan));
    }
    return Status::Ok();
  }

  StatusOr<BoundOp> BindOperand(const sql::Operand& op) {
    BoundOp bound;
    if (sql::IsLiteral(op)) {
      bound.value.literal = std::get<sql::Value>(op);
      return bound;
    }
    if (sql::IsParameter(op)) {
      bound.value.is_param = true;
      bound.value.param_index = std::get<sql::Parameter>(op).index;
      max_param_ = std::max(max_param_, bound.value.param_index);
      return bound;
    }
    bound.is_column = true;
    DSSP_ASSIGN_OR_RETURN(bound.coord,
                          BindColumn(std::get<sql::ColumnRef>(op)));
    return bound;
  }

  // Compile-time type class; DeferredTypeCheck::kFromParam for parameters.
  int OperandTypeClass(const BoundOp& op) const {
    if (op.is_column) {
      const catalog::ColumnType type =
          schemas_[op.coord.slot]->columns()[op.coord.col].type;
      return type == catalog::ColumnType::kString ? 1 : 0;
    }
    if (op.value.is_param) return DeferredTypeCheck::kFromParam;
    return ValueTypeClass(op.value.literal);
  }

  Status BindWhere() {
    for (const sql::Comparison& cmp : stmt_.where) {
      BoundConj bound;
      DSSP_ASSIGN_OR_RETURN(bound.lhs, BindOperand(cmp.lhs));
      DSSP_ASSIGN_OR_RETURN(bound.rhs, BindOperand(cmp.rhs));
      bound.op = cmp.op;
      const int lhs_type = OperandTypeClass(bound.lhs);
      const int rhs_type = OperandTypeClass(bound.rhs);
      if (lhs_type == DeferredTypeCheck::kFromParam ||
          rhs_type == DeferredTypeCheck::kFromParam) {
        // At least one side's class is known only once parameters are
        // bound; re-check per execution, in conjunct order, exactly where
        // the interpreter's BindWhere would.
        DeferredTypeCheck check;
        check.lhs_class = lhs_type;
        check.lhs_param = bound.lhs.value.param_index;
        check.rhs_class = rhs_type;
        check.rhs_param = bound.rhs.value.param_index;
        prog_.deferred_checks_.push_back(check);
      } else if (lhs_type >= 0 && rhs_type >= 0 && lhs_type != rhs_type) {
        return InvalidArgumentError("incomparable types in predicate");
      }
      if (bound.lhs.is_column) bound.slots.push_back(bound.lhs.coord.slot);
      if (bound.rhs.is_column) bound.slots.push_back(bound.rhs.coord.slot);
      std::sort(bound.slots.begin(), bound.slots.end());
      bound.slots.erase(std::unique(bound.slots.begin(), bound.slots.end()),
                        bound.slots.end());
      where_.push_back(std::move(bound));
    }
    return Status::Ok();
  }

  Status ResolveLimit() {
    if (!stmt_.limit.has_value()) return Status::Ok();
    prog_.has_limit_ = true;
    if (sql::IsParameter(*stmt_.limit)) {
      prog_.limit_.is_param = true;
      prog_.limit_.param_index = std::get<sql::Parameter>(*stmt_.limit).index;
      max_param_ = std::max(max_param_, prog_.limit_.param_index);
      return Status::Ok();  // Value validated per execution.
    }
    if (!sql::IsLiteral(*stmt_.limit)) {
      return InvalidArgumentError("unbound LIMIT parameter");
    }
    const sql::Value& v = std::get<sql::Value>(*stmt_.limit);
    if (v.type() != sql::ValueType::kInt64 || v.AsInt64() < 0) {
      return InvalidArgumentError("LIMIT must be a non-negative integer");
    }
    prog_.limit_.literal = v;
    return Status::Ok();
  }

  OperandCode MakeOperandCode(const BoundOp& op) const {
    OperandCode code;
    code.is_column = op.is_column;
    code.coord = op.coord;
    code.value = op.value;
    return code;
  }

  // The compile-time twin of SelectExecution::SingleTableCandidates: picks
  // the index probe (first unapplied `col = value` equality on slot `s`, in
  // conjunct order) and turns the remaining single-table conjuncts into
  // typed filter kernels, consuming them in the same order.
  void PlanSlotAccess(size_t s) {
    SlotPlan& plan = prog_.slots_[s];
    const std::vector<size_t> only_s{s};
    const BoundConj* probe = nullptr;
    for (const BoundConj& c : where_) {
      if (c.applied || c.slots != only_s) continue;
      if (c.op != sql::CompareOp::kEq) continue;
      if (c.lhs.is_column != c.rhs.is_column) {
        probe = &c;
        break;
      }
    }
    if (probe != nullptr) {
      const BoundOp& col = probe->lhs.is_column ? probe->lhs : probe->rhs;
      const BoundOp& val = probe->lhs.is_column ? probe->rhs : probe->lhs;
      plan.probe = true;
      plan.probe_col = col.coord.col;
      plan.probe_value = val.value;
    }
    for (BoundConj& c : where_) {
      if (c.applied || c.slots != only_s) continue;
      c.applied = true;
      if (&c == probe) continue;
      Filter f;
      if (c.lhs.is_column && c.rhs.is_column) {
        f.col_vs_col = true;
        f.col = c.lhs.coord.col;
        f.op = c.op;
        f.rhs_col = c.rhs.coord.col;
      } else if (c.lhs.is_column) {
        f.col = c.lhs.coord.col;
        f.op = c.op;
        f.value = c.rhs.value;
      } else {
        // value <op> column: normalize to column-on-the-left by flipping
        // the operator (semantics identical, incl. NULL-is-false).
        f.col = c.rhs.coord.col;
        f.op = sql::ReverseCompareOp(c.op);
        f.value = c.lhs.value;
      }
      plan.filters.push_back(std::move(f));
    }
  }

  // Mirrors SelectExecution::Join's planning decisions: constant conjuncts
  // first, then per-stage access + the applicable/equi-join selection.
  void PlanAccess() {
    for (BoundConj& c : where_) {
      if (c.slots.empty()) {
        c.applied = true;
        prog_.constants_.push_back(
            ConstantConjunct{c.lhs.value, c.op, c.rhs.value});
      }
    }
    PlanSlotAccess(0);
    for (size_t s = 1; s < prog_.slots_.size(); ++s) {
      PlanSlotAccess(s);
      SlotPlan& plan = prog_.slots_[s];
      bool have_equi = false;
      for (BoundConj& c : where_) {
        if (c.applied) continue;
        bool ready = true;
        bool uses_s = false;
        for (size_t slot : c.slots) {
          if (slot > s) ready = false;
          if (slot == s) uses_s = true;
        }
        if (!ready || !uses_s) continue;
        plan.residuals.push_back(
            Residual{MakeOperandCode(c.lhs), c.op, MakeOperandCode(c.rhs)});
        c.applied = true;
        if (!have_equi && c.op == sql::CompareOp::kEq && c.lhs.is_column &&
            c.rhs.is_column &&
            (c.lhs.coord.slot == s) != (c.rhs.coord.slot == s)) {
          have_equi = true;
          const BoundOp& s_col = c.lhs.coord.slot == s ? c.lhs : c.rhs;
          const BoundOp& other = c.lhs.coord.slot == s ? c.rhs : c.lhs;
          plan.hash_join = true;
          plan.build_col = s_col.coord.col;
          plan.probe_coord = other.coord;
          // A slot with its own probe already has a small build set; a
          // unique join column has at most one match per tuple, so probing
          // it per tuple emits exactly the hash join's rows in its order.
          plan.index_join =
              !plan.probe && schemas_[s]->IsUniqueColumn(
                                 schemas_[s]->columns()[plan.build_col].name);
        }
      }
    }
    PlanDrivenJoin();
  }

  // A two-slot join whose selective probe sits on slot 1 while slot 0 would
  // be scanned in full: let slot 1's candidates probe slot 0's join-column
  // index instead (see the class comment for why the order is preserved).
  // Equal declared types keep the hash-and-compare of the index identical
  // to the hash join's; double columns are left out, as they may mix
  // integer and fractional images of one value.
  void PlanDrivenJoin() {
    if (prog_.slots_.size() != 2) return;
    const SlotPlan& outer = prog_.slots_[0];
    SlotPlan& inner = prog_.slots_[1];
    if (outer.probe || !inner.hash_join || !inner.probe) return;
    const catalog::Column& outer_col =
        schemas_[0]->columns()[inner.probe_coord.col];
    const catalog::Column& inner_col =
        schemas_[1]->columns()[inner.build_col];
    inner.driven_join = schemas_[1]->IsUniqueColumn(inner_col.name) &&
                        Table::AlwaysIndexed(*schemas_[0], outer_col.name) &&
                        outer_col.type == inner_col.type &&
                        outer_col.type != catalog::ColumnType::kDouble;
  }

  std::string OutputName(const sql::SelectItem& item) const {
    if (item.func != sql::AggregateFunc::kNone) {
      std::string name = sql::AggregateFuncName(item.func);
      name += "(";
      name += item.star ? "*" : item.column.ToString();
      name += ")";
      return name;
    }
    return item.column.ToString();
  }

  Status CompileProjectTail() {
    for (const sql::SelectItem& item : stmt_.items) {
      if (item.star) {
        for (size_t s = 0; s < schemas_.size(); ++s) {
          for (size_t c = 0; c < schemas_[s]->num_columns(); ++c) {
            prog_.out_cols_.push_back(
                Coord{static_cast<uint32_t>(s), static_cast<uint32_t>(c)});
            prog_.out_names_.push_back(stmt_.from[s].effective_name() + "." +
                                       schemas_[s]->columns()[c].name);
          }
        }
      } else {
        DSSP_ASSIGN_OR_RETURN(Coord col, BindColumn(item.column));
        prog_.out_cols_.push_back(col);
        prog_.out_names_.push_back(OutputName(item));
      }
    }
    for (const sql::OrderByItem& item : stmt_.order_by) {
      DSSP_ASSIGN_OR_RETURN(Coord col, BindColumn(item.column));
      prog_.order_coords_.emplace_back(col, item.descending);
    }
    return Status::Ok();
  }

  Status CompileAggregateTail() {
    for (const sql::ColumnRef& ref : stmt_.group_by) {
      DSSP_ASSIGN_OR_RETURN(Coord col, BindColumn(ref));
      prog_.group_cols_.push_back(col);
    }
    for (const sql::SelectItem& item : stmt_.items) {
      AggItem out;
      out.func = item.func;
      out.star = item.star;
      if (item.func == sql::AggregateFunc::kNone) {
        if (item.star) {
          return InvalidArgumentError("SELECT * cannot mix with aggregates");
        }
        DSSP_ASSIGN_OR_RETURN(Coord col, BindColumn(item.column));
        bool found = false;
        for (size_t g = 0; g < prog_.group_cols_.size(); ++g) {
          if (prog_.group_cols_[g].slot == col.slot &&
              prog_.group_cols_[g].col == col.col) {
            out.group_index = static_cast<int>(g);
            found = true;
            break;
          }
        }
        if (!found) {
          return InvalidArgumentError("non-aggregated column " +
                                      item.column.ToString() +
                                      " not in GROUP BY");
        }
      } else if (!item.star) {
        DSSP_ASSIGN_OR_RETURN(Coord col, BindColumn(item.column));
        out.has_col = true;
        out.coord = col;
      }
      prog_.agg_items_.push_back(out);
      prog_.out_names_.push_back(OutputName(item));
    }
    for (const sql::OrderByItem& item : stmt_.order_by) {
      DSSP_ASSIGN_OR_RETURN(Coord col, BindColumn(item.column));
      bool found = false;
      for (size_t g = 0; g < prog_.group_cols_.size(); ++g) {
        if (prog_.group_cols_[g].slot == col.slot &&
            prog_.group_cols_[g].col == col.col) {
          for (size_t o = 0; o < prog_.agg_items_.size(); ++o) {
            if (prog_.agg_items_[o].group_index == static_cast<int>(g)) {
              prog_.order_keys_.emplace_back(o, item.descending);
              found = true;
              break;
            }
          }
          break;
        }
      }
      if (!found) {
        return InvalidArgumentError(
            "ORDER BY on aggregate query must use projected GROUP BY "
            "columns");
      }
    }
    return Status::Ok();
  }

  const catalog::Catalog& catalog_;
  const sql::SelectStatement& stmt_;
  std::vector<const catalog::TableSchema*> schemas_;
  std::vector<BoundConj> where_;
  QueryProgram prog_;
  int max_param_ = -1;
};

StatusOr<QueryProgram> QueryProgram::Compile(const catalog::Catalog& catalog,
                                             const sql::SelectStatement& stmt) {
  Compiler compiler(catalog, stmt);
  return compiler.Run();
}

bool QueryProgram::uses_full_scan() const {
  if (num_driven_joins() > 0) return false;  // Both slots probe an index.
  for (const SlotPlan& plan : slots_) {
    if (!plan.probe && !plan.index_join) return true;
  }
  return false;
}

size_t QueryProgram::num_index_joins() const {
  return static_cast<size_t>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](const SlotPlan& plan) { return plan.index_join; }));
}

size_t QueryProgram::num_driven_joins() const {
  return static_cast<size_t>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](const SlotPlan& plan) { return plan.driven_join; }));
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

StatusOr<QueryResult> QueryProgram::Execute(
    const Database& db, const std::vector<sql::Value>& params) const {
  DSSP_CHECK(params.size() == static_cast<size_t>(num_params_));
  return ExecuteImpl(db, params);
}

StatusOr<QueryResult> QueryProgram::ExecuteImpl(
    const Database& db, const std::vector<sql::Value>& params) const {
  // Resolve the (stable) Table objects for this database.
  std::vector<const Table*> tables;
  tables.reserve(slots_.size());
  for (const SlotPlan& plan : slots_) {
    const Table* table = db.FindTable(plan.table_name);
    if (table == nullptr) return NotFoundError("table " + plan.table_name);
    tables.push_back(table);
  }

  // Parameter type-class checks the compiler had to defer, in original
  // conjunct order (the interpreter's BindWhere order).
  for (const DeferredTypeCheck& check : deferred_checks_) {
    const int lhs = check.lhs_class == DeferredTypeCheck::kFromParam
                        ? ValueTypeClass(params[static_cast<size_t>(
                              check.lhs_param)])
                        : check.lhs_class;
    const int rhs = check.rhs_class == DeferredTypeCheck::kFromParam
                        ? ValueTypeClass(params[static_cast<size_t>(
                              check.rhs_param)])
                        : check.rhs_class;
    if (lhs >= 0 && rhs >= 0 && lhs != rhs) {
      return InvalidArgumentError("incomparable types in predicate");
    }
  }

  // LIMIT (parameter-bound limits re-validated per run, like ResolveLimit).
  std::optional<size_t> limit;
  if (has_limit_) {
    const sql::Value& v = limit_.Get(params);
    if (v.type() != sql::ValueType::kInt64 || v.AsInt64() < 0) {
      return InvalidArgumentError("LIMIT must be a non-negative integer");
    }
    limit = static_cast<size_t>(v.AsInt64());
  }

  // Constant conjuncts: any false one empties the tuple set (but the
  // projection/aggregate tail still runs — a global aggregate over empty
  // input yields one row).
  bool constants_pass = true;
  for (const ConstantConjunct& c : constants_) {
    if (!CompareValues(c.lhs.Get(params), c.op, c.rhs.Get(params))) {
      constants_pass = false;
      break;
    }
  }

  const size_t width = slots_.size();
  // Joined tuples, row-major (width entries per tuple). Unjoined slots hold
  // 0, exactly like the interpreter's prefix tuples.
  std::vector<uint32_t> tuples;

  const auto slot_candidates = [&](size_t s, SelectionVector* sel) {
    const SlotPlan& plan = slots_[s];
    const Table& table = *tables[s];
    sel->clear();
    if (plan.probe) {
      table.ForEachSlotWithValue(
          plan.probe_col, plan.probe_value.Get(params),
          [&](size_t slot) { sel->push_back(static_cast<uint32_t>(slot)); });
    } else if (!plan.filters.empty()) {
      // Full scan with at least one filter: fuse the liveness test into the
      // first filter kernel so the live list is never materialized.
      const Filter& f = plan.filters[0];
      if (f.col_vs_col) {
        SelectLiveWhereColumnVsColumn(table, f.col, f.op, f.rhs_col, sel);
      } else {
        SelectLiveWhereColumnVsValue(table, f.col, f.op, f.value.Get(params),
                                     sel);
      }
    } else {
      SelectLiveSlots(table, sel);
    }
    const size_t first_filter = !plan.probe && !plan.filters.empty() ? 1 : 0;
    for (size_t i = first_filter; i < plan.filters.size(); ++i) {
      const Filter& f = plan.filters[i];
      if (f.col_vs_col) {
        FilterColumnVsColumn(table, f.col, f.op, f.rhs_col, sel);
      } else {
        FilterColumnVsValue(table, f.col, f.op, f.value.Get(params), sel);
      }
    }
  };

  const auto operand_value =
      [&](const OperandCode& op, const uint32_t* tuple) -> const sql::Value& {
    if (!op.is_column) return op.value.Get(params);
    return tables[op.coord.slot]->RowAt(tuple[op.coord.slot])[op.coord.col];
  };

  const auto residuals_pass = [&](const SlotPlan& plan,
                                  const uint32_t* tuple) {
    for (const Residual& r : plan.residuals) {
      if (!CompareValues(operand_value(r.lhs, tuple), r.op,
                         operand_value(r.rhs, tuple))) {
        return false;
      }
    }
    return true;
  };

  // The slot's filters on one row: the kernels' per-row semantics.
  const auto filters_pass = [&](const SlotPlan& plan, const Table& table,
                                size_t slot) {
    const Row& row = table.RowAt(slot);
    for (const Filter& f : plan.filters) {
      if (!CompareValues(row[f.col], f.op,
                         f.col_vs_col ? row[f.rhs_col] : f.value.Get(params))) {
        return false;
      }
    }
    return true;
  };

  if (constants_pass && width == 2 && slots_[1].driven_join) {
    // Driven join: slot 1's candidates probe slot 0's join-column index.
    // Slot 1's join column is unique, so each slot-0 row pairs with at most
    // one slot-1 row, and sorting the pairs by slot-0 slot reproduces the
    // hash join's tuples (slot 0 ascending) in its order.
    const SlotPlan& outer = slots_[0];
    const SlotPlan& inner = slots_[1];
    SelectionVector sel;
    slot_candidates(1, &sel);
    std::vector<uint64_t> pairs;  // slot-0 slot << 32 | slot-1 slot.
    for (const uint32_t inner_slot : sel) {
      const sql::Value& v = tables[1]->RowAt(inner_slot)[inner.build_col];
      if (v.is_null()) continue;
      tables[0]->ForEachSlotWithValue(
          inner.probe_coord.col, v, [&](size_t outer_slot) {
            if (!filters_pass(outer, *tables[0], outer_slot)) return;
            const uint32_t tuple[2] = {static_cast<uint32_t>(outer_slot),
                                       inner_slot};
            if (residuals_pass(inner, tuple)) {
              pairs.push_back(static_cast<uint64_t>(outer_slot) << 32 |
                              inner_slot);
            }
          });
    }
    std::sort(pairs.begin(), pairs.end());
    tuples.reserve(pairs.size() * 2);
    for (const uint64_t pair : pairs) {
      tuples.push_back(static_cast<uint32_t>(pair >> 32));
      tuples.push_back(static_cast<uint32_t>(pair));
    }
  } else if (constants_pass) {
    SelectionVector sel;
    slot_candidates(0, &sel);
    if (width == 1) {
      tuples = std::move(sel);
    } else {
      tuples.reserve(sel.size() * width);
      for (const uint32_t slot : sel) {
        tuples.push_back(slot);
        tuples.resize(tuples.size() + (width - 1), 0);
      }
      for (size_t s = 1; s < width; ++s) {
        const SlotPlan& plan = slots_[s];
        std::vector<uint32_t> next;
        std::vector<uint32_t> ext(width, 0);
        const size_t num_tuples = tuples.size() / width;
        if (plan.index_join) {
          // Index nested-loop join: no scan, no build. At most one row
          // matches each tuple, so the order is the hash join's.
          const Table& table = *tables[s];
          for (size_t t = 0; t < num_tuples; ++t) {
            const uint32_t* tuple = &tuples[t * width];
            const sql::Value& probe =
                tables[plan.probe_coord.slot]->RowAt(
                    tuple[plan.probe_coord.slot])[plan.probe_coord.col];
            if (probe.is_null()) continue;
            table.ForEachSlotWithValue(plan.build_col, probe, [&](size_t slot) {
              if (!filters_pass(plan, table, slot)) return;
              std::copy(tuple, tuple + width, ext.begin());
              ext[s] = static_cast<uint32_t>(slot);
              if (residuals_pass(plan, ext.data())) {
                next.insert(next.end(), ext.begin(), ext.end());
              }
            });
          }
          tuples = std::move(next);
          continue;
        }
        slot_candidates(s, &sel);
        if (plan.hash_join) {
          // Identical container, reserve, insertion and probe sequence as
          // the interpreter — bucket iteration order is part of the
          // bit-identical contract for multi-match joins.
          std::unordered_multimap<uint64_t, size_t> build;
          build.reserve(sel.size());
          for (const uint32_t row_slot : sel) {
            const sql::Value& v = tables[s]->RowAt(row_slot)[plan.build_col];
            if (v.is_null()) continue;
            build.emplace(v.Hash(), row_slot);
          }
          for (size_t t = 0; t < num_tuples; ++t) {
            const uint32_t* tuple = &tuples[t * width];
            const sql::Value& probe =
                tables[plan.probe_coord.slot]->RowAt(
                    tuple[plan.probe_coord.slot])[plan.probe_coord.col];
            if (probe.is_null()) continue;
            auto [begin, end] = build.equal_range(probe.Hash());
            for (auto it = begin; it != end; ++it) {
              std::copy(tuple, tuple + width, ext.begin());
              ext[s] = static_cast<uint32_t>(it->second);
              if (residuals_pass(plan, ext.data())) {
                next.insert(next.end(), ext.begin(), ext.end());
              }
            }
          }
        } else {
          for (size_t t = 0; t < num_tuples; ++t) {
            const uint32_t* tuple = &tuples[t * width];
            for (const uint32_t row_slot : sel) {
              std::copy(tuple, tuple + width, ext.begin());
              ext[s] = row_slot;
              if (residuals_pass(plan, ext.data())) {
                next.insert(next.end(), ext.begin(), ext.end());
              }
            }
          }
        }
        tuples = std::move(next);
      }
    }
  }

  const size_t num_tuples = tuples.size() / width;

  if (!aggregate_) {
    // ----- Projection tail. -----
    std::vector<Row> rows;
    const size_t n =
        limit.has_value() ? std::min(*limit, num_tuples) : num_tuples;
    rows.reserve(n);
    const auto emit = [&](size_t t) {
      const uint32_t* tuple = &tuples[t * width];
      Row row;
      row.reserve(out_cols_.size());
      for (const Coord& col : out_cols_) {
        row.push_back(tables[col.slot]->RowAt(tuple[col.slot])[col.col]);
      }
      rows.push_back(std::move(row));
    };
    if (!order_coords_.empty()) {
      std::vector<size_t> order(num_tuples);
      std::iota(order.begin(), order.end(), size_t{0});
      StableTopK(order, n, [&](size_t a, size_t b) {
        const uint32_t* ta = &tuples[a * width];
        const uint32_t* tb = &tuples[b * width];
        for (const auto& [col, desc] : order_coords_) {
          const sql::Value& va =
              tables[col.slot]->RowAt(ta[col.slot])[col.col];
          const sql::Value& vb =
              tables[col.slot]->RowAt(tb[col.slot])[col.col];
          const int c = va.Compare(vb);
          if (c != 0) return desc ? -c : c;
        }
        return 0;
      });
      for (size_t i = 0; i < n; ++i) emit(order[i]);
    } else {
      for (size_t i = 0; i < n; ++i) emit(i);
    }
    return QueryResult(out_names_, std::move(rows), ordered_);
  }

  // ----- Aggregation tail (same grouping container, key encoding, and
  // iteration order as the interpreter). -----
  struct Group {
    Row key;
    std::vector<const uint32_t*> tuples;
  };
  std::map<std::string, Group> groups;
  for (size_t t = 0; t < num_tuples; ++t) {
    const uint32_t* tuple = &tuples[t * width];
    Row key;
    std::string encoded;
    for (const Coord& col : group_cols_) {
      const sql::Value& v =
          tables[col.slot]->RowAt(tuple[col.slot])[col.col];
      key.push_back(v);
      encoded += v.EncodeForKey();
    }
    Group& group = groups[encoded];
    if (group.tuples.empty()) group.key = std::move(key);
    group.tuples.push_back(tuple);
  }
  const bool global = group_cols_.empty();
  if (global && groups.empty()) {
    groups.emplace("", Group{});
  }

  const auto compute_aggregate = [&](const AggItem& item,
                                     const std::vector<const uint32_t*>&
                                         group_tuples) -> sql::Value {
    if (item.func == sql::AggregateFunc::kCount && item.star) {
      return sql::Value(static_cast<int64_t>(group_tuples.size()));
    }
    DSSP_CHECK(item.has_col);
    int64_t count = 0;
    double dsum = 0;
    int64_t isum = 0;
    bool saw_double = false;
    std::optional<sql::Value> min_v;
    std::optional<sql::Value> max_v;
    for (const uint32_t* tuple : group_tuples) {
      const sql::Value& v =
          tables[item.coord.slot]->RowAt(
              tuple[item.coord.slot])[item.coord.col];
      if (v.is_null()) continue;
      ++count;
      switch (item.func) {
        case sql::AggregateFunc::kSum:
        case sql::AggregateFunc::kAvg:
          if (v.type() == sql::ValueType::kDouble) {
            saw_double = true;
            dsum += v.AsDouble();
          } else {
            isum += v.AsInt64();
            dsum += v.AsDouble();
          }
          break;
        case sql::AggregateFunc::kMin:
          if (!min_v.has_value() || v.Compare(*min_v) < 0) min_v = v;
          break;
        case sql::AggregateFunc::kMax:
          if (!max_v.has_value() || v.Compare(*max_v) > 0) max_v = v;
          break;
        case sql::AggregateFunc::kCount:
          break;
        case sql::AggregateFunc::kNone:
          DSSP_UNREACHABLE("aggregate dispatch");
      }
    }
    switch (item.func) {
      case sql::AggregateFunc::kCount:
        return sql::Value(count);
      case sql::AggregateFunc::kSum:
        if (count == 0) return sql::Value::Null();
        return saw_double ? sql::Value(dsum) : sql::Value(isum);
      case sql::AggregateFunc::kAvg:
        if (count == 0) return sql::Value::Null();
        return sql::Value(dsum / static_cast<double>(count));
      case sql::AggregateFunc::kMin:
        return min_v.value_or(sql::Value::Null());
      case sql::AggregateFunc::kMax:
        return max_v.value_or(sql::Value::Null());
      case sql::AggregateFunc::kNone:
        break;
    }
    DSSP_UNREACHABLE("aggregate dispatch");
  };

  std::vector<Row> rows;
  for (auto& [encoded, group] : groups) {
    Row row;
    for (const AggItem& item : agg_items_) {
      if (item.func == sql::AggregateFunc::kNone) {
        row.push_back(group.key[static_cast<size_t>(item.group_index)]);
        continue;
      }
      row.push_back(compute_aggregate(item, group.tuples));
    }
    rows.push_back(std::move(row));
  }

  if (!order_keys_.empty()) {
    // Bounded top-k over group rows: first min(limit, n) entries of the
    // stable sort, via the index tie-break (see StableTopK).
    const size_t k =
        limit.has_value() ? std::min(*limit, rows.size()) : rows.size();
    std::vector<size_t> order(rows.size());
    std::iota(order.begin(), order.end(), size_t{0});
    StableTopK(order, k, [&](size_t a, size_t b) {
      for (const auto& [idx, desc] : order_keys_) {
        const int c = rows[a][idx].Compare(rows[b][idx]);
        if (c != 0) return desc ? -c : c;
      }
      return 0;
    });
    std::vector<Row> sorted;
    sorted.reserve(k);
    for (size_t i = 0; i < k; ++i) sorted.push_back(std::move(rows[order[i]]));
    rows = std::move(sorted);
  } else if (limit.has_value() && rows.size() > *limit) {
    rows.resize(*limit);
  }
  return QueryResult(out_names_, std::move(rows), ordered_);
}

}  // namespace dssp::engine
