#include "engine/executor.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <unordered_map>

#include "engine/batch.h"
#include "engine/database.h"
#include "engine/eval.h"

namespace dssp::engine {

namespace {

// A column resolved to (FROM slot, column index).
struct BoundColumn {
  size_t slot;
  size_t col;
};

// A predicate operand after binding: a column or a literal.
struct BoundOperand {
  bool is_column = false;
  BoundColumn column{0, 0};
  sql::Value literal;
};

struct BoundComparison {
  BoundOperand lhs;
  sql::CompareOp op;
  BoundOperand rhs;
  std::vector<size_t> slots;  // Sorted unique FROM slots referenced.
  bool applied = false;
};

// A join tuple: one row slot per FROM slot (prefix while building).
using Tuple = std::vector<size_t>;

class SelectExecution {
 public:
  SelectExecution(const Database& db, const sql::SelectStatement& stmt)
      : db_(db), stmt_(stmt) {}

  StatusOr<QueryResult> Run() {
    DSSP_RETURN_IF_ERROR(BindFrom());
    DSSP_RETURN_IF_ERROR(BindWhere());
    DSSP_RETURN_IF_ERROR(ResolveLimit());
    DSSP_ASSIGN_OR_RETURN(std::vector<Tuple> tuples, Join());
    if (stmt_.has_aggregate() || !stmt_.group_by.empty()) {
      return Aggregate(tuples);
    }
    return Project(tuples);
  }

 private:
  StatusOr<BoundColumn> BindColumn(const sql::ColumnRef& ref) const {
    if (!ref.table.empty()) {
      for (size_t s = 0; s < tables_.size(); ++s) {
        if (stmt_.from[s].effective_name() == ref.table) {
          const std::optional<size_t> col =
              tables_[s]->schema().ColumnIndex(ref.column);
          if (!col.has_value()) {
            return NotFoundError("column " + ref.ToString());
          }
          return BoundColumn{s, *col};
        }
      }
      return NotFoundError("table " + ref.table + " in FROM clause");
    }
    std::optional<BoundColumn> found;
    for (size_t s = 0; s < tables_.size(); ++s) {
      const std::optional<size_t> col =
          tables_[s]->schema().ColumnIndex(ref.column);
      if (col.has_value()) {
        if (found.has_value()) {
          return InvalidArgumentError("ambiguous column " + ref.column);
        }
        found = BoundColumn{s, *col};
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
      const Table* table = db_.FindTable(ref.table);
      if (table == nullptr) return NotFoundError("table " + ref.table);
      if (!names.insert(ref.effective_name()).second) {
        return InvalidArgumentError("duplicate FROM name " +
                                    ref.effective_name());
      }
      tables_.push_back(table);
    }
    return Status::Ok();
  }

  StatusOr<BoundOperand> BindOperand(const sql::Operand& op) const {
    BoundOperand bound;
    if (sql::IsLiteral(op)) {
      bound.literal = std::get<sql::Value>(op);
      return bound;
    }
    if (sql::IsParameter(op)) {
      return InvalidArgumentError("unbound parameter in query");
    }
    bound.is_column = true;
    DSSP_ASSIGN_OR_RETURN(bound.column,
                          BindColumn(std::get<sql::ColumnRef>(op)));
    return bound;
  }

  // Type class for comparability checking: 0 = numeric, 1 = string,
  // -1 = unknown (NULL literal; comparisons with NULL are simply false).
  int OperandTypeClass(const BoundOperand& op) const {
    if (op.is_column) {
      const catalog::ColumnType type =
          tables_[op.column.slot]->schema().columns()[op.column.col].type;
      return type == catalog::ColumnType::kString ? 1 : 0;
    }
    if (op.literal.is_null()) return -1;
    return op.literal.is_numeric() ? 0 : 1;
  }

  Status BindWhere() {
    for (const sql::Comparison& cmp : stmt_.where) {
      BoundComparison bound;
      DSSP_ASSIGN_OR_RETURN(bound.lhs, BindOperand(cmp.lhs));
      DSSP_ASSIGN_OR_RETURN(bound.rhs, BindOperand(cmp.rhs));
      bound.op = cmp.op;
      const int lhs_type = OperandTypeClass(bound.lhs);
      const int rhs_type = OperandTypeClass(bound.rhs);
      if (lhs_type >= 0 && rhs_type >= 0 && lhs_type != rhs_type) {
        return InvalidArgumentError("incomparable types in predicate");
      }
      if (bound.lhs.is_column) bound.slots.push_back(bound.lhs.column.slot);
      if (bound.rhs.is_column) bound.slots.push_back(bound.rhs.column.slot);
      std::sort(bound.slots.begin(), bound.slots.end());
      bound.slots.erase(std::unique(bound.slots.begin(), bound.slots.end()),
                        bound.slots.end());
      where_.push_back(std::move(bound));
    }
    return Status::Ok();
  }

  Status ResolveLimit() {
    if (!stmt_.limit.has_value()) return Status::Ok();
    if (!sql::IsLiteral(*stmt_.limit)) {
      return InvalidArgumentError("unbound LIMIT parameter");
    }
    const sql::Value& v = std::get<sql::Value>(*stmt_.limit);
    if (v.type() != sql::ValueType::kInt64 || v.AsInt64() < 0) {
      return InvalidArgumentError("LIMIT must be a non-negative integer");
    }
    limit_ = static_cast<size_t>(v.AsInt64());
    return Status::Ok();
  }

  sql::Value OperandValue(const BoundOperand& op, const Tuple& tuple) const {
    if (!op.is_column) return op.literal;
    return tables_[op.column.slot]->RowAt(tuple[op.column.slot])
        [op.column.col];
  }

  bool EvalComparison(const BoundComparison& cmp, const Tuple& tuple) const {
    return CompareValues(OperandValue(cmp.lhs, tuple), cmp.op,
                         OperandValue(cmp.rhs, tuple));
  }

  // Candidate row slots for FROM slot `s` after applying its single-table
  // conjuncts (marking them applied). Uses a hash index when an equality
  // conjunct against a literal is present.
  std::vector<size_t> SingleTableCandidates(size_t s) {
    const Table& table = *tables_[s];
    // Prefer an index probe: column(s) = literal.
    const BoundComparison* probe = nullptr;
    for (BoundComparison& cmp : where_) {
      if (cmp.applied || cmp.slots != std::vector<size_t>{s}) continue;
      if (cmp.op != sql::CompareOp::kEq) continue;
      if (cmp.lhs.is_column != cmp.rhs.is_column) {
        probe = &cmp;
        break;
      }
    }
    std::vector<size_t> candidates;
    if (probe != nullptr) {
      const BoundOperand& col = probe->lhs.is_column ? probe->lhs
                                                     : probe->rhs;
      const BoundOperand& lit = probe->lhs.is_column ? probe->rhs
                                                     : probe->lhs;
      candidates = table.SlotsWithValue(col.column.col, lit.literal);
    } else {
      candidates = table.AllSlots();
    }
    // Filter by the remaining single-table conjuncts of slot s.
    std::vector<const BoundComparison*> filters;
    for (BoundComparison& cmp : where_) {
      if (cmp.applied || cmp.slots != std::vector<size_t>{s}) continue;
      cmp.applied = true;
      if (&cmp != probe) filters.push_back(&cmp);
    }
    if (filters.empty()) return candidates;
    std::vector<size_t> out;
    Tuple fake(tables_.size(), 0);
    for (size_t row_slot : candidates) {
      fake[s] = row_slot;
      bool keep = true;
      for (const BoundComparison* f : filters) {
        if (!EvalComparison(*f, fake)) {
          keep = false;
          break;
        }
      }
      if (keep) out.push_back(row_slot);
    }
    return out;
  }

  StatusOr<std::vector<Tuple>> Join() {
    // Evaluate literal-vs-literal conjuncts once.
    for (BoundComparison& cmp : where_) {
      if (cmp.slots.empty()) {
        cmp.applied = true;
        if (!CompareValues(cmp.lhs.literal, cmp.op, cmp.rhs.literal)) {
          return std::vector<Tuple>{};
        }
      }
    }

    std::vector<Tuple> tuples;
    for (size_t row_slot : SingleTableCandidates(0)) {
      Tuple t(tables_.size(), 0);
      t[0] = row_slot;
      tuples.push_back(std::move(t));
    }

    for (size_t s = 1; s < tables_.size(); ++s) {
      const std::vector<size_t> candidates = SingleTableCandidates(s);

      // Conjuncts that become fully evaluable once slot s joins.
      std::vector<BoundComparison*> applicable;
      BoundComparison* equi = nullptr;  // col(s) = col(joined) probe.
      for (BoundComparison& cmp : where_) {
        if (cmp.applied) continue;
        bool ready = true;
        bool uses_s = false;
        for (size_t slot : cmp.slots) {
          if (slot > s) ready = false;
          if (slot == s) uses_s = true;
        }
        if (!ready || !uses_s) continue;
        applicable.push_back(&cmp);
        cmp.applied = true;
        if (equi == nullptr && cmp.op == sql::CompareOp::kEq &&
            cmp.lhs.is_column && cmp.rhs.is_column &&
            (cmp.lhs.column.slot == s) != (cmp.rhs.column.slot == s)) {
          equi = &cmp;
        }
      }

      std::vector<Tuple> next;
      if (equi != nullptr) {
        // Hash join: build on slot-s candidates keyed by the join column.
        const BoundColumn s_col = equi->lhs.column.slot == s
                                      ? equi->lhs.column
                                      : equi->rhs.column;
        const BoundColumn other_col = equi->lhs.column.slot == s
                                          ? equi->rhs.column
                                          : equi->lhs.column;
        std::unordered_multimap<uint64_t, size_t> build;
        build.reserve(candidates.size());
        for (size_t row_slot : candidates) {
          const sql::Value& v = tables_[s]->RowAt(row_slot)[s_col.col];
          if (v.is_null()) continue;
          build.emplace(v.Hash(), row_slot);
        }
        for (const Tuple& tuple : tuples) {
          const sql::Value& probe =
              tables_[other_col.slot]->RowAt(tuple[other_col.slot])
                  [other_col.col];
          if (probe.is_null()) continue;
          auto [begin, end] = build.equal_range(probe.Hash());
          for (auto it = begin; it != end; ++it) {
            Tuple extended = tuple;
            extended[s] = it->second;
            // Re-check the probe conjunct (hash collisions) and the others.
            bool keep = true;
            for (BoundComparison* cmp : applicable) {
              if (!EvalComparison(*cmp, extended)) {
                keep = false;
                break;
              }
            }
            if (keep) next.push_back(std::move(extended));
          }
        }
      } else {
        // Nested-loop join.
        for (const Tuple& tuple : tuples) {
          for (size_t row_slot : candidates) {
            Tuple extended = tuple;
            extended[s] = row_slot;
            bool keep = true;
            for (BoundComparison* cmp : applicable) {
              if (!EvalComparison(*cmp, extended)) {
                keep = false;
                break;
              }
            }
            if (keep) next.push_back(std::move(extended));
          }
        }
      }
      tuples = std::move(next);
    }
    return tuples;
  }

  // ----- Projection (non-aggregate path). -----

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

  StatusOr<QueryResult> Project(const std::vector<Tuple>& tuples) {
    // Expand the projection into bound columns and names.
    std::vector<BoundColumn> out_cols;
    std::vector<std::string> names;
    for (const sql::SelectItem& item : stmt_.items) {
      if (item.star) {
        for (size_t s = 0; s < tables_.size(); ++s) {
          const catalog::TableSchema& schema = tables_[s]->schema();
          for (size_t c = 0; c < schema.num_columns(); ++c) {
            out_cols.push_back(BoundColumn{s, c});
            names.push_back(stmt_.from[s].effective_name() + "." +
                            schema.columns()[c].name);
          }
        }
      } else {
        DSSP_ASSIGN_OR_RETURN(BoundColumn col, BindColumn(item.column));
        out_cols.push_back(col);
        names.push_back(OutputName(item));
      }
    }

    // Bind ORDER BY keys (evaluated on the joined tuple, pre-projection).
    std::vector<std::pair<BoundColumn, bool>> order_cols;
    for (const sql::OrderByItem& item : stmt_.order_by) {
      DSSP_ASSIGN_OR_RETURN(BoundColumn col, BindColumn(item.column));
      order_cols.emplace_back(col, item.descending);
    }

    std::vector<size_t> order(tuples.size());
    std::iota(order.begin(), order.end(), size_t{0});
    const size_t n = limit_.has_value()
                         ? std::min(*limit_, tuples.size())
                         : tuples.size();
    if (!order_cols.empty()) {
      // Bounded top-k: with a LIMIT this is a partial sort (O(n log k))
      // whose prefix equals the former full std::stable_sort, tie order
      // included (index tie-break == stability, see StableTopK).
      StableTopK(order, n, [&](size_t a, size_t b) {
        for (const auto& [col, desc] : order_cols) {
          const sql::Value& va =
              tables_[col.slot]->RowAt(tuples[a][col.slot])[col.col];
          const sql::Value& vb =
              tables_[col.slot]->RowAt(tuples[b][col.slot])[col.col];
          const int c = va.Compare(vb);
          if (c != 0) return desc ? -c : c;
        }
        return 0;
      });
    }

    std::vector<Row> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const Tuple& tuple = tuples[order[i]];
      Row row;
      row.reserve(out_cols.size());
      for (const BoundColumn& col : out_cols) {
        row.push_back(tables_[col.slot]->RowAt(tuple[col.slot])[col.col]);
      }
      rows.push_back(std::move(row));
    }
    return QueryResult(std::move(names), std::move(rows),
                       !stmt_.order_by.empty());
  }

  // ----- Aggregation path. -----

  StatusOr<QueryResult> Aggregate(const std::vector<Tuple>& tuples) {
    // Bind group-by columns.
    std::vector<BoundColumn> group_cols;
    for (const sql::ColumnRef& ref : stmt_.group_by) {
      DSSP_ASSIGN_OR_RETURN(BoundColumn col, BindColumn(ref));
      group_cols.push_back(col);
    }

    // Validate items: non-aggregate items must appear in GROUP BY.
    struct OutItem {
      sql::AggregateFunc func;
      bool star;
      std::optional<BoundColumn> col;  // Unset for COUNT(*).
      std::optional<size_t> group_index;  // For non-aggregate items.
    };
    std::vector<OutItem> out_items;
    std::vector<std::string> names;
    for (const sql::SelectItem& item : stmt_.items) {
      OutItem out{item.func, item.star, std::nullopt, std::nullopt};
      if (item.func == sql::AggregateFunc::kNone) {
        if (item.star) {
          return InvalidArgumentError("SELECT * cannot mix with aggregates");
        }
        DSSP_ASSIGN_OR_RETURN(BoundColumn col, BindColumn(item.column));
        bool found = false;
        for (size_t g = 0; g < group_cols.size(); ++g) {
          if (group_cols[g].slot == col.slot &&
              group_cols[g].col == col.col) {
            out.group_index = g;
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
        DSSP_ASSIGN_OR_RETURN(BoundColumn col, BindColumn(item.column));
        out.col = col;
      }
      out_items.push_back(out);
      names.push_back(OutputName(item));
    }

    // Group tuples.
    struct Group {
      Row key;
      std::vector<const Tuple*> tuples;
    };
    std::map<std::string, Group> groups;
    for (const Tuple& tuple : tuples) {
      Row key;
      std::string encoded;
      for (const BoundColumn& col : group_cols) {
        const sql::Value& v =
            tables_[col.slot]->RowAt(tuple[col.slot])[col.col];
        key.push_back(v);
        encoded += v.EncodeForKey();
      }
      Group& group = groups[encoded];
      if (group.tuples.empty()) group.key = std::move(key);
      group.tuples.push_back(&tuple);
    }

    // SQL semantics: a global aggregate (no GROUP BY) over an empty input
    // yields one row; a grouped aggregate yields zero rows.
    const bool global = group_cols.empty();
    if (global && groups.empty()) {
      groups.emplace("", Group{});
    }

    std::vector<Row> rows;
    for (auto& [encoded, group] : groups) {
      Row row;
      for (const OutItem& item : out_items) {
        if (item.func == sql::AggregateFunc::kNone) {
          row.push_back(group.key[*item.group_index]);
          continue;
        }
        row.push_back(ComputeAggregate(item.func, item.star, item.col,
                                       group.tuples));
      }
      rows.push_back(std::move(row));
    }

    // ORDER BY over grouped output: keys must be group-by columns.
    if (!stmt_.order_by.empty()) {
      std::vector<std::pair<size_t, bool>> order_keys;
      for (const sql::OrderByItem& item : stmt_.order_by) {
        DSSP_ASSIGN_OR_RETURN(BoundColumn col, BindColumn(item.column));
        bool found = false;
        for (size_t g = 0; g < group_cols.size(); ++g) {
          if (group_cols[g].slot == col.slot &&
              group_cols[g].col == col.col) {
            // Locate an output item carrying this group column; ORDER BY on
            // grouped queries must reference projected group columns.
            for (size_t o = 0; o < out_items.size(); ++o) {
              if (out_items[o].group_index == g) {
                order_keys.emplace_back(o, item.descending);
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
      // Bounded top-k over group rows (the LIMIT applies post-sort): the
      // first min(limit, n) entries of the former full std::stable_sort.
      const size_t k = limit_.has_value() ? std::min(*limit_, rows.size())
                                          : rows.size();
      std::vector<size_t> order(rows.size());
      std::iota(order.begin(), order.end(), size_t{0});
      StableTopK(order, k, [&](size_t a, size_t b) {
        for (const auto& [idx, desc] : order_keys) {
          const int c = rows[a][idx].Compare(rows[b][idx]);
          if (c != 0) return desc ? -c : c;
        }
        return 0;
      });
      std::vector<Row> sorted;
      sorted.reserve(k);
      for (size_t i = 0; i < k; ++i) sorted.push_back(std::move(rows[order[i]]));
      rows = std::move(sorted);
    } else if (limit_.has_value() && rows.size() > *limit_) {
      rows.resize(*limit_);
    }
    return QueryResult(std::move(names), std::move(rows),
                       !stmt_.order_by.empty());
  }

  sql::Value ComputeAggregate(sql::AggregateFunc func, bool star,
                              const std::optional<BoundColumn>& col,
                              const std::vector<const Tuple*>& tuples) const {
    if (func == sql::AggregateFunc::kCount && star) {
      return sql::Value(static_cast<int64_t>(tuples.size()));
    }
    DSSP_CHECK(col.has_value());
    int64_t count = 0;
    double dsum = 0;
    int64_t isum = 0;
    bool saw_double = false;
    std::optional<sql::Value> min_v;
    std::optional<sql::Value> max_v;
    for (const Tuple* tuple : tuples) {
      const sql::Value& v =
          tables_[col->slot]->RowAt((*tuple)[col->slot])[col->col];
      if (v.is_null()) continue;
      ++count;
      switch (func) {
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
    switch (func) {
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
  }

  const Database& db_;
  const sql::SelectStatement& stmt_;
  std::vector<const Table*> tables_;
  std::vector<BoundComparison> where_;
  std::optional<size_t> limit_;
};

}  // namespace

StatusOr<QueryResult> ExecuteSelect(const Database& db,
                                    const sql::SelectStatement& stmt) {
  SelectExecution execution(db, stmt);
  return execution.Run();
}

}  // namespace dssp::engine
