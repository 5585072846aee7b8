#include "templates/template.h"

#include <algorithm>
#include <map>

#include "sql/parser.h"

namespace dssp::templates {

std::string AttributeSetToString(const AttributeSet& set) {
  std::string out = "{";
  bool first = true;
  for (const AttributeId& attr : set) {
    if (!first) out += ", ";
    first = false;
    out += attr.ToString();
  }
  out += "}";
  return out;
}

bool Disjoint(const AttributeSet& a, const AttributeSet& b) {
  // Walk the smaller set.
  const AttributeSet& small = a.size() <= b.size() ? a : b;
  const AttributeSet& large = a.size() <= b.size() ? b : a;
  return std::none_of(small.begin(), small.end(), [&](const AttributeId& x) {
    return large.contains(x);
  });
}

const char* UpdateClassName(UpdateClass cls) {
  switch (cls) {
    case UpdateClass::kInsertion:
      return "insertion";
    case UpdateClass::kDeletion:
      return "deletion";
    case UpdateClass::kModification:
      return "modification";
  }
  return "unknown";
}

std::string AssumptionReport::ToString() const {
  if (ok()) return "ok";
  std::string out;
  if (compares_within_relation) out += "[compares within one relation]";
  if (has_embedded_constants) out += "[embedded constants]";
  if (cartesian_product) out += "[empty selection predicate]";
  return out;
}

namespace {

// Maps FROM-clause slots to physical schemas and resolves column references.
class SlotResolver {
 public:
  static StatusOr<SlotResolver> ForSelect(const sql::SelectStatement& stmt,
                                          const catalog::Catalog& catalog) {
    SlotResolver resolver;
    for (const sql::TableRef& ref : stmt.from) {
      const catalog::TableSchema* schema = catalog.FindTable(ref.table);
      if (schema == nullptr) return NotFoundError("table " + ref.table);
      for (const auto& [name, slot] : resolver.by_name_) {
        if (name == ref.effective_name()) {
          return InvalidArgumentError("duplicate FROM name " + name);
        }
      }
      resolver.by_name_.emplace_back(ref.effective_name(),
                                     resolver.slots_.size());
      resolver.slots_.push_back(schema);
    }
    return resolver;
  }

  static StatusOr<SlotResolver> ForTable(const std::string& table,
                                         const catalog::Catalog& catalog) {
    SlotResolver resolver;
    const catalog::TableSchema* schema = catalog.FindTable(table);
    if (schema == nullptr) return NotFoundError("table " + table);
    resolver.by_name_.emplace_back(table, 0);
    resolver.slots_.push_back(schema);
    return resolver;
  }

  // Resolves `ref` to (slot, physical attribute).
  StatusOr<std::pair<size_t, AttributeId>> Resolve(
      const sql::ColumnRef& ref) const {
    if (!ref.table.empty()) {
      for (const auto& [name, slot] : by_name_) {
        if (name == ref.table) {
          if (!slots_[slot]->HasColumn(ref.column)) {
            return NotFoundError("column " + ref.ToString());
          }
          return std::make_pair(slot,
                                AttributeId{slots_[slot]->name(), ref.column});
        }
      }
      return NotFoundError("table " + ref.table + " in template scope");
    }
    std::optional<std::pair<size_t, AttributeId>> found;
    for (const auto& [name, slot] : by_name_) {
      if (slots_[slot]->HasColumn(ref.column)) {
        if (found.has_value()) {
          return InvalidArgumentError("ambiguous column " + ref.column);
        }
        found = std::make_pair(slot,
                               AttributeId{slots_[slot]->name(), ref.column});
      }
    }
    if (!found.has_value()) return NotFoundError("column " + ref.column);
    return *found;
  }

  size_t num_slots() const { return slots_.size(); }
  const catalog::TableSchema& slot_schema(size_t slot) const {
    return *slots_[slot];
  }

 private:
  std::vector<std::pair<std::string, size_t>> by_name_;
  std::vector<const catalog::TableSchema*> slots_;
};

// Analyzes the WHERE conjunction shared by queries and updates. Populates
// selection attributes, join-equality classification, and assumption flags.
Status AnalyzeWhere(const std::vector<sql::Comparison>& where,
                    const SlotResolver& resolver, AttributeSet* s,
                    bool* only_equality_joins, AssumptionReport* report) {
  for (const sql::Comparison& cmp : where) {
    const bool lhs_col = sql::IsColumn(cmp.lhs);
    const bool rhs_col = sql::IsColumn(cmp.rhs);
    std::optional<size_t> lhs_slot;
    std::optional<size_t> rhs_slot;
    if (lhs_col) {
      DSSP_ASSIGN_OR_RETURN(auto resolved,
                            resolver.Resolve(std::get<sql::ColumnRef>(cmp.lhs)));
      lhs_slot = resolved.first;
      s->insert(resolved.second);
    }
    if (rhs_col) {
      DSSP_ASSIGN_OR_RETURN(auto resolved,
                            resolver.Resolve(std::get<sql::ColumnRef>(cmp.rhs)));
      rhs_slot = resolved.first;
      s->insert(resolved.second);
    }
    if (lhs_col && rhs_col) {
      if (*lhs_slot == *rhs_slot) {
        // Assumption 1 (Section 2.1.1): predicates compare values across two
        // relations or against a constant; within one relation violates it.
        report->compares_within_relation = true;
      } else if (cmp.op != sql::CompareOp::kEq) {
        *only_equality_joins = false;  // Not in class E.
      }
    }
    if (sql::IsLiteral(cmp.lhs) || sql::IsLiteral(cmp.rhs)) {
      // Assumption 2: no constants that might aid invalidation are embedded
      // in the template.
      report->has_embedded_constants = true;
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<QueryTemplate> QueryTemplate::Create(
    std::string id, std::string_view sql, const catalog::Catalog& catalog) {
  DSSP_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  if (stmt.kind() != sql::StatementKind::kSelect) {
    return InvalidArgumentError("query template must be a SELECT: " +
                                std::string(sql));
  }
  QueryTemplate tmpl;
  tmpl.id_ = std::move(id);
  tmpl.statement_ = std::move(stmt);
  tmpl.codec_ = sql::TextCodec(tmpl.statement_);
  const sql::SelectStatement& select = tmpl.statement_.select();

  DSSP_ASSIGN_OR_RETURN(SlotResolver resolver,
                        SlotResolver::ForSelect(select, catalog));

  DSSP_RETURN_IF_ERROR(AnalyzeWhere(select.where, resolver, &tmpl.s_,
                                    &tmpl.only_equality_joins_,
                                    &tmpl.assumptions_));
  if (select.where.empty()) {
    // Assumption 3: every query has a non-empty selection predicate.
    tmpl.assumptions_.cartesian_product = true;
  }

  // ORDER BY attributes belong to S(Q) (Table 5).
  for (const sql::OrderByItem& item : select.order_by) {
    DSSP_ASSIGN_OR_RETURN(auto resolved, resolver.Resolve(item.column));
    tmpl.s_.insert(resolved.second);
  }

  // P(Q): preserved attributes. For aggregates we conservatively include the
  // aggregated column (the output is derived from it); GROUP BY columns
  // appear in the output as well.
  for (const sql::SelectItem& item : select.items) {
    if (item.func != sql::AggregateFunc::kNone) {
      tmpl.has_aggregation_ = true;
      if (!item.star) {
        DSSP_ASSIGN_OR_RETURN(auto resolved, resolver.Resolve(item.column));
        tmpl.p_.insert(resolved.second);
      }
      // Aggregate outputs are derived values, not preserved attributes.
      tmpl.output_columns_.push_back(OutputColumn{});
      continue;
    }
    if (item.star) {
      // Expansion order matches the engine: FROM slots in order, columns in
      // schema order.
      for (size_t slot = 0; slot < resolver.num_slots(); ++slot) {
        const catalog::TableSchema& schema = resolver.slot_schema(slot);
        for (const catalog::Column& col : schema.columns()) {
          const AttributeId attr{schema.name(), col.name};
          tmpl.p_.insert(attr);
          tmpl.output_columns_.push_back(OutputColumn{slot, attr});
        }
      }
      continue;
    }
    DSSP_ASSIGN_OR_RETURN(auto resolved, resolver.Resolve(item.column));
    tmpl.p_.insert(resolved.second);
    tmpl.output_columns_.push_back(
        OutputColumn{resolved.first, resolved.second});
  }
  for (const sql::ColumnRef& col : select.group_by) {
    tmpl.has_aggregation_ = true;
    DSSP_ASSIGN_OR_RETURN(auto resolved, resolver.Resolve(col));
    tmpl.p_.insert(resolved.second);
  }

  return tmpl;
}

StatusOr<UpdateTemplate> UpdateTemplate::Create(
    std::string id, std::string_view sql, const catalog::Catalog& catalog) {
  DSSP_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  if (stmt.kind() == sql::StatementKind::kSelect) {
    return InvalidArgumentError("update template must not be a SELECT: " +
                                std::string(sql));
  }
  UpdateTemplate tmpl;
  tmpl.id_ = std::move(id);
  tmpl.statement_ = std::move(stmt);
  tmpl.codec_ = sql::TextCodec(tmpl.statement_);

  switch (tmpl.statement_.kind()) {
    case sql::StatementKind::kInsert: {
      const sql::InsertStatement& insert = tmpl.statement_.insert();
      tmpl.class_ = UpdateClass::kInsertion;
      tmpl.table_ = insert.table;
      DSSP_ASSIGN_OR_RETURN(SlotResolver resolver,
                            SlotResolver::ForTable(insert.table, catalog));
      const catalog::TableSchema& schema = resolver.slot_schema(0);
      for (const std::string& col : insert.columns) {
        if (!schema.HasColumn(col)) {
          return NotFoundError("column " + col + " in table " + insert.table);
        }
      }
      // M(U): all attributes of the table (Table 5).
      for (const catalog::Column& col : schema.columns()) {
        tmpl.m_.insert(AttributeId{schema.name(), col.name});
      }
      for (const sql::Operand& value : insert.values) {
        if (sql::IsLiteral(value)) {
          tmpl.assumptions_.has_embedded_constants = true;
        }
      }
      break;
    }
    case sql::StatementKind::kDelete: {
      const sql::DeleteStatement& del = tmpl.statement_.del();
      tmpl.class_ = UpdateClass::kDeletion;
      tmpl.table_ = del.table;
      DSSP_ASSIGN_OR_RETURN(SlotResolver resolver,
                            SlotResolver::ForTable(del.table, catalog));
      bool unused = true;
      DSSP_RETURN_IF_ERROR(AnalyzeWhere(del.where, resolver, &tmpl.s_,
                                        &unused, &tmpl.assumptions_));
      const catalog::TableSchema& schema = resolver.slot_schema(0);
      for (const catalog::Column& col : schema.columns()) {
        tmpl.m_.insert(AttributeId{schema.name(), col.name});
      }
      break;
    }
    case sql::StatementKind::kUpdate: {
      const sql::UpdateStatement& update = tmpl.statement_.update();
      tmpl.class_ = UpdateClass::kModification;
      tmpl.table_ = update.table;
      DSSP_ASSIGN_OR_RETURN(SlotResolver resolver,
                            SlotResolver::ForTable(update.table, catalog));
      bool unused = true;
      DSSP_RETURN_IF_ERROR(AnalyzeWhere(update.where, resolver, &tmpl.s_,
                                        &unused, &tmpl.assumptions_));
      const catalog::TableSchema& schema = resolver.slot_schema(0);
      for (const auto& [col, value] : update.set) {
        if (!schema.HasColumn(col)) {
          return NotFoundError("column " + col + " in table " + update.table);
        }
        tmpl.m_.insert(AttributeId{schema.name(), col});
        if (sql::IsLiteral(value)) {
          tmpl.assumptions_.has_embedded_constants = true;
        }
      }
      break;
    }
    case sql::StatementKind::kSelect:
      DSSP_UNREACHABLE("checked above");
  }
  return tmpl;
}

namespace {

bool SameSelectItem(const sql::SelectItem& a, const sql::SelectItem& b) {
  return a.func == b.func && a.star == b.star && a.column == b.column;
}

bool SameTableRef(const sql::TableRef& a, const sql::TableRef& b) {
  return a.table == b.table && a.alias == b.alias;
}

bool SameOrderByItem(const sql::OrderByItem& a, const sql::OrderByItem& b) {
  return a.column == b.column && a.descending == b.descending;
}

// Matches one template operand against the corresponding operand of a bound
// instance, capturing parameter bindings. `have` tracks which parameter
// indexes are already bound (a repeated parameter must rebind equal values).
bool MatchOperand(const sql::Operand& tmpl_op, const sql::Operand& bound_op,
                  std::vector<sql::Value>* params, std::vector<bool>* have) {
  if (sql::IsColumn(tmpl_op)) {
    return sql::IsColumn(bound_op) &&
           std::get<sql::ColumnRef>(tmpl_op) ==
               std::get<sql::ColumnRef>(bound_op);
  }
  if (!sql::IsLiteral(bound_op)) return false;  // Instance must be bound.
  const sql::Value& value = std::get<sql::Value>(bound_op);
  if (sql::IsLiteral(tmpl_op)) {
    // Embedded template constants must match exactly (same type and bits;
    // EncodeForKey distinguishes 1 from 1.0 and NULL from everything).
    return std::get<sql::Value>(tmpl_op).EncodeForKey() ==
           value.EncodeForKey();
  }
  const int index = std::get<sql::Parameter>(tmpl_op).index;
  if (index < 0 || static_cast<size_t>(index) >= params->size()) return false;
  if ((*have)[index]) {
    return (*params)[index].EncodeForKey() == value.EncodeForKey();
  }
  (*have)[index] = true;
  (*params)[index] = value;
  return true;
}

}  // namespace

bool QueryTemplate::MatchInstance(const sql::SelectStatement& bound,
                                  std::vector<sql::Value>* params) const {
  const sql::SelectStatement& tmpl = statement_.select();
  if (tmpl.items.size() != bound.items.size() ||
      tmpl.from.size() != bound.from.size() ||
      tmpl.where.size() != bound.where.size() ||
      tmpl.group_by.size() != bound.group_by.size() ||
      tmpl.order_by.size() != bound.order_by.size() ||
      tmpl.limit.has_value() != bound.limit.has_value()) {
    return false;
  }
  for (size_t i = 0; i < tmpl.items.size(); ++i) {
    if (!SameSelectItem(tmpl.items[i], bound.items[i])) return false;
  }
  for (size_t i = 0; i < tmpl.from.size(); ++i) {
    if (!SameTableRef(tmpl.from[i], bound.from[i])) return false;
  }
  for (size_t i = 0; i < tmpl.group_by.size(); ++i) {
    if (tmpl.group_by[i] != bound.group_by[i]) return false;
  }
  for (size_t i = 0; i < tmpl.order_by.size(); ++i) {
    if (!SameOrderByItem(tmpl.order_by[i], bound.order_by[i])) return false;
  }

  params->assign(static_cast<size_t>(num_params()), sql::Value());
  std::vector<bool> have(params->size(), false);
  for (size_t i = 0; i < tmpl.where.size(); ++i) {
    if (tmpl.where[i].op != bound.where[i].op) return false;
    if (!MatchOperand(tmpl.where[i].lhs, bound.where[i].lhs, params, &have) ||
        !MatchOperand(tmpl.where[i].rhs, bound.where[i].rhs, params, &have)) {
      return false;
    }
  }
  if (tmpl.limit.has_value() &&
      !MatchOperand(*tmpl.limit, *bound.limit, params, &have)) {
    return false;
  }
  // Every parameter must have been captured (the parser numbers parameters
  // densely, so this only fails on hand-built statements).
  for (size_t i = 0; i < have.size(); ++i) {
    if (!have[i]) return false;
  }
  return true;
}

std::string SelectShapeKey(const sql::SelectStatement& stmt) {
  sql::SelectStatement masked = stmt;
  for (sql::Comparison& cmp : masked.where) {
    if (!sql::IsColumn(cmp.lhs)) cmp.lhs = sql::Parameter{};
    if (!sql::IsColumn(cmp.rhs)) cmp.rhs = sql::Parameter{};
  }
  if (masked.limit.has_value() && !sql::IsColumn(*masked.limit)) {
    masked.limit = sql::Parameter{};
  }
  return sql::ToSql(masked);
}

bool IsIgnorable(const UpdateTemplate& u, const QueryTemplate& q) {
  AttributeSet p_union_s = q.preserved_attributes();
  p_union_s.insert(q.selection_attributes().begin(),
                   q.selection_attributes().end());
  return Disjoint(u.modified_attributes(), p_union_s);
}

bool IsResultUnhelpful(const UpdateTemplate& u, const QueryTemplate& q) {
  return Disjoint(u.selection_attributes(), q.preserved_attributes());
}

}  // namespace dssp::templates
