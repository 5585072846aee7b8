#include "engine/database.h"

#include <utility>
#include <vector>

#include "engine/eval.h"
#include "engine/executor.h"
#include "sql/parser.h"

namespace dssp::engine {

namespace {

// Candidate rows for a single-table conjunctive predicate: probes the column
// of the first `column = literal` conjunct (Table::SlotsWithValue), else
// scans.
std::vector<size_t> CandidateSlots(const Table& table,
                                   const std::vector<sql::Comparison>& where) {
  const catalog::TableSchema& schema = table.schema();
  for (const sql::Comparison& cmp : where) {
    if (cmp.op != sql::CompareOp::kEq) continue;
    const sql::Operand* col_op = nullptr;
    const sql::Operand* lit_op = nullptr;
    if (sql::IsColumn(cmp.lhs) && sql::IsLiteral(cmp.rhs)) {
      col_op = &cmp.lhs;
      lit_op = &cmp.rhs;
    } else if (sql::IsColumn(cmp.rhs) && sql::IsLiteral(cmp.lhs)) {
      col_op = &cmp.rhs;
      lit_op = &cmp.lhs;
    } else {
      continue;
    }
    const sql::ColumnRef& ref = std::get<sql::ColumnRef>(*col_op);
    if (!ref.table.empty() && ref.table != schema.name()) continue;
    const std::optional<size_t> idx = schema.ColumnIndex(ref.column);
    if (!idx.has_value()) continue;
    return table.SlotsWithValue(*idx, std::get<sql::Value>(*lit_op));
  }
  return table.AllSlots();
}

}  // namespace

Status Database::CreateTable(catalog::TableSchema schema) {
  DSSP_RETURN_IF_ERROR(catalog_.AddTable(schema));
  const catalog::TableSchema& stored = catalog_.GetTable(schema.name());
  tables_.emplace(stored.name(), Table(stored));
  return Status::Ok();
}

void Database::IndexEqualityColumns(const sql::Statement& stmt) {
  // FROM names (alias or table) -> table, in FROM order.
  std::vector<std::pair<std::string, Table*>> scope;
  const std::vector<sql::Comparison>* where = nullptr;
  switch (stmt.kind()) {
    case sql::StatementKind::kSelect:
      for (const sql::TableRef& ref : stmt.select().from) {
        scope.emplace_back(ref.effective_name(), FindMutableTable(ref.table));
      }
      where = &stmt.select().where;
      break;
    case sql::StatementKind::kDelete:
      scope.emplace_back(stmt.del().table, FindMutableTable(stmt.del().table));
      where = &stmt.del().where;
      break;
    case sql::StatementKind::kUpdate:
      scope.emplace_back(stmt.update().table,
                         FindMutableTable(stmt.update().table));
      where = &stmt.update().where;
      break;
    case sql::StatementKind::kInsert:
      return;
  }
  for (const sql::Comparison& cmp : *where) {
    if (cmp.op != sql::CompareOp::kEq) continue;
    if (sql::IsColumn(cmp.lhs) == sql::IsColumn(cmp.rhs)) continue;
    const sql::ColumnRef& ref = std::get<sql::ColumnRef>(
        sql::IsColumn(cmp.lhs) ? cmp.lhs : cmp.rhs);
    Table* target = nullptr;
    size_t col = 0;
    int matches = 0;
    for (const auto& [name, table] : scope) {
      if (table == nullptr || (!ref.table.empty() && ref.table != name)) {
        continue;
      }
      const std::optional<size_t> idx = table->schema().ColumnIndex(ref.column);
      if (!idx.has_value()) continue;
      target = table;
      col = *idx;
      ++matches;
    }
    if (matches == 1) target->EnsureIndex(col);
  }
}

const Table* Database::FindTable(std::string_view name) const {
  const auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

Table* Database::FindMutableTable(std::string_view name) {
  const auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const Table& Database::GetTable(std::string_view name) const {
  const Table* table = FindTable(name);
  DSSP_CHECK(table != nullptr);
  return *table;
}

StatusOr<QueryResult> Database::ExecuteQuery(
    const sql::Statement& stmt) const {
  if (stmt.kind() != sql::StatementKind::kSelect) {
    return InvalidArgumentError("ExecuteQuery requires a SELECT");
  }
  if (stmt.num_params != 0) {
    return InvalidArgumentError("query has unbound parameters");
  }
  return ExecuteSelect(*this, stmt.select());
}

StatusOr<UpdateEffect> Database::ExecuteUpdate(const sql::Statement& stmt) {
  if (stmt.num_params != 0) {
    return InvalidArgumentError("update has unbound parameters");
  }
  switch (stmt.kind()) {
    case sql::StatementKind::kInsert:
      return ExecuteInsert(stmt.insert());
    case sql::StatementKind::kDelete:
      return ExecuteDelete(stmt.del());
    case sql::StatementKind::kUpdate:
      return ExecuteModify(stmt.update());
    case sql::StatementKind::kSelect:
      return InvalidArgumentError("ExecuteUpdate requires a non-SELECT");
  }
  DSSP_UNREACHABLE("bad StatementKind");
}

StatusOr<UpdateEffect> Database::ExecuteInsert(
    const sql::InsertStatement& stmt) {
  Table* table = FindMutableTable(stmt.table);
  if (table == nullptr) return NotFoundError("table " + stmt.table);
  const catalog::TableSchema& schema = table->schema();

  // The paper's insertion statements fully specify a row; require every
  // column to be present exactly once.
  if (stmt.columns.size() != schema.num_columns()) {
    return InvalidArgumentError("INSERT into " + stmt.table +
                                " must specify all columns");
  }
  Row row(schema.num_columns());
  std::vector<bool> seen(schema.num_columns(), false);
  for (size_t i = 0; i < stmt.columns.size(); ++i) {
    const std::optional<size_t> idx = schema.ColumnIndex(stmt.columns[i]);
    if (!idx.has_value()) {
      return NotFoundError("column " + stmt.columns[i] + " in table " +
                           stmt.table);
    }
    if (seen[*idx]) {
      return InvalidArgumentError("duplicate column " + stmt.columns[i]);
    }
    seen[*idx] = true;
    if (!sql::IsLiteral(stmt.values[i])) {
      return InvalidArgumentError("INSERT values must be bound literals");
    }
    row[*idx] = std::get<sql::Value>(stmt.values[i]);
  }

  DSSP_RETURN_IF_ERROR(InsertRow(stmt.table, std::move(row)));
  return UpdateEffect{1};
}

Status Database::InsertRow(std::string_view table_name, Row row) {
  Table* table = FindMutableTable(table_name);
  if (table == nullptr) {
    return NotFoundError("table " + std::string(table_name));
  }
  const catalog::TableSchema& schema = table->schema();
  if (row.size() != schema.num_columns()) {
    return InvalidArgumentError("row arity mismatch for " +
                                std::string(table_name));
  }
  // Foreign-key existence checks.
  for (const catalog::ForeignKey& fk : schema.foreign_keys()) {
    const size_t local = *schema.ColumnIndex(fk.column);
    if (row[local].is_null()) continue;
    const Table* ref_table = FindTable(fk.ref_table);
    DSSP_CHECK(ref_table != nullptr);
    const size_t ref_col = *ref_table->schema().ColumnIndex(fk.ref_column);
    // A self-referencing FK may be satisfied by the row being inserted
    // (e.g. a root employee who is their own manager).
    if (fk.ref_table == table_name &&
        !row[ref_col].is_null() &&
        row[ref_col].Compare(row[local]) == 0) {
      continue;
    }
    if (!ref_table->ContainsValue(ref_col, row[local])) {
      return ConstraintViolationError(
          "foreign key violation: " + std::string(table_name) + "." +
          fk.column + " -> " + fk.ref_table + "." + fk.ref_column);
    }
  }
  return table->Insert(std::move(row));
}

StatusOr<UpdateEffect> Database::ExecuteDelete(
    const sql::DeleteStatement& stmt) {
  Table* table = FindMutableTable(stmt.table);
  if (table == nullptr) return NotFoundError("table " + stmt.table);
  const catalog::TableSchema& schema = table->schema();

  std::vector<size_t> to_delete;
  const BoundPredicate predicate = BoundPredicate::Bind(schema, stmt.where);
  for (size_t slot : CandidateSlots(*table, stmt.where)) {
    DSSP_ASSIGN_OR_RETURN(bool matches, predicate.Matches(table->RowAt(slot)));
    if (matches) to_delete.push_back(slot);
  }
  for (size_t slot : to_delete) table->DeleteSlot(slot);
  return UpdateEffect{to_delete.size()};
}

StatusOr<UpdateEffect> Database::ExecuteModify(
    const sql::UpdateStatement& stmt) {
  Table* table = FindMutableTable(stmt.table);
  if (table == nullptr) return NotFoundError("table " + stmt.table);
  const catalog::TableSchema& schema = table->schema();

  // Validate SET targets: existing, non-key columns (the paper's
  // modification class), bound literal values of a fitting type.
  std::vector<std::pair<size_t, sql::Value>> assignments;
  for (const auto& [col_name, operand] : stmt.set) {
    const std::optional<size_t> idx = schema.ColumnIndex(col_name);
    if (!idx.has_value()) {
      return NotFoundError("column " + col_name + " in table " + stmt.table);
    }
    if (schema.IsPrimaryKeyColumn(col_name)) {
      return InvalidArgumentError(
          "modifications must not change primary-key column " + col_name);
    }
    if (!sql::IsLiteral(operand)) {
      return InvalidArgumentError("UPDATE values must be bound literals");
    }
    const sql::Value& value = std::get<sql::Value>(operand);
    if (!catalog::ValueFitsColumn(value.type(), schema.columns()[*idx].type)) {
      return InvalidArgumentError("type mismatch assigning to " + col_name);
    }
    assignments.emplace_back(*idx, value);
  }

  std::vector<size_t> matched;
  const BoundPredicate predicate = BoundPredicate::Bind(schema, stmt.where);
  for (size_t slot : CandidateSlots(*table, stmt.where)) {
    DSSP_ASSIGN_OR_RETURN(bool matches, predicate.Matches(table->RowAt(slot)));
    if (matches) matched.push_back(slot);
  }

  // Atomic UNIQUE validation before any row is touched: a non-null value
  // assigned to a unique column must not be held by any unmatched row, and
  // cannot be given to more than one matched row.
  for (const auto& [col, value] : assignments) {
    const std::string& col_name = schema.columns()[col].name;
    if (value.is_null() || !schema.IsUniqueColumn(col_name)) continue;
    if (matched.size() > 1) {
      return ConstraintViolationError(
          "assigning unique column " + col_name + " to multiple rows");
    }
    for (size_t holder : table->SlotsWithValue(col, value)) {
      if (matched.empty() || holder != matched[0]) {
        return ConstraintViolationError("duplicate value for unique column " +
                                        stmt.table + "." + col_name);
      }
    }
  }

  for (size_t slot : matched) {
    for (const auto& [col, value] : assignments) {
      table->UpdateSlot(slot, col, value);
    }
  }
  return UpdateEffect{matched.size()};
}

StatusOr<QueryResult> Database::Query(std::string_view sql) const {
  DSSP_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  return ExecuteQuery(stmt);
}

StatusOr<UpdateEffect> Database::Update(std::string_view sql) {
  DSSP_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  return ExecuteUpdate(stmt);
}

size_t Database::TotalRows() const {
  size_t total = 0;
  for (const auto& [name, table] : tables_) total += table.num_rows();
  return total;
}

}  // namespace dssp::engine
