#ifndef DSSP_ENGINE_DATABASE_H_
#define DSSP_ENGINE_DATABASE_H_

#include <map>
#include <string>
#include <string_view>

#include "catalog/schema.h"
#include "common/status.h"
#include "engine/query_result.h"
#include "engine/table.h"
#include "sql/ast.h"

namespace dssp::engine {

// The effect of applying an update statement.
struct UpdateEffect {
  size_t rows_affected = 0;

  // True if the database changed (the paper's assumption D != D + U holds
  // when this is true).
  bool changed() const { return rows_affected > 0; }
};

// An in-memory relational database: the "home server" master copy in the
// DSSP architecture. Enforces primary-key uniqueness and (on insert)
// foreign-key existence; plays the role MySQL4 plays in the paper's testbed.
class Database {
 public:
  Database() = default;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Registers a table (see catalog::Catalog::AddTable for failure modes).
  Status CreateTable(catalog::TableSchema schema);

  const catalog::Catalog& catalog() const { return catalog_; }

  const Table* FindTable(std::string_view name) const;
  Table* FindMutableTable(std::string_view name);
  const Table& GetTable(std::string_view name) const;

  // Indexes every column `stmt` compares with `=` against a literal or a
  // parameter — the columns its executions may probe (see Table). Columns
  // that do not resolve to exactly one table of the statement are skipped.
  // Called once per registered template, before traffic.
  void IndexEqualityColumns(const sql::Statement& stmt);

  // Executes a parameter-free SELECT.
  StatusOr<QueryResult> ExecuteQuery(const sql::Statement& stmt) const;

  // Executes a parameter-free INSERT / DELETE / UPDATE.
  //  - INSERT must supply every column; checks PK uniqueness and FK
  //    existence.
  //  - DELETE removes all rows satisfying the conjunctive predicate.
  //  - UPDATE must not modify primary-key columns (the paper's modification
  //    class only touches non-key attributes).
  StatusOr<UpdateEffect> ExecuteUpdate(const sql::Statement& stmt);

  // Inserts a full row (schema column order) with the same PK/FK checks as
  // an INSERT statement. Fast path for bulk population.
  Status InsertRow(std::string_view table, Row row);

  // Parses and executes; convenience for examples and tests.
  StatusOr<QueryResult> Query(std::string_view sql) const;
  StatusOr<UpdateEffect> Update(std::string_view sql);

  size_t TotalRows() const;

 private:
  StatusOr<UpdateEffect> ExecuteInsert(const sql::InsertStatement& stmt);
  StatusOr<UpdateEffect> ExecuteDelete(const sql::DeleteStatement& stmt);
  StatusOr<UpdateEffect> ExecuteModify(const sql::UpdateStatement& stmt);

  catalog::Catalog catalog_;
  std::map<std::string, Table, std::less<>> tables_;
};

}  // namespace dssp::engine

#endif  // DSSP_ENGINE_DATABASE_H_
