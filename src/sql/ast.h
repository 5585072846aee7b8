#ifndef DSSP_SQL_AST_H_
#define DSSP_SQL_AST_H_

#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "sql/value.h"

namespace dssp::sql {

// The query/update language of the paper (Section 2.1):
//  - SELECT-project-join queries with conjunctive comparison predicates,
//    optional ORDER BY, top-k (LIMIT), and (Section 5.1.1) aggregation /
//    GROUP BY constructs;
//  - INSERT of a fully specified row, DELETE with an arithmetic predicate,
//    and UPDATE (modification) of non-key attributes.
// Templates contain `?` parameters bound at execution time.

// The five comparison operators of the paper's selection predicates.
enum class CompareOp {
  kEq,
  kLt,
  kLe,
  kGt,
  kGe,
};

const char* CompareOpSymbol(CompareOp op);

// Flips the operator as if swapping the operand sides (e.g., a < b ~ b > a).
CompareOp ReverseCompareOp(CompareOp op);

// A (possibly qualified) column reference. `table` is the alias or table
// name as written; empty if unqualified.
struct ColumnRef {
  std::string table;
  std::string column;

  friend bool operator==(const ColumnRef& a, const ColumnRef& b) = default;

  std::string ToString() const {
    return table.empty() ? column : table + "." + column;
  }
};

// A `?` placeholder; `index` is its zero-based position in the statement.
struct Parameter {
  int index = 0;

  friend bool operator==(const Parameter& a, const Parameter& b) = default;
};

// Either a literal, a column reference, or a parameter.
using Operand = std::variant<Value, ColumnRef, Parameter>;

bool IsLiteral(const Operand& op);
bool IsColumn(const Operand& op);
bool IsParameter(const Operand& op);

std::string OperandToString(const Operand& op);

// One conjunct of a WHERE clause: `lhs op rhs`.
struct Comparison {
  Operand lhs;
  CompareOp op;
  Operand rhs;
};

enum class AggregateFunc {
  kNone = 0,
  kMin,
  kMax,
  kCount,
  kSum,
  kAvg,
};

const char* AggregateFuncName(AggregateFunc func);

// One item of the select list: a column, `*`, or an aggregate. `star` with
// func == kNone means `SELECT *`; with func == kCount means COUNT(*).
struct SelectItem {
  AggregateFunc func = AggregateFunc::kNone;
  bool star = false;
  ColumnRef column;
};

// A FROM-clause entry. The effective name for qualification is the alias if
// present, otherwise the table name.
struct TableRef {
  std::string table;
  std::string alias;

  const std::string& effective_name() const {
    return alias.empty() ? table : alias;
  }
};

struct OrderByItem {
  ColumnRef column;
  bool descending = false;
};

struct SelectStatement {
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  std::vector<Comparison> where;  // Conjunction of comparisons.
  std::vector<ColumnRef> group_by;
  std::vector<OrderByItem> order_by;
  std::optional<Operand> limit;  // Integer literal or parameter.

  bool has_aggregate() const;
};

struct InsertStatement {
  std::string table;
  std::vector<std::string> columns;
  std::vector<Operand> values;  // Literals or parameters only.
};

struct DeleteStatement {
  std::string table;
  std::vector<Comparison> where;
};

struct UpdateStatement {
  std::string table;
  // SET column = operand (literal or parameter).
  std::vector<std::pair<std::string, Operand>> set;
  std::vector<Comparison> where;
};

enum class StatementKind {
  kSelect,
  kInsert,
  kDelete,
  kUpdate,
};

const char* StatementKindName(StatementKind kind);

// A parsed SQL statement of any of the four kinds.
struct Statement {
  std::variant<SelectStatement, InsertStatement, DeleteStatement,
               UpdateStatement>
      node;
  int num_params = 0;

  StatementKind kind() const {
    switch (node.index()) {
      case 0:
        return StatementKind::kSelect;
      case 1:
        return StatementKind::kInsert;
      case 2:
        return StatementKind::kDelete;
      default:
        return StatementKind::kUpdate;
    }
  }

  bool is_query() const { return kind() == StatementKind::kSelect; }
  bool is_update() const { return !is_query(); }

  const SelectStatement& select() const {
    return std::get<SelectStatement>(node);
  }
  SelectStatement& select() { return std::get<SelectStatement>(node); }
  const InsertStatement& insert() const {
    return std::get<InsertStatement>(node);
  }
  InsertStatement& insert() { return std::get<InsertStatement>(node); }
  const DeleteStatement& del() const {
    return std::get<DeleteStatement>(node);
  }
  DeleteStatement& del() { return std::get<DeleteStatement>(node); }
  const UpdateStatement& update() const {
    return std::get<UpdateStatement>(node);
  }
  UpdateStatement& update() { return std::get<UpdateStatement>(node); }
};

// Renders a statement back to canonical SQL text. The output re-parses to an
// equivalent statement; parameters print as `?`.
std::string ToSql(const Statement& stmt);
std::string ToSql(const SelectStatement& stmt);

// A statement's SQL text split at its `?` holes, built once (per template).
// Render(params, &out) appends ToSql(BindParameters(stmt, params)) byte for
// byte without binding: the literal fragments, with one
// Value::ToSqlLiteral per hole.
class TextCodec {
 public:
  TextCodec() = default;
  explicit TextCodec(const Statement& stmt);

  // DSSP_CHECKs that `params` covers every hole's parameter index.
  void Render(const std::vector<Value>& params, std::string* out) const;

 private:
  std::vector<std::string> fragments_;  // One more than holes_.
  std::vector<int> holes_;              // Parameter index of each hole.
};

// Replaces every Parameter operand with the corresponding literal from
// `params`. DSSP_CHECKs that `params` covers all parameter indexes.
Statement BindParameters(const Statement& stmt,
                         const std::vector<Value>& params);

}  // namespace dssp::sql

#endif  // DSSP_SQL_AST_H_
