#include "sql/ast.h"

#include <functional>

#include "common/macros.h"

namespace dssp::sql {

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  DSSP_UNREACHABLE("bad CompareOp");
}

CompareOp ReverseCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kEq;
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
  }
  DSSP_UNREACHABLE("bad CompareOp");
}

bool IsLiteral(const Operand& op) {
  return std::holds_alternative<Value>(op);
}
bool IsColumn(const Operand& op) {
  return std::holds_alternative<ColumnRef>(op);
}
bool IsParameter(const Operand& op) {
  return std::holds_alternative<Parameter>(op);
}

std::string OperandToString(const Operand& op) {
  if (IsLiteral(op)) return std::get<Value>(op).ToSqlLiteral();
  if (IsColumn(op)) return std::get<ColumnRef>(op).ToString();
  return "?";
}

const char* AggregateFuncName(AggregateFunc func) {
  switch (func) {
    case AggregateFunc::kNone:
      return "";
    case AggregateFunc::kMin:
      return "MIN";
    case AggregateFunc::kMax:
      return "MAX";
    case AggregateFunc::kCount:
      return "COUNT";
    case AggregateFunc::kSum:
      return "SUM";
    case AggregateFunc::kAvg:
      return "AVG";
  }
  DSSP_UNREACHABLE("bad AggregateFunc");
}

bool SelectStatement::has_aggregate() const {
  for (const SelectItem& item : items) {
    if (item.func != AggregateFunc::kNone) return true;
  }
  return false;
}

const char* StatementKindName(StatementKind kind) {
  switch (kind) {
    case StatementKind::kSelect:
      return "select";
    case StatementKind::kInsert:
      return "insert";
    case StatementKind::kDelete:
      return "delete";
    case StatementKind::kUpdate:
      return "update";
  }
  DSSP_UNREACHABLE("bad StatementKind");
}

namespace {

// The one SQL writer. Every parameter prints as `?`, unless `on_parameter`
// is set: then the writer calls it with the parameter's index instead, at
// the point where `out` ends just before the hole.
struct SqlWriter {
  std::string& out;
  const std::function<void(int)>* on_parameter = nullptr;

  void WriteOperand(const Operand& op) {
    if (on_parameter != nullptr && IsParameter(op)) {
      (*on_parameter)(std::get<Parameter>(op).index);
    } else {
      out += OperandToString(op);
    }
  }

  void WriteWhere(const std::vector<Comparison>& where) {
    if (where.empty()) return;
    out += " WHERE ";
    for (size_t i = 0; i < where.size(); ++i) {
      if (i != 0) out += " AND ";
      WriteOperand(where[i].lhs);
      out += " ";
      out += CompareOpSymbol(where[i].op);
      out += " ";
      WriteOperand(where[i].rhs);
    }
  }

  void Write(const SelectStatement& stmt) {
    out += "SELECT ";
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      if (i != 0) out += ", ";
      const SelectItem& item = stmt.items[i];
      if (item.func != AggregateFunc::kNone) {
        out += AggregateFuncName(item.func);
        out += "(";
        out += item.star ? "*" : item.column.ToString();
        out += ")";
      } else if (item.star) {
        out += "*";
      } else {
        out += item.column.ToString();
      }
    }
    out += " FROM ";
    for (size_t i = 0; i < stmt.from.size(); ++i) {
      if (i != 0) out += ", ";
      out += stmt.from[i].table;
      if (!stmt.from[i].alias.empty()) {
        out += " AS ";
        out += stmt.from[i].alias;
      }
    }
    WriteWhere(stmt.where);
    if (!stmt.group_by.empty()) {
      out += " GROUP BY ";
      for (size_t i = 0; i < stmt.group_by.size(); ++i) {
        if (i != 0) out += ", ";
        out += stmt.group_by[i].ToString();
      }
    }
    if (!stmt.order_by.empty()) {
      out += " ORDER BY ";
      for (size_t i = 0; i < stmt.order_by.size(); ++i) {
        if (i != 0) out += ", ";
        out += stmt.order_by[i].column.ToString();
        if (stmt.order_by[i].descending) out += " DESC";
      }
    }
    if (stmt.limit.has_value()) {
      out += " LIMIT ";
      WriteOperand(*stmt.limit);
    }
  }

  void Write(const InsertStatement& stmt) {
    out += "INSERT INTO ";
    out += stmt.table;
    out += " (";
    for (size_t i = 0; i < stmt.columns.size(); ++i) {
      if (i != 0) out += ", ";
      out += stmt.columns[i];
    }
    out += ") VALUES (";
    for (size_t i = 0; i < stmt.values.size(); ++i) {
      if (i != 0) out += ", ";
      WriteOperand(stmt.values[i]);
    }
    out += ")";
  }

  void Write(const DeleteStatement& stmt) {
    out += "DELETE FROM ";
    out += stmt.table;
    WriteWhere(stmt.where);
  }

  void Write(const UpdateStatement& stmt) {
    out += "UPDATE ";
    out += stmt.table;
    out += " SET ";
    for (size_t i = 0; i < stmt.set.size(); ++i) {
      if (i != 0) out += ", ";
      out += stmt.set[i].first;
      out += " = ";
      WriteOperand(stmt.set[i].second);
    }
    WriteWhere(stmt.where);
  }

  void Write(const Statement& stmt) {
    std::visit([this](const auto& node) { Write(node); }, stmt.node);
  }
};

template <typename Stmt>
std::string WriteToString(const Stmt& stmt) {
  std::string out;
  SqlWriter{out}.Write(stmt);
  return out;
}

}  // namespace

std::string ToSql(const Statement& stmt) { return WriteToString(stmt); }
std::string ToSql(const SelectStatement& stmt) { return WriteToString(stmt); }

TextCodec::TextCodec(const Statement& stmt) {
  std::string text;
  const std::function<void(int)> close_fragment = [&](int index) {
    fragments_.push_back(std::move(text));
    text.clear();
    holes_.push_back(index);
  };
  SqlWriter{text, &close_fragment}.Write(stmt);
  fragments_.push_back(std::move(text));
}

void TextCodec::Render(const std::vector<Value>& params,
                       std::string* out) const {
  for (size_t i = 0; i < holes_.size(); ++i) {
    *out += fragments_[i];
    DSSP_CHECK(static_cast<size_t>(holes_[i]) < params.size());
    *out += params[holes_[i]].ToSqlLiteral();
  }
  *out += fragments_.back();
}

namespace {

void BindOperand(Operand& op, const std::vector<Value>& params) {
  if (IsParameter(op)) {
    const int index = std::get<Parameter>(op).index;
    DSSP_CHECK(index >= 0 &&
               static_cast<size_t>(index) < params.size());
    op = params[index];
  }
}

void BindWhere(std::vector<Comparison>& where,
               const std::vector<Value>& params) {
  for (Comparison& cmp : where) {
    BindOperand(cmp.lhs, params);
    BindOperand(cmp.rhs, params);
  }
}

}  // namespace

Statement BindParameters(const Statement& stmt,
                         const std::vector<Value>& params) {
  DSSP_CHECK(static_cast<size_t>(stmt.num_params) <= params.size());
  Statement bound = stmt;
  bound.num_params = 0;
  switch (bound.kind()) {
    case StatementKind::kSelect: {
      SelectStatement& s = bound.select();
      BindWhere(s.where, params);
      if (s.limit.has_value()) BindOperand(*s.limit, params);
      break;
    }
    case StatementKind::kInsert: {
      for (Operand& v : bound.insert().values) BindOperand(v, params);
      break;
    }
    case StatementKind::kDelete: {
      BindWhere(bound.del().where, params);
      break;
    }
    case StatementKind::kUpdate: {
      UpdateStatement& u = bound.update();
      for (auto& [col, op] : u.set) BindOperand(op, params);
      BindWhere(u.where, params);
      break;
    }
  }
  return bound;
}

}  // namespace dssp::sql
