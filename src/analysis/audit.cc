#include "analysis/audit.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/satisfiability.h"
#include "dssp/view_index.h"
#include "engine/program.h"
#include "sql/value.h"
#include "templates/template.h"

namespace dssp::analysis {
namespace {

using templates::AttributeId;

// ---------------------------------------------------------------------------
// Column resolution (the auditor's own minimal binder: templates have
// already passed QueryTemplate/UpdateTemplate::Create, so resolution
// failures on hand-built test ASTs simply skip the check).
// ---------------------------------------------------------------------------

struct ResolvedColumn {
  const catalog::TableSchema* table = nullptr;
  const catalog::Column* column = nullptr;
  size_t slot = 0;

  explicit operator bool() const { return column != nullptr; }
};

class SlotResolver {
 public:
  SlotResolver(const sql::SelectStatement& stmt,
               const catalog::Catalog& catalog) {
    for (const sql::TableRef& ref : stmt.from) {
      slots_.push_back({ref.effective_name(), catalog.FindTable(ref.table)});
    }
  }

  SlotResolver(const std::string& table, const catalog::Catalog& catalog) {
    slots_.push_back({table, catalog.FindTable(table)});
  }

  ResolvedColumn Resolve(const sql::ColumnRef& ref) const {
    ResolvedColumn out;
    for (size_t i = 0; i < slots_.size(); ++i) {
      const Slot& slot = slots_[i];
      if (slot.schema == nullptr) continue;
      if (!ref.table.empty() && ref.table != slot.effective) continue;
      const std::optional<size_t> index = slot.schema->ColumnIndex(ref.column);
      if (!index.has_value()) continue;
      if (out) return ResolvedColumn{};  // Ambiguous unqualified reference.
      out.table = slot.schema;
      out.column = &slot.schema->columns()[*index];
      out.slot = i;
    }
    return out;
  }

  size_t num_slots() const { return slots_.size(); }

 private:
  struct Slot {
    std::string effective;
    const catalog::TableSchema* schema;
  };
  std::vector<Slot> slots_;
};

// ---------------------------------------------------------------------------
// Type-class comparability (mirrors sql::Value::Compare's contract: numeric
// compares with numeric, string with string, NULL with everything).
// ---------------------------------------------------------------------------

bool LiteralsComparable(const sql::Value& a, const sql::Value& b) {
  if (a.is_null() || b.is_null()) return true;
  return a.is_numeric() == b.is_numeric();
}

bool LiteralComparableWithColumn(const sql::Value& v,
                                 catalog::ColumnType type) {
  if (v.is_null()) return true;
  return v.is_numeric() ? type != catalog::ColumnType::kString
                        : type == catalog::ColumnType::kString;
}

bool ColumnsComparable(catalog::ColumnType a, catalog::ColumnType b) {
  return (a == catalog::ColumnType::kString) ==
         (b == catalog::ColumnType::kString);
}

bool EvalCompare(int cmp, sql::CompareOp op) {
  switch (op) {
    case sql::CompareOp::kEq:
      return cmp == 0;
    case sql::CompareOp::kLt:
      return cmp < 0;
    case sql::CompareOp::kLe:
      return cmp <= 0;
    case sql::CompareOp::kGt:
      return cmp > 0;
    case sql::CompareOp::kGe:
      return cmp >= 0;
  }
  DSSP_UNREACHABLE("unhandled enum value");
}

std::string ComparisonToString(const sql::Comparison& c) {
  return sql::OperandToString(c.lhs) + " " + sql::CompareOpSymbol(c.op) + " " +
         sql::OperandToString(c.rhs);
}

void Add(std::vector<AuditFinding>* findings, AuditLens lens,
         AuditSeverity severity, std::string code, std::string subject,
         std::string message, std::string rationale = "") {
  findings->push_back(AuditFinding{lens, severity, std::move(code),
                                   std::move(subject), std::move(message),
                                   std::move(rationale)});
}

// ---------------------------------------------------------------------------
// Correctness lens helpers.
// ---------------------------------------------------------------------------

void CollectParamIndexes(const sql::Operand& op, std::set<int>* used) {
  if (const auto* param = std::get_if<sql::Parameter>(&op)) {
    used->insert(param->index);
  }
}

// Checks one WHERE conjunction: type mismatches, constant conjuncts, and the
// per-slot unary constraint sets fed to the satisfiability core.
void CheckWhere(const std::vector<sql::Comparison>& where,
                const SlotResolver& resolver, std::string_view subject,
                std::set<int>* params_used,
                std::vector<std::vector<ColumnConstraint>>* slot_constraints,
                std::vector<AuditFinding>* findings) {
  for (const sql::Comparison& c : where) {
    CollectParamIndexes(c.lhs, params_used);
    CollectParamIndexes(c.rhs, params_used);

    if (sql::IsLiteral(c.lhs) && sql::IsLiteral(c.rhs)) {
      const auto& lhs = std::get<sql::Value>(c.lhs);
      const auto& rhs = std::get<sql::Value>(c.rhs);
      if (!LiteralsComparable(lhs, rhs)) {
        Add(findings, AuditLens::kCorrectness, AuditSeverity::kError,
            "COR-TYPE-MISMATCH", std::string(subject),
            "conjunct `" + ComparisonToString(c) +
                "` compares incomparable literal types (" +
                sql::ValueTypeName(lhs.type()) + " vs " +
                sql::ValueTypeName(rhs.type()) + ")");
        continue;
      }
      if (EvalCompare(lhs.Compare(rhs), c.op)) {
        Add(findings, AuditLens::kCorrectness, AuditSeverity::kInfo,
            "COR-CONST-CONJUNCT", std::string(subject),
            "conjunct `" + ComparisonToString(c) +
                "` is always true and can be removed");
      } else {
        Add(findings, AuditLens::kCorrectness, AuditSeverity::kError,
            "COR-DEAD-TEMPLATE", std::string(subject),
            "conjunct `" + ComparisonToString(c) +
                "` is always false: the template can never produce or "
                "affect a row");
      }
      continue;
    }

    // Normalize a column to the left for the mixed cases.
    const sql::Operand* col_side = nullptr;
    const sql::Operand* other = nullptr;
    sql::CompareOp op = c.op;
    if (sql::IsColumn(c.lhs)) {
      col_side = &c.lhs;
      other = &c.rhs;
    } else if (sql::IsColumn(c.rhs)) {
      col_side = &c.rhs;
      other = &c.lhs;
      op = sql::ReverseCompareOp(op);
    } else {
      continue;  // Parameter-only conjunct; nothing static to check.
    }

    const auto& ref = std::get<sql::ColumnRef>(*col_side);
    const ResolvedColumn col = resolver.Resolve(ref);
    if (!col) continue;  // Create() already rejects real unresolvables.

    if (sql::IsColumn(*other)) {
      const ResolvedColumn rhs_col =
          resolver.Resolve(std::get<sql::ColumnRef>(*other));
      if (rhs_col && !ColumnsComparable(col.column->type,
                                        rhs_col.column->type)) {
        Add(findings, AuditLens::kCorrectness, AuditSeverity::kError,
            "COR-TYPE-MISMATCH", std::string(subject),
            "conjunct `" + ComparisonToString(c) + "` joins " +
                catalog::ColumnTypeName(col.column->type) + " column " +
                ref.ToString() + " with " +
                catalog::ColumnTypeName(rhs_col.column->type) + " column " +
                sql::OperandToString(*other));
      }
    } else if (sql::IsLiteral(*other)) {
      const auto& literal = std::get<sql::Value>(*other);
      if (!LiteralComparableWithColumn(literal, col.column->type)) {
        Add(findings, AuditLens::kCorrectness, AuditSeverity::kError,
            "COR-TYPE-MISMATCH", std::string(subject),
            "conjunct `" + ComparisonToString(c) + "` compares " +
                catalog::ColumnTypeName(col.column->type) + " column " +
                ref.ToString() + " with a " +
                sql::ValueTypeName(literal.type()) + " literal");
        continue;
      }
      if (!literal.is_null()) {
        (*slot_constraints)[col.slot].push_back(
            ColumnConstraint{col.column->name, op, literal});
      }
    }
  }
}

void CheckSlotSatisfiability(
    const std::vector<std::vector<ColumnConstraint>>& slot_constraints,
    std::string_view subject, std::string_view what,
    std::vector<AuditFinding>* findings) {
  for (const std::vector<ColumnConstraint>& cs : slot_constraints) {
    if (cs.size() < 2 || UnaryConjunctionSatisfiable(cs)) continue;
    std::string detail;
    for (const ColumnConstraint& c : cs) {
      if (!detail.empty()) detail += " AND ";
      detail += c.column;
      detail += ' ';
      detail += sql::CompareOpSymbol(c.op);
      detail += ' ';
      detail += c.value.ToSqlLiteral();
    }
    Add(findings, AuditLens::kCorrectness, AuditSeverity::kError,
        "COR-DEAD-TEMPLATE", std::string(subject),
        std::string(what) + " is unsatisfiable: no row meets `" + detail + "`",
        "interval intersection over the template's literal constraints is "
        "empty for every parameter binding (satisfiability core)");
  }
}

}  // namespace

const char* AuditLensName(AuditLens lens) {
  switch (lens) {
    case AuditLens::kSecurity:
      return "security";
    case AuditLens::kPerformance:
      return "performance";
    case AuditLens::kCorrectness:
      return "correctness";
  }
  DSSP_UNREACHABLE("unhandled enum value");
}

const char* AuditSeverityName(AuditSeverity severity) {
  switch (severity) {
    case AuditSeverity::kInfo:
      return "info";
    case AuditSeverity::kWarning:
      return "warning";
    case AuditSeverity::kError:
      return "error";
  }
  DSSP_UNREACHABLE("unhandled enum value");
}

void AuditStatementCorrectness(const sql::Statement& statement,
                               const catalog::Catalog& catalog,
                               std::string_view subject,
                               std::vector<AuditFinding>* findings) {
  std::set<int> params_used;

  switch (statement.kind()) {
    case sql::StatementKind::kSelect: {
      const sql::SelectStatement& select = statement.select();
      SlotResolver resolver(select, catalog);
      std::vector<std::vector<ColumnConstraint>> constraints(
          resolver.num_slots());
      CheckWhere(select.where, resolver, subject, &params_used, &constraints,
                 findings);
      if (select.limit.has_value()) {
        CollectParamIndexes(*select.limit, &params_used);
      }
      CheckSlotSatisfiability(constraints, subject, "the WHERE clause",
                              findings);
      break;
    }
    case sql::StatementKind::kInsert: {
      const sql::InsertStatement& insert = statement.insert();
      const catalog::TableSchema* table = catalog.FindTable(insert.table);
      for (const sql::Operand& value : insert.values) {
        CollectParamIndexes(value, &params_used);
      }
      if (table != nullptr) {
        const size_t expected = insert.columns.empty()
                                    ? table->num_columns()
                                    : insert.columns.size();
        if (insert.values.size() != expected) {
          Add(findings, AuditLens::kCorrectness, AuditSeverity::kError,
              "COR-TYPE-MISMATCH", std::string(subject),
              "INSERT supplies " + std::to_string(insert.values.size()) +
                  " values for " + std::to_string(expected) + " columns of " +
                  insert.table);
          break;
        }
        for (size_t i = 0; i < insert.values.size(); ++i) {
          if (!sql::IsLiteral(insert.values[i])) continue;
          const auto& literal = std::get<sql::Value>(insert.values[i]);
          const std::string& name = insert.columns.empty()
                                        ? table->columns()[i].name
                                        : insert.columns[i];
          const std::optional<size_t> index = table->ColumnIndex(name);
          if (!index.has_value()) continue;
          const catalog::Column& column = table->columns()[*index];
          if (!catalog::ValueFitsColumn(literal.type(), column.type)) {
            Add(findings, AuditLens::kCorrectness, AuditSeverity::kError,
                "COR-TYPE-MISMATCH", std::string(subject),
                "INSERT stores a " +
                    std::string(sql::ValueTypeName(literal.type())) +
                    " literal " + literal.ToSqlLiteral() + " into " +
                    std::string(catalog::ColumnTypeName(column.type)) +
                    " column " + insert.table + "." + name);
          }
        }
      }
      break;
    }
    case sql::StatementKind::kDelete: {
      const sql::DeleteStatement& del = statement.del();
      SlotResolver resolver(del.table, catalog);
      std::vector<std::vector<ColumnConstraint>> constraints(1);
      CheckWhere(del.where, resolver, subject, &params_used, &constraints,
                 findings);
      CheckSlotSatisfiability(constraints, subject, "the WHERE clause",
                              findings);
      break;
    }
    case sql::StatementKind::kUpdate: {
      const sql::UpdateStatement& update = statement.update();
      const catalog::TableSchema* table = catalog.FindTable(update.table);
      SlotResolver resolver(update.table, catalog);
      std::vector<std::vector<ColumnConstraint>> constraints(1);
      CheckWhere(update.where, resolver, subject, &params_used, &constraints,
                 findings);
      CheckSlotSatisfiability(constraints, subject, "the WHERE clause",
                              findings);
      for (const auto& [name, value] : update.set) {
        CollectParamIndexes(value, &params_used);
        if (table == nullptr || !sql::IsLiteral(value)) continue;
        const std::optional<size_t> index = table->ColumnIndex(name);
        if (!index.has_value()) continue;
        const auto& literal = std::get<sql::Value>(value);
        const catalog::Column& column = table->columns()[*index];
        if (!catalog::ValueFitsColumn(literal.type(), column.type)) {
          Add(findings, AuditLens::kCorrectness, AuditSeverity::kError,
              "COR-TYPE-MISMATCH", std::string(subject),
              "SET assigns a " +
                  std::string(sql::ValueTypeName(literal.type())) +
                  " literal " + literal.ToSqlLiteral() + " to " +
                  std::string(catalog::ColumnTypeName(column.type)) +
                  " column " + update.table + "." + name);
        }
      }
      break;
    }
  }

  for (int i = 0; i < statement.num_params; ++i) {
    if (params_used.contains(i)) continue;
    Add(findings, AuditLens::kCorrectness, AuditSeverity::kWarning,
        "COR-UNUSED-PARAM", std::string(subject) + " ?" + std::to_string(i),
        "parameter ?" + std::to_string(i) +
            " is declared but never used by the statement",
        "every bound value widens the cache-key space (distinct bindings "
        "never share a cached view) without affecting the result");
  }
}

namespace {

// ---------------------------------------------------------------------------
// Security lens helpers.
// ---------------------------------------------------------------------------

// Attributes compared against (or assigned from) parameters, i.e. the
// columns whose values travel in the statement's parameter slots.
std::vector<AttributeId> ParamBoundAttributes(const sql::Statement& statement,
                                              const catalog::Catalog& catalog) {
  std::vector<AttributeId> out;
  auto add_where = [&](const std::vector<sql::Comparison>& where,
                       const SlotResolver& resolver) {
    for (const sql::Comparison& c : where) {
      const sql::Operand* col_side = nullptr;
      if (sql::IsColumn(c.lhs) && sql::IsParameter(c.rhs)) {
        col_side = &c.lhs;
      } else if (sql::IsColumn(c.rhs) && sql::IsParameter(c.lhs)) {
        col_side = &c.rhs;
      } else {
        continue;
      }
      const ResolvedColumn col =
          resolver.Resolve(std::get<sql::ColumnRef>(*col_side));
      if (col) out.push_back({col.table->name(), col.column->name});
    }
  };

  switch (statement.kind()) {
    case sql::StatementKind::kSelect: {
      add_where(statement.select().where,
                SlotResolver(statement.select(), catalog));
      break;
    }
    case sql::StatementKind::kInsert: {
      const sql::InsertStatement& insert = statement.insert();
      const catalog::TableSchema* table = catalog.FindTable(insert.table);
      if (table == nullptr) break;
      for (size_t i = 0; i < insert.values.size(); ++i) {
        if (!sql::IsParameter(insert.values[i])) continue;
        std::string name;
        if (insert.columns.empty()) {
          if (i < table->num_columns()) name = table->columns()[i].name;
        } else if (i < insert.columns.size()) {
          name = insert.columns[i];
        }
        if (!name.empty() && table->HasColumn(name)) {
          out.push_back({table->name(), std::move(name)});
        }
      }
      break;
    }
    case sql::StatementKind::kDelete: {
      add_where(statement.del().where,
                SlotResolver(statement.del().table, catalog));
      break;
    }
    case sql::StatementKind::kUpdate: {
      const sql::UpdateStatement& update = statement.update();
      add_where(update.where, SlotResolver(update.table, catalog));
      const catalog::TableSchema* table = catalog.FindTable(update.table);
      if (table == nullptr) break;
      for (const auto& [name, value] : update.set) {
        if (sql::IsParameter(value) && table->HasColumn(name)) {
          out.push_back({table->name(), name});
        }
      }
      break;
    }
  }
  return out;
}

std::string JoinIds(const std::set<std::string>& ids) {
  std::string out;
  for (const std::string& id : ids) {
    if (!out.empty()) out += ", ";
    out += id;
  }
  return out;
}

void AppendJsonEscaped(std::string_view s, std::string* out) {
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

AuditReport AuditApplication(const templates::TemplateSet& templates,
                             const catalog::Catalog& catalog,
                             const AuditOptions& options) {
  AuditReport report;
  std::vector<AuditFinding>* f = &report.findings;

  // --- Correctness lens -----------------------------------------------------
  for (const templates::QueryTemplate& q : templates.queries()) {
    AuditStatementCorrectness(q.statement(), catalog, q.id(), f);
  }
  for (const templates::UpdateTemplate& u : templates.updates()) {
    AuditStatementCorrectness(u.statement(), catalog, u.id(), f);
  }

  // --- Performance lens -----------------------------------------------------
  const InvalidationPlan plan =
      InvalidationPlan::Compile(templates, catalog, options.plan);
  const service::ViewIndexPlan view_index =
      service::ViewIndexPlan::Compile(templates, catalog, plan);
  const std::set<std::string> hot(options.hot_updates.begin(),
                                  options.hot_updates.end());

  for (size_t ui = 0; ui < templates.num_updates(); ++ui) {
    const templates::UpdateTemplate& u = templates.updates()[ui];
    std::set<std::string> always;
    std::string always_rationale;
    for (size_t qi = 0; qi < templates.num_queries(); ++qi) {
      const templates::QueryTemplate& q = templates.queries()[qi];
      const PairPlan& pair = plan.pair(ui, qi);
      switch (pair.kind) {
        case PlanKind::kSolverFallback:
          Add(f, AuditLens::kPerformance, AuditSeverity::kWarning,
              "PERF-SOLVER-FALLBACK", u.id() + "/" + q.id(),
              "no compiled decision for this pair: the general "
              "satisfiability solver runs per cached entry on the "
              "invalidation hot path",
              pair.rationale);
          break;
        case PlanKind::kAlwaysInvalidate:
          always.insert(q.id());
          if (!always_rationale.empty()) always_rationale += "; ";
          always_rationale += q.id() + ": " + pair.rationale;
          break;
        default:
          break;
      }
    }
    if (!always.empty()) {
      Add(f, AuditLens::kPerformance,
          hot.contains(u.id()) ? AuditSeverity::kWarning
                               : AuditSeverity::kInfo,
          "PERF-ALWAYS-INVALIDATE", u.id(),
          "every " + u.id() + " notice drops every cached view of " +
              JoinIds(always) + " (" + std::to_string(always.size()) + " of " +
              std::to_string(templates.num_queries()) + " query templates)" +
              (hot.contains(u.id()) ? "; this update template is declared hot"
                                    : ""),
          always_rationale);
    }
  }

  for (size_t qi = 0; qi < templates.num_queries(); ++qi) {
    const templates::QueryTemplate& q = templates.queries()[qi];
    const service::TemplateIndexSpec* spec = view_index.query_spec(qi);
    if (spec == nullptr || spec->indexable) continue;
    std::set<std::string> relevant;
    for (size_t ui = 0; ui < templates.num_updates(); ++ui) {
      if (plan.pair(ui, qi).kind != PlanKind::kNeverInvalidate) {
        relevant.insert(templates.updates()[ui].id());
      }
    }
    if (relevant.empty()) continue;
    Add(f, AuditLens::kPerformance, AuditSeverity::kWarning,
        "PERF-NO-DISCRIMINATOR", q.id(),
        "no usable discriminator: every " + JoinIds(relevant) +
            " notice visits every cached view of " + q.id() + " (O(n) scan)",
        "the predicate index keys a template's entries under the bound of "
        "one WHERE conjunct of the form `column op ?`; this template has no "
        "such conjunct, so its entries all land in the group's unindexed "
        "rest set and are visited on every relevant update");
  }

  for (size_t qi = 0; qi < templates.num_queries(); ++qi) {
    const templates::QueryTemplate& q = templates.queries()[qi];
    const StatusOr<engine::QueryProgram> program =
        engine::QueryProgram::Compile(catalog, q.statement().select());
    if (program.ok()) continue;
    Add(f, AuditLens::kPerformance, AuditSeverity::kInfo,
        "PERF-UNPLANNED-QUERY", q.id(),
        "query template does not compile to a vectorized program: every home "
        "server miss for " + q.id() + " runs the row-at-a-time interpreter",
        program.status().message());
  }

  // --- Exposure-dependent checks (security lens + blind updates) -----------
  if (options.exposure != nullptr) {
    const ExposureAssignment& exposure = *options.exposure;
    DSSP_CHECK(exposure.query_levels.size() == templates.num_queries() &&
               exposure.update_levels.size() == templates.num_updates());

    // attr -> templates whose encrypted parameters carry it / whose
    // plaintext parameters carry it.
    std::map<AttributeId, std::set<std::string>> encrypted_params;
    std::map<AttributeId, std::set<std::string>> plaintext_params;

    auto bucket_params = [&](const sql::Statement& stmt, const std::string& id,
                             ExposureLevel level) {
      auto& bucket = level <= ExposureLevel::kTemplate ? encrypted_params
                                                       : plaintext_params;
      for (AttributeId attr : ParamBoundAttributes(stmt, catalog)) {
        bucket[std::move(attr)].insert(id);
      }
    };

    for (size_t qi = 0; qi < templates.num_queries(); ++qi) {
      const templates::QueryTemplate& q = templates.queries()[qi];
      bucket_params(q.statement(), q.id(), exposure.query_levels[qi]);
      if (exposure.query_levels[qi] == ExposureLevel::kView) {
        for (const AttributeId& attr : q.preserved_attributes()) {
          Add(f, AuditLens::kSecurity, AuditSeverity::kInfo,
              "SEC-RESULT-EXPOSED", attr.ToString(),
              "plaintext cached results of " + q.id() + " expose " +
                  attr.ToString() + " to the DSSP");
        }
      }
    }

    bool view_update = false;
    for (size_t ui = 0; ui < templates.num_updates(); ++ui) {
      const templates::UpdateTemplate& u = templates.updates()[ui];
      const ExposureLevel level = exposure.update_levels[ui];
      if (level == ExposureLevel::kView) {
        view_update = true;
        Add(f, AuditLens::kSecurity, AuditSeverity::kError, "SEC-VIEW-UPDATE",
            u.id(),
            "update template assigned exposure level view: updates have no "
            "view level (Figure 5); the notice would be rejected at runtime");
        continue;
      }
      bucket_params(u.statement(), u.id(), level);
      if (level == ExposureLevel::kBlind) {
        Add(f, AuditLens::kPerformance, AuditSeverity::kWarning,
            "PERF-BLIND-UPDATE", u.id(),
            "blind update: the DSSP learns nothing from a " + u.id() +
                " notice, so every notice invalidates the entire "
                "application cache (IPM cell 1)",
            "SymbolFor(blind, q) is 1 for every query template; raising the "
            "update to template level enables the per-pair compiled plan");
      }
    }

    for (const auto& [attr, ids] : encrypted_params) {
      Add(f, AuditLens::kSecurity, AuditSeverity::kWarning, "SEC-EQ-LEAK",
          attr.ToString(),
          "deterministic encryption of parameters bound to " +
              attr.ToString() + " leaks equality of bindings (" +
              JoinIds(ids) + ")",
          "cache keys must be deterministic for lookups to hit, so equal "
          "plaintext bindings produce equal ciphertexts; an adversary "
          "observing the DSSP can build a frequency histogram of " +
              attr.ToString() + " without any key material");
    }
    for (const auto& [attr, ids] : plaintext_params) {
      Add(f, AuditLens::kSecurity, AuditSeverity::kInfo, "SEC-PLAINTEXT-PARAM",
          attr.ToString(),
          "statement-exposed templates reveal plaintext bindings of " +
              attr.ToString() + " to the DSSP (" + JoinIds(ids) + ")");
    }

    // Step 2b / Step 1 comparisons need a structurally valid assignment.
    if (!view_update) {
      const IpmCharacterization ipm =
          IpmCharacterization::Compute(templates, catalog, options.ipm);
      const ExposureAssignment reduced =
          ReduceExposure(templates, ipm, exposure);
      auto report_overexposed = [&](const std::string& id, ExposureLevel given,
                                    ExposureLevel needed) {
        if (needed >= given) return;
        Add(f, AuditLens::kSecurity, AuditSeverity::kWarning,
            "SEC-OVEREXPOSED", id,
            std::string("exposure level ") + ExposureLevelName(given) +
                " exceeds what invalidation quality requires: level " +
                ExposureLevelName(needed) +
                " keeps every pair's invalidation probability unchanged "
                "(Section 3.1 Step 2b)",
            "the IPM characterization proves the reduction free: encrypting "
            "this information cannot increase any pair's invalidations");
      };
      for (size_t qi = 0; qi < templates.num_queries(); ++qi) {
        report_overexposed(templates.queries()[qi].id(),
                           exposure.query_levels[qi],
                           reduced.query_levels[qi]);
      }
      for (size_t ui = 0; ui < templates.num_updates(); ++ui) {
        report_overexposed(templates.updates()[ui].id(),
                           exposure.update_levels[ui],
                           reduced.update_levels[ui]);
      }

      if (options.policy != nullptr) {
        const ExposureAssignment cap =
            ComputeInitialExposure(templates, catalog, *options.policy);
        auto report_sensitive = [&](const std::string& id,
                                    ExposureLevel given, ExposureLevel capped) {
          if (given <= capped) return;
          Add(f, AuditLens::kSecurity, AuditSeverity::kError,
              "SEC-SENSITIVE-EXPOSED", id,
              std::string("exposed at level ") + ExposureLevelName(given) +
                  " but the compulsory-encryption policy caps this template "
                  "at " +
                  ExposureLevelName(capped) + " (Section 3.1 Step 1)",
              "the template carries attributes the policy marks sensitive; "
              "exposing them is a policy violation regardless of "
              "scalability");
        };
        for (size_t qi = 0; qi < templates.num_queries(); ++qi) {
          report_sensitive(templates.queries()[qi].id(),
                           exposure.query_levels[qi], cap.query_levels[qi]);
        }
        for (size_t ui = 0; ui < templates.num_updates(); ++ui) {
          report_sensitive(templates.updates()[ui].id(),
                           exposure.update_levels[ui], cap.update_levels[ui]);
        }
      }
    }
  }

  // --- Finalize: filter, sort deterministically, count ---------------------
  if (!options.include_info) {
    std::erase_if(report.findings, [](const AuditFinding& finding) {
      return finding.severity == AuditSeverity::kInfo;
    });
  }
  std::sort(report.findings.begin(), report.findings.end(),
            [](const AuditFinding& a, const AuditFinding& b) {
              return std::tie(a.lens, a.code, a.subject, a.message) <
                     std::tie(b.lens, b.code, b.subject, b.message);
            });
  for (const AuditFinding& finding : report.findings) {
    switch (finding.severity) {
      case AuditSeverity::kError:
        ++report.num_errors;
        break;
      case AuditSeverity::kWarning:
        ++report.num_warnings;
        break;
      case AuditSeverity::kInfo:
        ++report.num_infos;
        break;
    }
  }
  return report;
}

std::string AuditReport::ToText() const {
  std::string out;
  AuditLens current = AuditLens::kSecurity;
  bool first = true;
  for (const AuditFinding& finding : findings) {
    if (first || finding.lens != current) {
      if (!first) out += '\n';
      current = finding.lens;
      first = false;
      out += "== ";
      out += AuditLensName(current);
      out += " ==\n";
    }
    out += '[';
    out += AuditSeverityName(finding.severity);
    out += "] ";
    out += finding.code;
    out += ' ';
    out += finding.subject;
    out += ": ";
    out += finding.message;
    out += '\n';
    if (!finding.rationale.empty()) {
      out += "    ";
      out += finding.rationale;
      out += '\n';
    }
  }
  if (!first) out += '\n';
  out += std::to_string(num_errors) + " error(s), " +
         std::to_string(num_warnings) + " warning(s), " +
         std::to_string(num_infos) + " info(s)\n";
  return out;
}

std::string AuditReport::ToJson() const {
  std::string out = "{\n  \"audit_version\": 1,\n  \"summary\": {";
  out += "\"errors\": " + std::to_string(num_errors);
  out += ", \"warnings\": " + std::to_string(num_warnings);
  out += ", \"infos\": " + std::to_string(num_infos);
  out += "},\n  \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const AuditFinding& finding = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"lens\": \"";
    out += AuditLensName(finding.lens);
    out += "\", \"severity\": \"";
    out += AuditSeverityName(finding.severity);
    out += "\", \"code\": \"";
    AppendJsonEscaped(finding.code, &out);
    out += "\", \"subject\": \"";
    AppendJsonEscaped(finding.subject, &out);
    out += "\", \"message\": \"";
    AppendJsonEscaped(finding.message, &out);
    out += "\", \"rationale\": \"";
    AppendJsonEscaped(finding.rationale, &out);
    out += "\"}";
  }
  out += findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace dssp::analysis
