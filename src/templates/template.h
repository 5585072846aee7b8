#ifndef DSSP_TEMPLATES_TEMPLATE_H_
#define DSSP_TEMPLATES_TEMPLATE_H_

#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "sql/ast.h"

namespace dssp::templates {

// A fully-qualified physical attribute `table.column` (aliases resolved).
struct AttributeId {
  std::string table;
  std::string column;

  friend auto operator<=>(const AttributeId& a, const AttributeId& b) =
      default;

  std::string ToString() const { return table + "." + column; }
};

using AttributeSet = std::set<AttributeId>;

std::string AttributeSetToString(const AttributeSet& set);

// Set intersection emptiness: true if a and b share no attribute.
bool Disjoint(const AttributeSet& a, const AttributeSet& b);

// The paper's update classes (Section 2.1 / Table 6).
enum class UpdateClass {
  kInsertion,     // U-T-I
  kDeletion,      // U-T-D
  kModification,  // U-T-M
};

const char* UpdateClassName(UpdateClass cls);

// Which of the paper's Section 2.1.1 simplifying assumptions a template
// violates. A violating template gets the conservative treatment: no
// encryption is recommended for any pair involving it.
struct AssumptionReport {
  bool compares_within_relation = false;  // Assumption 1 violated.
  bool has_embedded_constants = false;    // Assumption 2 violated.
  bool cartesian_product = false;         // Assumption 3 violated (queries).

  bool ok() const {
    return !compares_within_relation && !has_embedded_constants &&
           !cartesian_product;
  }
  std::string ToString() const;
};

// A query template: a SELECT statement with `?` parameters, plus the derived
// attribute sets and classifications the static analysis consumes.
//
//   S(Q): attributes in selection predicates or ORDER BY     (Table 5)
//   P(Q): attributes preserved in the result                 (Table 5)
//   E:    only equality joins (or no joins)                  (Table 6)
//   N:    no top-k construct                                 (Table 6)
class QueryTemplate {
 public:
  // Parses and analyzes `sql` against `catalog`. Fails if the statement is
  // not a SELECT, references unknown tables/columns, or is ambiguous.
  static StatusOr<QueryTemplate> Create(std::string id, std::string_view sql,
                                        const catalog::Catalog& catalog);

  const std::string& id() const { return id_; }
  const sql::Statement& statement() const { return statement_; }
  std::string ToSql() const { return sql::ToSql(statement_); }
  int num_params() const { return statement_.num_params; }

  // Binds parameters, producing an executable statement instance.
  sql::Statement Bind(const std::vector<sql::Value>& params) const {
    return sql::BindParameters(statement_, params);
  }

  // Appends sql::ToSql(Bind(params)) to `*out` without binding.
  void Render(const std::vector<sql::Value>& params, std::string* out) const {
    codec_.Render(params, out);
  }

  const AttributeSet& selection_attributes() const { return s_; }
  const AttributeSet& preserved_attributes() const { return p_; }

  bool only_equality_joins() const { return only_equality_joins_; }  // E
  bool no_top_k() const { return !statement_.select().limit.has_value(); }
  bool has_aggregation() const { return has_aggregation_; }

  // Provenance of each result column, in the engine's output order (stars
  // expanded). `slot`/`attribute` are unset for aggregate outputs, whose
  // values are derived rather than preserved.
  struct OutputColumn {
    std::optional<size_t> slot;                    // FROM-slot index.
    std::optional<AttributeId> attribute;          // Physical attribute.
  };
  const std::vector<OutputColumn>& output_columns() const {
    return output_columns_;
  }

  const AssumptionReport& assumptions() const { return assumptions_; }

  // Structural match of a fully-bound SELECT instance against this template:
  // same select list, FROM, GROUP BY and ORDER BY; each WHERE conjunct has
  // the same operator and column operands, template literals equal the
  // instance's literals exactly, and template parameters capture the
  // instance's literals (a parameter appearing twice must bind the same
  // value). On success fills `params` (resized to num_params()) with the
  // captured values and returns true; on mismatch returns false and leaves
  // `params` unspecified.
  bool MatchInstance(const sql::SelectStatement& bound,
                     std::vector<sql::Value>* params) const;

 private:
  QueryTemplate() = default;

  std::string id_;
  sql::Statement statement_;
  sql::TextCodec codec_;  // Of statement_, built at Create.
  AttributeSet s_;
  AttributeSet p_;
  std::vector<OutputColumn> output_columns_;
  bool only_equality_joins_ = true;
  bool has_aggregation_ = false;
  AssumptionReport assumptions_;
};

// An update template: INSERT / DELETE / UPDATE with `?` parameters, plus
// derived sets:
//
//   S(U): attributes used in selection predicates            (Table 5)
//   M(U): attributes modified; for insertions and deletions, all attributes
//         of the target table                                (Table 5)
class UpdateTemplate {
 public:
  static StatusOr<UpdateTemplate> Create(std::string id, std::string_view sql,
                                         const catalog::Catalog& catalog);

  const std::string& id() const { return id_; }
  const sql::Statement& statement() const { return statement_; }
  std::string ToSql() const { return sql::ToSql(statement_); }
  int num_params() const { return statement_.num_params; }

  sql::Statement Bind(const std::vector<sql::Value>& params) const {
    return sql::BindParameters(statement_, params);
  }

  // Appends sql::ToSql(Bind(params)) to `*out` without binding.
  void Render(const std::vector<sql::Value>& params, std::string* out) const {
    codec_.Render(params, out);
  }

  UpdateClass update_class() const { return class_; }
  const std::string& table() const { return table_; }

  const AttributeSet& selection_attributes() const { return s_; }
  const AttributeSet& modified_attributes() const { return m_; }

  const AssumptionReport& assumptions() const { return assumptions_; }

 private:
  UpdateTemplate() = default;

  std::string id_;
  sql::Statement statement_;
  sql::TextCodec codec_;  // Of statement_, built at Create.
  UpdateClass class_ = UpdateClass::kInsertion;
  std::string table_;
  AttributeSet s_;
  AttributeSet m_;
  AssumptionReport assumptions_;
};

// Canonical shape key of a SELECT: its SQL text with every literal and
// parameter operand (WHERE operands and LIMIT) masked to `?`. All bound
// instances of one template share the template's own shape key, so a
// key-indexed template lookup narrows MatchInstance to a handful of
// candidates.
std::string SelectShapeKey(const sql::SelectStatement& stmt);

// Pair property G (Table 6): U is *ignorable* for Q iff
// M(U) ∩ (P(Q) ∪ S(Q)) = {}. An ignorable update can never change the
// query's result (Lemma 1: A_ij = 0).
bool IsIgnorable(const UpdateTemplate& u, const QueryTemplate& q);

// Pair property H (Table 6): Q is *result-unhelpful* for U iff
// S(U) ∩ P(Q) = {} — the cached result carries no attribute the update's
// predicate mentions, so inspecting it cannot reduce invalidations.
bool IsResultUnhelpful(const UpdateTemplate& u, const QueryTemplate& q);

}  // namespace dssp::templates

#endif  // DSSP_TEMPLATES_TEMPLATE_H_
