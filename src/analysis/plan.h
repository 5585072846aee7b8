#ifndef DSSP_ANALYSIS_PLAN_H_
#define DSSP_ANALYSIS_PLAN_H_

#include <cstddef>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/macros.h"
#include "sql/ast.h"
#include "templates/template.h"
#include "templates/template_set.h"

namespace dssp::analysis {

// ---------------------------------------------------------------------------
// Ahead-of-time invalidation-plan compiler.
//
// Every (update, cached entry) decision rests on the Section 4 template
// analysis: the Lemma-1 / Section 4.5 reasoning at template level and, at
// statement level, a Levy-Sagiv style satisfiability solve over both
// statements' resolved FROM slots. All of that work depends only on the
// *templates*, which are fixed at application registration.
//
// InvalidationPlan::Compile runs the analysis once per (update template,
// query template) pair and emits a compiled PairPlan: either a constant
// decision, or a small predicate program over the bound parameters that the
// strategies evaluate in O(program size) with no AST walking, no catalog
// lookups, and no solver. The compiler constant-folds every subexpression
// whose operands are template literals, so a pair whose statement-level
// outcome does not actually depend on the parameters collapses to a
// constant. The invalidation strategies (invalidation/strategies.h) answer
// from the plan alone.
//
// Equivalence contract: for every pair and every parameter binding, the
// compiled decision is IDENTICAL to re-deriving the analysis per call
// (IsIgnorable, InsertionIrrelevantByConstraints, ProvablyIndependent);
// tests/plan_differential_test.cc checks it against the test-side
// re-derivation in tests/rederive_oracle.h. The compiler refuses to
// compile — kSolverFallback — any shape it cannot mirror exactly.
// ---------------------------------------------------------------------------

// The decision procedure compiled for one (update, query) template pair.
enum class PlanKind {
  // A = 0 (Lemma 1 ignorability or the Section 4.5 PK/FK rules): never
  // invalidate, at any exposure level at or above template.
  kNeverInvalidate,
  // Statement-level refinement provably cannot help for any binding, and
  // neither can view inspection (insertions): always invalidate.
  kAlwaysInvalidate,
  // A compiled per-parameter predicate program decides independence without
  // invoking the general solver.
  kParamProgram,
  // Compilation was not provably equivalent (unexpected statement shape);
  // run the general solver at decision time. Defensive — none of the paper
  // workloads produce it.
  kSolverFallback,
  // Statement-level refinement provably cannot help for any binding, but
  // the pair is a deletion/modification whose cached *result* may still
  // refine the decision (the C cell): always invalidate below view level,
  // run the view test at view level.
  kViewTest,
};

const char* PlanKindName(PlanKind kind);

// Where a compiled comparison fetches its constant when the program runs
// against bound statements. Template literals fold to kConst at compile
// time; parameter positions are compiled to direct AST coordinates so the
// evaluator indexes the bound statement without walking or resolving it.
struct ValueRef {
  enum class Source {
    kConst,        // `literal` below.
    kQueryWhere,   // query.select().where[index], side picked by `rhs`.
    kUpdateWhere,  // DELETE/UPDATE where[index], side picked by `rhs`.
    kInsertValue,  // insert.values[index].
    kSetValue,     // update.set[index].second.
  };

  Source source = Source::kConst;
  size_t index = 0;
  bool rhs = true;
  sql::Value literal;

  static ValueRef Const(sql::Value v) {
    ValueRef ref;
    ref.literal = std::move(v);
    return ref;
  }
  static ValueRef At(Source source, size_t index, bool rhs = true) {
    ValueRef ref;
    ref.source = source;
    ref.index = index;
    ref.rhs = rhs;
    return ref;
  }

  bool is_const() const { return source == Source::kConst; }
};

// One compiled unary test `column op <value>` feeding the interval solver.
struct CompiledConstraint {
  std::string column;  // Resolved physical column name.
  sql::CompareOp op;
  ValueRef value;
};

// `fetch(lhs) op fetch(rhs)` row-exclusion test: mirrors the solver's
// inserted-value / SET-value checks (NULL or an incomparable type excludes
// the row, as does the comparison failing).
struct CompiledValueTest {
  ValueRef lhs;  // Inserted / newly assigned value.
  sql::CompareOp op;
  ValueRef rhs;  // The slot constraint's constant.
};

// Per-FROM-slot check compiled for an insertion: the inserted row is
// excluded from the slot iff some test excludes it. Slots the compiler
// proved always-excluded are dropped from the program entirely.
struct CompiledInsertCheck {
  std::vector<CompiledValueTest> tests;
};

// Per-slot check compiled for a deletion (and a modification's "currently
// relevant" half): the update is independent of the slot iff the combined
// constraint conjunction is unsatisfiable.
struct CompiledSatCheck {
  std::vector<CompiledConstraint> constraints;
};

// Per-slot check compiled for a modification's "may newly enter" half
// (ModificationCannotEnter): the modified rows cannot enter via the slot iff
// some set test excludes them or the residual conjunction is unsatisfiable.
struct CompiledEntryCheck {
  std::vector<CompiledValueTest> set_tests;
  std::vector<CompiledConstraint> residual;
};

// The compiled statement-level predicate program of one pair. Only the
// vectors matching the update class are populated.
struct ParamProgram {
  std::vector<CompiledInsertCheck> insert_checks;
  std::vector<CompiledSatCheck> sat_checks;
  std::vector<CompiledEntryCheck> entry_checks;

  size_t num_checks() const {
    return insert_checks.size() + sat_checks.size() + entry_checks.size();
  }
};

// The compiled decision procedure of one (update, query) template pair.
struct PairPlan {
  // kNeverInvalidate is the template-level decision (the A cell): DNI for
  // the whole template group.
  PlanKind kind = PlanKind::kSolverFallback;
  templates::UpdateClass update_class = templates::UpdateClass::kInsertion;
  ParamProgram program;  // Populated for kParamProgram.
  std::string rationale;  // Human-readable justification.
};

// Outcome of the statement-level compiled decision for one bound pair.
enum class StmtDecision {
  kIndependent,  // Provably independent: do not invalidate.
  kInvalidate,   // Not provably independent: invalidate.
  kRunSolver,    // kSolverFallback — the caller must run the solver.
};

// The full compiled plan of one application: one PairPlan per
// (update template, query template) pair, indexed like the TemplateSet.
class InvalidationPlan {
 public:
  struct Options {
    // Apply the Section 4.5 PK/FK refinement.
    bool use_integrity_constraints = true;
  };

  // Compiles the plan for `templates` against `catalog`. Runs once at app
  // registration; cost is O(pairs * statement size).
  static InvalidationPlan Compile(const templates::TemplateSet& templates,
                                  const catalog::Catalog& catalog,
                                  const Options& options);
  static InvalidationPlan Compile(const templates::TemplateSet& templates,
                                  const catalog::Catalog& catalog) {
    return Compile(templates, catalog, Options{});
  }

  const PairPlan& pair(size_t update_index, size_t query_index) const {
    DSSP_CHECK(update_index < num_updates_ && query_index < num_queries_);
    return pairs_[update_index * num_queries_ + query_index];
  }

  size_t num_updates() const { return num_updates_; }
  size_t num_queries() const { return num_queries_; }
  // The options the plan was compiled with; the solver fallback reuses them.
  const Options& options() const { return options_; }

  // Pair counts by compiled kind (explain/ablation reporting).
  struct Summary {
    size_t never_invalidate = 0;
    size_t always_invalidate = 0;
    size_t param_program = 0;
    size_t solver_fallback = 0;
    size_t view_test = 0;

    size_t total() const {
      return never_invalidate + always_invalidate + param_program +
             solver_fallback + view_test;
    }
  };
  Summary Summarize() const;

 private:
  size_t num_updates_ = 0;
  size_t num_queries_ = 0;
  Options options_;
  std::vector<PairPlan> pairs_;
};

// Compiles a single pair (exposed for tests and the explain tool).
PairPlan CompilePairPlan(const templates::UpdateTemplate& u,
                         const templates::QueryTemplate& q,
                         const catalog::Catalog& catalog,
                         const InvalidationPlan::Options& options = {});

// Evaluates one compiled pair on bound statements (kRunSolver for
// kSolverFallback pairs). Bit-identical to ProvablyIndependent(...) for
// statements bound from the pair's templates; a statement whose shape does
// not match the compiled coordinates yields kInvalidate (sound). Never
// consults the catalog.
StmtDecision EvaluatePairPlan(const PairPlan& plan,
                              const sql::Statement& update,
                              const sql::Statement& query);

// Fetches the runtime value a query-side ValueRef (kConst / kQueryWhere)
// denotes from a bound SELECT; nullptr when the statement's shape does not
// match the compiled coordinates or the ref is update-side. The returned
// pointer aliases `query` (or `ref` for constants).
const sql::Value* FetchFromQuery(const ValueRef& ref,
                                 const sql::Statement& query);

// Update-side counterpart (kConst / kUpdateWhere / kInsertValue /
// kSetValue); nullptr on shape mismatch or a query-side ref.
const sql::Value* FetchFromUpdate(const ValueRef& ref,
                                  const sql::Statement& update);

}  // namespace dssp::analysis

#endif  // DSSP_ANALYSIS_PLAN_H_
