// Test-side reference for the invalidation strategies' compiled decisions:
// the Section 4 analysis re-derived on every call.
//
// RederiveOracle answers the MTIS and MSIS questions straight from the
// templates and bound statements, with no InvalidationPlan: MTIS spares a
// pair exactly when it is ignorable (Lemma 1) or, with integrity constraints
// on, an insertion ruled out by the Section 4.5 PK/FK rules; MSIS
// additionally runs the general independence solver on the bound
// statements. Views need no template_index. tests/plan_differential_test.cc
// compares the plan-backed strategies against it; bench/ablation_plan_compiler
// times it as the per-call column.

#ifndef DSSP_TESTS_REDERIVE_ORACLE_H_
#define DSSP_TESTS_REDERIVE_ORACLE_H_

#include "analysis/ipm.h"
#include "catalog/schema.h"
#include "invalidation/independence.h"
#include "invalidation/strategy.h"
#include "templates/template.h"

namespace dssp::invalidation {

class RederiveOracle {
 public:
  // `catalog` must outlive the oracle.
  explicit RederiveOracle(const catalog::Catalog& catalog,
                          bool use_integrity_constraints = true)
      : catalog_(catalog),
        use_integrity_constraints_(use_integrity_constraints) {}

  // The minimal template-inspection decision.
  Decision TemplateLevel(const UpdateView& update,
                         const CachedQueryView& query) const {
    if (update.tmpl == nullptr || query.tmpl == nullptr) {
      return Decision::kInvalidate;
    }
    return TemplatesIndependent(*update.tmpl, *query.tmpl)
               ? Decision::kDoNotInvalidate
               : Decision::kInvalidate;
  }

  // The minimal statement-inspection decision.
  Decision StatementLevel(const UpdateView& update,
                          const CachedQueryView& query) const {
    if (update.tmpl == nullptr || query.tmpl == nullptr) {
      return Decision::kInvalidate;
    }
    if (TemplatesIndependent(*update.tmpl, *query.tmpl)) {
      return Decision::kDoNotInvalidate;
    }
    if (update.statement != nullptr && query.statement != nullptr &&
        ProvablyIndependent(*update.tmpl, *update.statement, *query.tmpl,
                            *query.statement, catalog_,
                            use_integrity_constraints_)) {
      return Decision::kDoNotInvalidate;
    }
    return Decision::kInvalidate;
  }

 private:
  bool TemplatesIndependent(const templates::UpdateTemplate& u,
                            const templates::QueryTemplate& q) const {
    return templates::IsIgnorable(u, q) ||
           (use_integrity_constraints_ &&
            analysis::InsertionIrrelevantByConstraints(u, q, catalog_));
  }

  const catalog::Catalog& catalog_;
  bool use_integrity_constraints_;
};

}  // namespace dssp::invalidation

#endif  // DSSP_TESTS_REDERIVE_ORACLE_H_
