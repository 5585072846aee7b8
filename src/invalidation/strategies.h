#ifndef DSSP_INVALIDATION_STRATEGIES_H_
#define DSSP_INVALIDATION_STRATEGIES_H_

#include "analysis/plan.h"
#include "catalog/schema.h"
#include "invalidation/strategy.h"

namespace dssp::invalidation {

// The strategies below answer from a compiled analysis::InvalidationPlan:
// an O(1) pair lookup plus (for MSIS) a compiled parameter program; the
// general solver runs only for kSolverFallback pairs, with the options the
// plan was compiled with. The plan must have been compiled from the
// TemplateSet and Catalog the views refer to, and must outlive the strategy.
// A view whose template is hidden or carries no TemplateSet index
// (kNoTemplateIndex) has no pair to look up and is invalidated.

// Minimal blind strategy (MBS): with nothing exposed, correctness forces
// invalidating every cached result on every update.
class BlindStrategy : public InvalidationStrategy {
 public:
  Decision Decide(const UpdateView& update,
                  const CachedQueryView& query) const override;
  std::string_view name() const override { return "MBS"; }
};

// Minimal template-inspection strategy (MTIS): uses only the templates.
// DNI exactly when the static analysis proves A = 0 — the pair is ignorable
// (Lemma 1) or ruled out by PK/FK integrity constraints (Section 4.5).
class TemplateInspectionStrategy : public InvalidationStrategy {
 public:
  explicit TemplateInspectionStrategy(const analysis::InvalidationPlan& plan)
      : plan_(plan) {}
  // The strategy keeps a reference: a temporary plan would dangle.
  explicit TemplateInspectionStrategy(analysis::InvalidationPlan&&) = delete;

  Decision Decide(const UpdateView& update,
                  const CachedQueryView& query) const override;
  std::string_view name() const override { return "MTIS"; }

 private:
  const analysis::InvalidationPlan& plan_;
};

// Minimal statement-inspection strategy (MSIS): additionally sees bound
// parameters and runs the statement-level independence test (Levy-Sagiv
// style satisfiability over the shared attributes).
class StatementInspectionStrategy : public InvalidationStrategy {
 public:
  StatementInspectionStrategy(const catalog::Catalog& catalog,
                              const analysis::InvalidationPlan& plan)
      : catalog_(catalog), plan_(plan) {}
  StatementInspectionStrategy(const catalog::Catalog&,
                              analysis::InvalidationPlan&&) = delete;

  Decision Decide(const UpdateView& update,
                  const CachedQueryView& query) const override;
  std::string_view name() const override { return "MSIS"; }

 private:
  const catalog::Catalog& catalog_;
  const analysis::InvalidationPlan& plan_;
};

// View-inspection strategy (VIS): additionally inspects the cached result.
// For deletions and modifications it checks whether any result row derives
// from a row the update touches; for insertions it coincides with MSIS (a
// deliberate, documented deviation from strict minimality for queries
// outside E/N, which is rare and affects only precision, never correctness).
class ViewInspectionStrategy : public InvalidationStrategy {
 public:
  ViewInspectionStrategy(const catalog::Catalog& catalog,
                         const analysis::InvalidationPlan& plan)
      : catalog_(catalog), sis_(catalog, plan) {}
  ViewInspectionStrategy(const catalog::Catalog&,
                         analysis::InvalidationPlan&&) = delete;

  Decision Decide(const UpdateView& update,
                  const CachedQueryView& query) const override;
  std::string_view name() const override { return "MVIS"; }

 private:
  const catalog::Catalog& catalog_;
  StatementInspectionStrategy sis_;
};

// Mixed strategy (Section 2.3): dispatches each (update, query) pair to the
// strategy class its exposure levels select (Figure 6's shaded cells).
class MixedStrategy : public InvalidationStrategy {
 public:
  MixedStrategy(const catalog::Catalog& catalog,
                const analysis::InvalidationPlan& plan)
      : tis_(plan), sis_(catalog, plan), vis_(catalog, plan) {}
  MixedStrategy(const catalog::Catalog&,
                analysis::InvalidationPlan&&) = delete;

  Decision Decide(const UpdateView& update,
                  const CachedQueryView& query) const override;
  std::string_view name() const override { return "mixed"; }

 private:
  BlindStrategy blind_;
  TemplateInspectionStrategy tis_;
  StatementInspectionStrategy sis_;
  ViewInspectionStrategy vis_;
};

}  // namespace dssp::invalidation

#endif  // DSSP_INVALIDATION_STRATEGIES_H_
