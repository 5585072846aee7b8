#include "dssp/view_index.h"

#include <algorithm>

#include "analysis/query_slots.h"
#include "common/macros.h"
#include "dssp/cache.h"

namespace dssp::service {

namespace {

using analysis::CompiledConstraint;
using analysis::CompiledEntryCheck;
using analysis::CompiledInsertCheck;
using analysis::CompiledSatCheck;
using analysis::CompiledValueTest;
using analysis::PairPlan;
using analysis::ParamProgram;
using analysis::PlanKind;
using analysis::ValueRef;
using Source = analysis::ValueRef::Source;

bool IsUpdateSide(const ValueRef& ref) {
  return ref.source == Source::kUpdateWhere ||
         ref.source == Source::kInsertValue ||
         ref.source == Source::kSetValue;
}

bool IsDiscriminator(const ValueRef& ref, const TemplateIndexSpec& spec) {
  return ref.source == Source::kQueryWhere &&
         ref.index == spec.where_index && ref.rhs == spec.rhs;
}

// Chooses the discriminator conjunct of one query template: the first
// `column op ?` WHERE conjunct whose column resolves, preferring equality
// over range operators (a point index prunes harder than an interval one).
TemplateIndexSpec PickSpec(const templates::QueryTemplate& q,
                           const catalog::Catalog& catalog) {
  TemplateIndexSpec spec;
  const sql::SelectStatement& stmt = q.statement().select();
  const analysis::QuerySlots slots(stmt);
  for (size_t i = 0; i < stmt.where.size(); ++i) {
    const sql::Comparison& cmp = stmt.where[i];
    for (int side = 0; side < 2; ++side) {
      const sql::Operand& a = side == 0 ? cmp.lhs : cmp.rhs;
      const sql::Operand& b = side == 0 ? cmp.rhs : cmp.lhs;
      if (!sql::IsColumn(a) || !sql::IsParameter(b)) continue;
      const auto resolved =
          slots.Resolve(std::get<sql::ColumnRef>(a), catalog);
      if (!resolved.has_value()) continue;
      const sql::CompareOp op =
          side == 0 ? cmp.op : sql::ReverseCompareOp(cmp.op);
      if (spec.indexable &&
          (spec.op == sql::CompareOp::kEq || op != sql::CompareOp::kEq)) {
        break;  // Keep the earlier candidate.
      }
      spec.indexable = true;
      spec.where_index = i;
      spec.rhs = side == 0;
      spec.op = op;
      spec.table = slots.physical[resolved->first];
      spec.column = resolved->second;
      if (op == sql::CompareOp::kEq) return spec;  // Best possible.
      break;
    }
  }
  return spec;
}

// Probe from a value-test list (insert checks and entry-check SET tests):
// the check fires only if every test passes, in particular the test against
// the discriminator constraint — i.e. the inserted/assigned point satisfies
// `column spec.op b`. An equality probe at that point selects exactly the
// bounds whose interval contains it.
std::optional<ProbeRef> ProbeFromValueTests(
    const std::vector<CompiledValueTest>& tests,
    const TemplateIndexSpec& spec) {
  for (const CompiledValueTest& test : tests) {
    if (!IsDiscriminator(test.rhs, spec)) continue;
    if (test.op != spec.op) continue;  // Defensive; identical by derivation.
    if (test.lhs.is_const() || IsUpdateSide(test.lhs)) {
      return ProbeRef{sql::CompareOp::kEq, test.lhs};
    }
  }
  return std::nullopt;
}

// Probe from a constraint conjunction (sat checks and entry-check
// residuals): the check fires only if the conjunction is satisfiable, which
// requires the discriminator's interval to intersect every other interval
// on the same column. An update-side (preferred) or constant constraint on
// that column gives the probe.
std::optional<ProbeRef> ProbeFromConstraints(
    const std::vector<CompiledConstraint>& constraints,
    const TemplateIndexSpec& spec) {
  const CompiledConstraint* disc = nullptr;
  for (const CompiledConstraint& c : constraints) {
    if (IsDiscriminator(c.value, spec)) {
      disc = &c;
      break;
    }
  }
  if (disc == nullptr || disc->op != spec.op) return std::nullopt;
  const CompiledConstraint* fallback = nullptr;
  for (const CompiledConstraint& c : constraints) {
    if (&c == disc || c.column != disc->column) continue;
    if (IsUpdateSide(c.value)) return ProbeRef{c.op, c.value};
    if (c.value.is_const() && fallback == nullptr) fallback = &c;
  }
  if (fallback != nullptr) {
    return ProbeRef{fallback->op, fallback->value};
  }
  return std::nullopt;
}

void CollectUpdateRefs(const ParamProgram& program,
                       std::vector<ValueRef>* out) {
  const auto add = [out](const ValueRef& ref) {
    if (!IsUpdateSide(ref)) return;
    for (const ValueRef& have : *out) {
      if (have.source == ref.source && have.index == ref.index &&
          have.rhs == ref.rhs) {
        return;
      }
    }
    out->push_back(ref);
  };
  for (const CompiledInsertCheck& check : program.insert_checks) {
    for (const CompiledValueTest& test : check.tests) {
      add(test.lhs);
      add(test.rhs);
    }
  }
  for (const CompiledSatCheck& check : program.sat_checks) {
    for (const CompiledConstraint& c : check.constraints) add(c.value);
  }
  for (const CompiledEntryCheck& check : program.entry_checks) {
    for (const CompiledValueTest& test : check.set_tests) {
      add(test.lhs);
      add(test.rhs);
    }
    for (const CompiledConstraint& c : check.residual) add(c.value);
  }
}

void CollectQueryCoords(const ParamProgram& program,
                        std::vector<std::pair<size_t, bool>>* out) {
  const auto add = [out](const ValueRef& ref) {
    if (ref.source != Source::kQueryWhere) return;
    out->emplace_back(ref.index, ref.rhs);
  };
  for (const CompiledInsertCheck& check : program.insert_checks) {
    for (const CompiledValueTest& test : check.tests) {
      add(test.lhs);
      add(test.rhs);
    }
  }
  for (const CompiledSatCheck& check : program.sat_checks) {
    for (const CompiledConstraint& c : check.constraints) add(c.value);
  }
  for (const CompiledEntryCheck& check : program.entry_checks) {
    for (const CompiledValueTest& test : check.set_tests) {
      add(test.lhs);
      add(test.rhs);
    }
    for (const CompiledConstraint& c : check.residual) add(c.value);
  }
}

PairProbe CompilePairProbe(const PairPlan& plan,
                           const TemplateIndexSpec& spec) {
  PairProbe out;
  switch (plan.kind) {
    case PlanKind::kNeverInvalidate:
      // PlanVisits never lists the group; if visited anyway, indexed
      // entries are DNI by the same plan.
      out.mode = ProbeMode::kScanRest;
      return out;
    case PlanKind::kAlwaysInvalidate:
    case PlanKind::kViewTest:
    case PlanKind::kSolverFallback:
      return out;  // kScanAll.
    case PlanKind::kParamProgram:
      break;
  }
  if (plan.program.num_checks() == 0) {
    // Independent for every binding: indexed entries are provably DNI.
    out.mode = ProbeMode::kScanRest;
    return out;
  }
  if (!spec.indexable) return out;  // kScanAll.
  // Every check must constrain the discriminator, otherwise some check
  // could fire for an entry no probe selects.
  for (const CompiledInsertCheck& check : plan.program.insert_checks) {
    const auto probe = ProbeFromValueTests(check.tests, spec);
    if (!probe.has_value()) return PairProbe{};  // kScanAll.
    out.probes.push_back(*probe);
  }
  for (const CompiledSatCheck& check : plan.program.sat_checks) {
    const auto probe = ProbeFromConstraints(check.constraints, spec);
    if (!probe.has_value()) return PairProbe{};  // kScanAll.
    out.probes.push_back(*probe);
  }
  for (const CompiledEntryCheck& check : plan.program.entry_checks) {
    auto probe = ProbeFromValueTests(check.set_tests, spec);
    if (!probe.has_value()) {
      probe = ProbeFromConstraints(check.residual, spec);
    }
    if (!probe.has_value()) return PairProbe{};  // kScanAll.
    out.probes.push_back(*probe);
  }
  out.mode = ProbeMode::kProbe;
  CollectUpdateRefs(plan.program, &out.update_refs);
  return out;
}

}  // namespace

ViewIndexPlan ViewIndexPlan::Compile(const templates::TemplateSet& templates,
                                     const catalog::Catalog& catalog,
                                     const analysis::InvalidationPlan& plan) {
  ViewIndexPlan out;
  out.num_updates_ = templates.num_updates();
  out.num_queries_ = templates.num_queries();
  DSSP_CHECK(plan.num_updates() == out.num_updates_ &&
             plan.num_queries() == out.num_queries_);

  out.specs_.reserve(out.num_queries_);
  for (const templates::QueryTemplate& q : templates.queries()) {
    out.specs_.push_back(PickSpec(q, catalog));
  }

  out.pairs_.reserve(out.num_updates_ * out.num_queries_);
  out.may_invalidate_.resize(out.num_updates_);
  for (size_t ui = 0; ui < out.num_updates_; ++ui) {
    for (size_t qi = 0; qi < out.num_queries_; ++qi) {
      const PairPlan& pair = plan.pair(ui, qi);
      if (pair.kind != PlanKind::kNeverInvalidate) {
        out.may_invalidate_[ui].push_back(qi);
      }
      PairProbe probe = CompilePairProbe(pair, out.specs_[qi]);
      if (probe.mode == ProbeMode::kProbe) {
        CollectQueryCoords(pair.program, &out.specs_[qi].required_literals);
      }
      out.pairs_.push_back(std::move(probe));
    }
  }

  for (TemplateIndexSpec& spec : out.specs_) {
    if (!spec.indexable) continue;
    spec.required_literals.emplace_back(spec.where_index, spec.rhs);
    std::sort(spec.required_literals.begin(), spec.required_literals.end());
    spec.required_literals.erase(
        std::unique(spec.required_literals.begin(),
                    spec.required_literals.end()),
        spec.required_literals.end());
  }
  return out;
}

std::optional<sql::Value> ViewIndexPlan::IndexKeyFor(
    size_t query_index, const sql::Statement& statement) const {
  const TemplateIndexSpec* spec = query_spec(query_index);
  if (spec == nullptr || !spec->indexable) return std::nullopt;
  // Every coordinate some probe-compiled program fetches must be a literal
  // in this entry; a missing one would make EvaluatePairPlan invalidate,
  // and the probe must then visit the entry.
  for (const auto& [index, rhs] : spec->required_literals) {
    const ValueRef ref = ValueRef::At(Source::kQueryWhere, index, rhs);
    if (analysis::FetchFromQuery(ref, statement) == nullptr) {
      return std::nullopt;
    }
  }
  const ValueRef disc =
      ValueRef::At(Source::kQueryWhere, spec->where_index, spec->rhs);
  const sql::Value* bound = analysis::FetchFromQuery(disc, statement);
  if (bound == nullptr || bound->is_null()) return std::nullopt;
  return *bound;
}

GroupProbe ViewIndexPlan::BuildGroupProbe(size_t update_index,
                                          size_t query_index,
                                          const sql::Statement& update) const {
  const PairProbe& pair = pair_probe(update_index, query_index);
  GroupProbe out;
  out.mode = pair.mode;
  if (pair.mode != ProbeMode::kProbe) return out;
  // If any update-side coordinate fails to fetch (the bound statement is
  // not a binding of the compiled template), EvaluatePairPlan invalidates
  // every entry — visit them all.
  for (const ValueRef& ref : pair.update_refs) {
    if (analysis::FetchFromUpdate(ref, update) == nullptr) {
      return GroupProbe{};
    }
  }
  out.spec_op = specs_[query_index].op;
  for (const ProbeRef& probe : pair.probes) {
    const sql::Value* v = analysis::FetchFromUpdate(probe.value, update);
    if (v == nullptr) return GroupProbe{};
    // A NULL operand satisfies no comparison: this check can never fire,
    // so it contributes no candidates.
    if (v->is_null()) continue;
    out.probes.emplace_back(probe.op, *v);
  }
  return out;
}

void ViewIndexPlan::PlanVisits(size_t update_index,
                               const sql::Statement* update,
                               std::vector<GroupVisit>* out) const {
  out->clear();
  if (update_index == CacheEntry::kNoTemplate) {
    // A notice that exposes no template may touch every group.
    for (size_t qi = 0; qi < num_queries_; ++qi) out->push_back({qi, {}});
  } else {
    DSSP_CHECK(update_index < num_updates_);
    for (const size_t qi : may_invalidate_[update_index]) {
      out->push_back(
          {qi, update == nullptr ? GroupProbe{}
                                 : BuildGroupProbe(update_index, qi, *update)});
    }
  }
  // Blind entries reveal no template: every update may touch them.
  out->push_back({CacheEntry::kNoTemplate, {}});
}

void GroupProbe::CollectCandidates(
    const ValueKeyMap& by_value, std::vector<const CacheEntry*>* out) const {
  const auto append = [out](ValueKeyMap::const_iterator lo,
                            ValueKeyMap::const_iterator hi) {
    for (; lo != hi; ++lo) {
      out->insert(out->end(), lo->second.begin(), lo->second.end());
    }
  };
  if (mode != ProbeMode::kProbe) {
    if (mode == ProbeMode::kScanAll) append(by_value.begin(), by_value.end());
    return;
  }
  for (const auto& [pop, pv] : probes) {
    if (pv.is_null()) continue;
    // Candidates can only lie in pv's type class: a cross-class constraint
    // conjunction is unsatisfiable and a cross-class value test excludes
    // the row. (The map holds no NULL keys; IndexKeyFor filters them.)
    const sql::Value first_string{std::string()};
    ValueKeyMap::const_iterator lo =
        pv.is_numeric() ? by_value.begin() : by_value.lower_bound(first_string);
    ValueKeyMap::const_iterator hi =
        pv.is_numeric() ? by_value.lower_bound(first_string) : by_value.end();
    // Narrow by the (spec_op, pop) pair. Bounds are inclusive on ties where
    // the exact condition is strict — extra candidates are sound, skipped
    // ones would not be.
    switch (spec_op) {
      case sql::CompareOp::kEq:
        // Entry interval is the point b; pop constrains b directly.
        switch (pop) {
          case sql::CompareOp::kEq:
            lo = by_value.lower_bound(pv);
            hi = by_value.upper_bound(pv);
            break;
          case sql::CompareOp::kLt:
            hi = by_value.lower_bound(pv);
            break;
          case sql::CompareOp::kLe:
            hi = by_value.upper_bound(pv);
            break;
          case sql::CompareOp::kGt:
            lo = by_value.upper_bound(pv);
            break;
          case sql::CompareOp::kGe:
            lo = by_value.lower_bound(pv);
            break;
        }
        break;
      case sql::CompareOp::kLt:
      case sql::CompareOp::kLe:
        // Entry interval is (-inf, b): only an operand below b matters.
        switch (pop) {
          case sql::CompareOp::kEq:
          case sql::CompareOp::kGt:
          case sql::CompareOp::kGe:
            lo = by_value.lower_bound(pv);
            break;
          case sql::CompareOp::kLt:
          case sql::CompareOp::kLe:
            break;  // Two lower-unbounded intervals always intersect.
        }
        break;
      case sql::CompareOp::kGt:
      case sql::CompareOp::kGe:
        // Entry interval is (b, +inf).
        switch (pop) {
          case sql::CompareOp::kEq:
          case sql::CompareOp::kLt:
          case sql::CompareOp::kLe:
            hi = by_value.upper_bound(pv);
            break;
          case sql::CompareOp::kGt:
          case sql::CompareOp::kGe:
            break;  // Two upper-unbounded intervals always intersect.
        }
        break;
    }
    append(lo, hi);
  }
}

ViewIndexPlan::Summary ViewIndexPlan::Summarize() const {
  Summary summary;
  for (const TemplateIndexSpec& spec : specs_) {
    if (spec.indexable) ++summary.indexable_queries;
  }
  for (const PairProbe& pair : pairs_) {
    switch (pair.mode) {
      case ProbeMode::kProbe:
        ++summary.probe_pairs;
        break;
      case ProbeMode::kScanRest:
        ++summary.skip_pairs;
        break;
      case ProbeMode::kScanAll:
        ++summary.scan_pairs;
        break;
    }
  }
  return summary;
}

}  // namespace dssp::service
