#ifndef DSSP_DSSP_VIEW_INDEX_H_
#define DSSP_DSSP_VIEW_INDEX_H_

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/plan.h"
#include "catalog/schema.h"
#include "sql/ast.h"
#include "templates/template_set.h"

namespace dssp::service {

struct CacheEntry;

// ---------------------------------------------------------------------------
// Predicate-indexed view registry (compiled side).
//
// The compiled InvalidationPlan makes each (update, query) pair decision
// O(1), but visiting every cached entry of every group an update may touch
// would still make the per-update invalidation cost linear in the number of
// cached views. This plan decides which groups an update notice visits and
// how, and makes the visit sublinear: for each query template it picks one
// WHERE conjunct `column op ?` — the *discriminator* — and QueryCache files
// every statement-exposed entry of that template in a bucket keyed by the
// literal bound at that conjunct, in an ordered per-group map (one structure
// serves both equality point probes and range probes). Which groups:
// PlanVisits lists, per update template, the groups whose pair is not
// kNeverInvalidate (the IPM's A cell, static per pair), plus the blind
// group. How: BuildGroupProbe
// turns the pair's compiled ParamProgram into a constraint on the
// discriminator bound; the cache then visits only entries whose bound can
// satisfy it, plus the group's unindexed rest.
//
// Soundness contract: an indexed entry may be skipped ONLY when
// EvaluatePairPlan would return kIndependent for it. The derivation below
// guarantees this:
//  - a kProbe pair's program mentions the discriminator coordinate in every
//    check, alongside an update-side operand on the same column;
//  - a check can fire (contribute kInvalidate) only if the discriminator's
//    interval intersects the update operand's interval (sat checks), or the
//    inserted/assigned point lies inside the discriminator's interval
//    (insert / entry set tests);
//  - probe ranges are conservative (inclusive on ties, whole type class
//    where the pair of ops cannot constrain the bound), so every entry a
//    check could fire for is visited and re-decided by the ordinary
//    strategy — the index prunes candidates, it never decides.
// Any shape this derivation cannot cover degrades to scanning the whole
// group (kScanAll), and entries whose statements do not expose the needed
// literals land in the group's rest bucket, which every probe visits. The
// fallback ladder therefore is: blind/template entry -> rest; template
// without a `column op ?` conjunct -> rest; pair whose program is not
// probeable -> group scan; malformed bound update -> group scan.
//
// Exposure: the index stores only what the entry's exposure level already
// reveals (the bound literal of a statement-exposed entry); blind and
// template-level entries contribute nothing to it.
// ---------------------------------------------------------------------------

// Orders sql::Values for index keys: total order by type class
// (null < numeric < string), Value::Compare within a class. Within the
// numeric and string classes this coincides exactly with the comparisons
// the satisfiability interval solver performs.
struct ValueLess {
  static int ClassOf(const sql::Value& v) {
    if (v.is_null()) return 0;
    return v.is_numeric() ? 1 : 2;
  }
  bool operator()(const sql::Value& a, const sql::Value& b) const {
    const int ca = ClassOf(a);
    const int cb = ClassOf(b);
    if (ca != cb) return ca < cb;
    if (ca == 0) return false;  // Nulls compare equal.
    return a.Compare(b) < 0;
  }
};

// One bucket: the cache's own entries, by pointer (the key is stored only
// in CacheEntry::key). Unordered; a visit sorts what it collects by key.
using EntryBucket = std::unordered_set<const CacheEntry*>;

// The per-group ordered index: discriminator bound -> its bucket.
using ValueKeyMap = std::map<sql::Value, EntryBucket, ValueLess>;

// The discriminator chosen for one query template (Section "bucket/interval
// layout" in DESIGN.md): the first WHERE conjunct of the form `column op ?`
// (equality preferred over range ops) whose column resolves unambiguously.
struct TemplateIndexSpec {
  bool indexable = false;
  size_t where_index = 0;  // Conjunct position in the SELECT's WHERE.
  bool rhs = true;         // Side of the conjunct holding the parameter.
  sql::CompareOp op = sql::CompareOp::kEq;  // Column on the left.
  std::string table;   // Physical table of the discriminator column.
  std::string column;  // Resolved column name.
  // Every query-side WHERE coordinate (index, rhs) some kProbe pair's
  // program fetches. An entry is indexable only if all of them hold
  // literals: EvaluatePairPlan invalidates on any failed query-side fetch,
  // and such an entry must never be skipped.
  std::vector<std::pair<size_t, bool>> required_literals;
};

// One probe constraint on the discriminator bound `b` of candidate entries:
// visit the entry iff interval(spec.op, b) can intersect interval(op, value
// fetched from the bound update).
struct ProbeRef {
  sql::CompareOp op = sql::CompareOp::kEq;
  analysis::ValueRef value;  // Const or update-side coordinate.
};

// How invalidation visits one cached template group.
enum class ProbeMode {
  kScanAll,   // Visit every entry.
  kScanRest,  // Visit only unindexed entries; indexed ones are provably DNI.
  kProbe,     // Visit rest + the candidates the probes select.
};

// How an update template's notices may visit one query template's group.
// kScanRest: the pair is kNeverInvalidate, or its program has no checks
// (independent for every binding). kProbe: every check constrains the
// discriminator. kScanAll: anything else (kAlwaysInvalidate / kViewTest /
// kSolverFallback, or a program with a non-discriminating check).
struct PairProbe {
  ProbeMode mode = ProbeMode::kScanAll;
  std::vector<ProbeRef> probes;  // One per check; kProbe only.
  // Every update-side coordinate the pair's program fetches. If any fails
  // to fetch from the bound update, EvaluatePairPlan invalidates every
  // entry, so the probe must degrade to a scan.
  std::vector<analysis::ValueRef> update_refs;
};

// A fully resolved probe for one group, built once per (update, group).
struct GroupProbe {
  ProbeMode mode = ProbeMode::kScanAll;
  sql::CompareOp spec_op = sql::CompareOp::kEq;  // Discriminator operator.
  std::vector<std::pair<sql::CompareOp, sql::Value>> probes;

  // Appends the indexed entries of a group that this probe visits to
  // `out`: every bucket (kScanAll), none (kScanRest), or the buckets the
  // probes select (kProbe). Overlapping probes append a bucket more than
  // once; the caller sorts and dedups.
  void CollectCandidates(const ValueKeyMap& by_value,
                         std::vector<const CacheEntry*>* out) const;
};

// One cached group an update notice visits, and how: `group` is a query
// template index, or CacheEntry::kNoTemplate for the blind entries.
struct GroupVisit {
  size_t group = 0;
  GroupProbe probe;
};

// The compiled predicate-index plan of one application: one
// TemplateIndexSpec per query template, one PairProbe per (update, query)
// pair, and per update template the list of groups its notices visit, all
// derived from (and soundly subordinate to) the compiled InvalidationPlan.
// It is the one place that decides which cached groups an update visits
// and how. Compiled once at app registration; immutable afterwards, so
// concurrent readers need no locking.
class ViewIndexPlan {
 public:
  static ViewIndexPlan Compile(const templates::TemplateSet& templates,
                               const catalog::Catalog& catalog,
                               const analysis::InvalidationPlan& plan);

  // The spec for a query template; nullptr for out-of-range group ids
  // (including CacheEntry::kNoTemplate).
  const TemplateIndexSpec* query_spec(size_t query_index) const {
    return query_index < specs_.size() ? &specs_[query_index] : nullptr;
  }

  const PairProbe& pair_probe(size_t update_index, size_t query_index) const {
    DSSP_CHECK(update_index < num_updates_ && query_index < num_queries_);
    return pairs_[update_index * num_queries_ + query_index];
  }

  // The discriminator bound under which an entry of `query_index` caching
  // `statement` should be indexed, or nullopt when the entry must go to the
  // group's rest bucket (template not indexable, required literal missing, or
  // a NULL discriminator — NULL satisfies no constraint, so probes would
  // never select it).
  std::optional<sql::Value> IndexKeyFor(size_t query_index,
                                        const sql::Statement& statement) const;

  // Resolves the pair's probe against a bound update statement. Degrades to
  // kScanAll when any update-side coordinate fails to fetch.
  GroupProbe BuildGroupProbe(size_t update_index, size_t query_index,
                             const sql::Statement& update) const;

  // Fills `out` with the groups one update notice visits, in ascending
  // group order with the blind group last (the cache's own group order):
  //  - `update_index` names an update template: the query groups whose
  //    pair is not kNeverInvalidate (the IPM's A cell is static, so this
  //    list is compiled once), each probed against `update` when it is
  //    non-null (stmt-level notices) and scanned whole otherwise;
  //  - `update_index` is CacheEntry::kNoTemplate (the notice exposes no
  //    template): every query group, scanned whole.
  // The blind group is always visited and scanned whole. Skipping a
  // kNeverInvalidate group is sound because the statement- and view-level
  // strategies only refine the template-level decision, so its DNI holds
  // for every entry of the group (DsspNode::Store keeps blind entries out
  // of template groups). Every visited entry is still decided by the
  // strategy; the list only says which entries can possibly be invalidated.
  void PlanVisits(size_t update_index, const sql::Statement* update,
                  std::vector<GroupVisit>* out) const;

  size_t num_updates() const { return num_updates_; }
  size_t num_queries() const { return num_queries_; }

  struct Summary {
    size_t indexable_queries = 0;
    size_t probe_pairs = 0;
    size_t skip_pairs = 0;
    size_t scan_pairs = 0;
  };
  Summary Summarize() const;

 private:
  size_t num_updates_ = 0;
  size_t num_queries_ = 0;
  std::vector<TemplateIndexSpec> specs_;   // One per query template.
  std::vector<PairProbe> pairs_;           // Row-major like InvalidationPlan.
  // Per update template, the query groups its pairs may invalidate
  // (every pair that is not kNeverInvalidate), ascending.
  std::vector<std::vector<size_t>> may_invalidate_;
};

}  // namespace dssp::service

#endif  // DSSP_DSSP_VIEW_INDEX_H_
