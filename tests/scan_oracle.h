// Test-side reference for DsspNode's invalidation path: the plain group scan.
//
// ScanOracle keeps one application's cache with no predicate index installed
// and applies an update notice with the same compiled InvalidationPlan,
// MixedStrategy and per-entry decision as DsspNode::OnUpdate. It does not use
// the node's compiled visit list (ViewIndexPlan::PlanVisits): it derives the
// groups to visit itself, by asking the strategy for a template-level
// decision on every group the cache holds, and scans every entry of each
// group it keeps. A differential test drives a DsspNode and a ScanOracle
// through one store/update history and compares counts, survivors and stale
// stores; bench/ablation_view_index times it as the scan column.

#ifndef DSSP_TESTS_SCAN_ORACLE_H_
#define DSSP_TESTS_SCAN_ORACLE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/exposure.h"
#include "analysis/plan.h"
#include "catalog/schema.h"
#include "dssp/cache.h"
#include "dssp/node.h"
#include "invalidation/strategies.h"
#include "templates/template_set.h"

namespace dssp::service {

class ScanOracle {
 public:
  // `catalog` and `templates` must outlive the oracle.
  ScanOracle(const catalog::Catalog& catalog,
             const templates::TemplateSet& templates)
      : templates_(templates),
        plan_(analysis::InvalidationPlan::Compile(templates, catalog)),
        strategy_(catalog, plan_) {}

  QueryCache& cache() { return cache_; }
  uint64_t entries_invalidated() const { return entries_invalidated_; }

  void Store(CacheEntry entry) {
    cache_.Insert(std::make_shared<const CacheEntry>(std::move(entry)));
  }

  // Applies one well-formed notice (see DsspNode::ValidateNotice); returns
  // the entries it invalidated.
  size_t OnUpdate(const UpdateNotice& notice) {
    invalidation::UpdateView update_view;
    update_view.level = notice.level;
    if (notice.level != analysis::ExposureLevel::kBlind &&
        notice.template_index != CacheEntry::kNoTemplate) {
      update_view.tmpl = &templates_.updates()[notice.template_index];
      update_view.template_index = notice.template_index;
    }
    if (notice.level == analysis::ExposureLevel::kStmt &&
        notice.statement.has_value()) {
      update_view.statement = &*notice.statement;
    }
    // A group is visited, whole, unless the update provably does not
    // invalidate its query template (blind entries: the blind query).
    std::vector<GroupVisit> visits;
    for (const size_t group : cache_.GroupKeys()) {
      invalidation::CachedQueryView group_view;
      if (group == CacheEntry::kNoTemplate) {
        group_view.level = analysis::ExposureLevel::kBlind;
      } else {
        group_view.level = analysis::ExposureLevel::kTemplate;
        group_view.tmpl = &templates_.queries()[group];
        group_view.template_index = group;
      }
      if (strategy_.Decide(update_view, group_view) !=
          invalidation::Decision::kDoNotInvalidate) {
        visits.push_back({group, GroupProbe{}});
      }
    }
    const auto should_invalidate = [&](const CacheEntry& entry) {
      invalidation::CachedQueryView view;
      view.level = entry.level;
      if (entry.template_index != CacheEntry::kNoTemplate) {
        view.tmpl = &templates_.queries()[entry.template_index];
        view.template_index = entry.template_index;
      }
      if (entry.statement.has_value()) view.statement = &*entry.statement;
      if (entry.result.has_value()) view.result = &*entry.result;
      return strategy_.Decide(update_view, view) ==
             invalidation::Decision::kInvalidate;
    };
    const size_t invalidated =
        cache_.InvalidateEntries(visits, should_invalidate);
    entries_invalidated_ += invalidated;
    cache_.BumpUpdateEpoch();
    return invalidated;
  }

 private:
  const templates::TemplateSet& templates_;
  const analysis::InvalidationPlan plan_;
  const invalidation::MixedStrategy strategy_;
  QueryCache cache_;
  uint64_t entries_invalidated_ = 0;
};

}  // namespace dssp::service

#endif  // DSSP_TESTS_SCAN_ORACLE_H_
