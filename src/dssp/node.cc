#include "dssp/node.h"

#include <vector>

#include "analysis/audit.h"

namespace dssp::service {

DsspStats DsspNode::AtomicStats::Snapshot() const {
  DsspStats out;
  out.lookups = lookups.load(std::memory_order_relaxed);
  out.hits = hits.load(std::memory_order_relaxed);
  out.misses = misses.load(std::memory_order_relaxed);
  out.stores = stores.load(std::memory_order_relaxed);
  out.updates_observed = updates_observed.load(std::memory_order_relaxed);
  out.entries_invalidated =
      entries_invalidated.load(std::memory_order_relaxed);
  out.stale_hits = stale_hits.load(std::memory_order_relaxed);
  out.rejected_notices = rejected_notices.load(std::memory_order_relaxed);
  return out;
}

DsspNode::AppState::AppState(const catalog::Catalog& catalog,
                             const templates::TemplateSet& templates)
    : templates(&templates),
      // Compile the invalidation plan ahead of time: one PairPlan per
      // (update template, query template) pair, so the serving hot path
      // does an O(1) lookup + compiled-program eval instead of re-running
      // the Section 4 analysis per cached entry.
      plan(analysis::InvalidationPlan::Compile(templates, catalog)),
      view_index(ViewIndexPlan::Compile(templates, catalog, plan)),
      strategy(catalog, plan),
      // Built after the view index, so every statement-exposed entry is
      // keyed under its discriminator bound.
      cache(&view_index) {}

Status DsspNode::RegisterApp(std::string app_id,
                             const catalog::Catalog* catalog,
                             const templates::TemplateSet* templates) {
  DSSP_CHECK(catalog != nullptr && templates != nullptr);
  if (strict_registration()) {
    // Audit before touching the registry: a rejected app must leave no
    // half-registered state behind. Only error-severity findings reject;
    // warnings are the operator's call (run tools/dssp_audit to see them).
    const analysis::AuditReport report =
        analysis::AuditApplication(*templates, *catalog);
    if (report.num_errors > 0) {
      std::string message = "strict registration refused application: ";
      bool first = true;
      for (const analysis::AuditFinding& finding : report.findings) {
        if (finding.severity != analysis::AuditSeverity::kError) continue;
        if (!first) message += "; ";
        first = false;
        message += finding.code + " " + finding.subject + ": " +
                   finding.message;
      }
      return InvalidArgumentError(std::move(message));
    }
  }
  WriterMutexLock lock(mu_);
  const auto [it, inserted] =
      apps_.try_emplace(std::move(app_id), *catalog, *templates);
  if (!inserted) {
    return AlreadyExistsError("application " + it->first);
  }
  return Status::Ok();
}

bool DsspNode::HasApp(std::string_view app_id) const {
  ReaderMutexLock lock(mu_);
  return apps_.contains(app_id);
}

DsspNode::AppState* DsspNode::FindApp(std::string_view app_id) {
  ReaderMutexLock lock(mu_);
  const auto it = apps_.find(app_id);
  return it == apps_.end() ? nullptr : &it->second;
}

const DsspNode::AppState* DsspNode::FindApp(std::string_view app_id) const {
  ReaderMutexLock lock(mu_);
  const auto it = apps_.find(app_id);
  return it == apps_.end() ? nullptr : &it->second;
}

std::shared_ptr<const CacheEntry> CacheBackend::LookupShared(
    const std::string& app_id, const std::string& key) {
  std::optional<CacheEntry> entry = Lookup(app_id, key);
  if (!entry.has_value()) return nullptr;
  return std::make_shared<const CacheEntry>(std::move(*entry));
}

std::shared_ptr<const CacheEntry> DsspNode::LookupShared(
    const std::string& app_id, const std::string& key) {
  AppState* app = FindApp(app_id);
  if (app == nullptr) return nullptr;
  app->stats.lookups.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const CacheEntry> entry = app->cache.Lookup(key);
  if (entry != nullptr) {
    app->stats.hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    app->stats.misses.fetch_add(1, std::memory_order_relaxed);
  }
  return entry;
}

std::optional<CacheEntry> DsspNode::Lookup(const std::string& app_id,
                                           const std::string& key) {
  const std::shared_ptr<const CacheEntry> entry = LookupShared(app_id, key);
  if (entry == nullptr) return std::nullopt;
  return *entry;
}

std::optional<CacheEntry> DsspNode::LookupStale(const std::string& app_id,
                                                const std::string& key,
                                                uint64_t max_updates_behind) {
  AppState* app = FindApp(app_id);
  if (app == nullptr) return std::nullopt;
  // Degraded-mode requests are still lookups: counting the hit without the
  // lookup (or dropping the miss) would inflate the reported hit rate.
  app->stats.lookups.fetch_add(1, std::memory_order_relaxed);
  const std::shared_ptr<const CacheEntry> entry =
      app->cache.LookupStale(key, max_updates_behind);
  if (entry == nullptr) {
    app->stats.misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  app->stats.stale_hits.fetch_add(1, std::memory_order_relaxed);
  return *entry;
}

void DsspNode::SetStaleRetention(const std::string& app_id,
                                 size_t max_entries) {
  AppState* app = FindApp(app_id);
  if (app == nullptr) return;
  app->cache.SetStaleRetention(max_entries);
}

void DsspNode::Store(const std::string& app_id, CacheEntry entry) {
  StoreShared(app_id, std::make_shared<const CacheEntry>(std::move(entry)));
}

void DsspNode::StoreShared(const std::string& app_id,
                           std::shared_ptr<const CacheEntry> entry) {
  AppState* app = FindApp(app_id);
  if (app == nullptr) return;
  // Invalidation reaches an entry only through its group, and decides a
  // whole group from its template: a blind entry filed under a template, a
  // template-exposed one with no template, or an index past the app's
  // templates would be visited wrongly or never. Refuse it uncached.
  const bool blind = entry->level == analysis::ExposureLevel::kBlind;
  if (blind ? entry->template_index != CacheEntry::kNoTemplate
            : entry->template_index >= app->templates->num_queries()) {
    return;
  }
  app->stats.stores.fetch_add(1, std::memory_order_relaxed);
  app->cache.Insert(std::move(entry));
}

Status DsspNode::ValidateNoticeFor(const AppState& app,
                                   const UpdateNotice& notice) {
  // Updates never expose views; a wire frame can also carry an arbitrary
  // level byte, which arrives here force-cast into the enum.
  const int level = static_cast<int>(notice.level);
  if (level < static_cast<int>(analysis::ExposureLevel::kBlind) ||
      level > static_cast<int>(analysis::ExposureLevel::kStmt)) {
    return InvalidArgumentError("update notice exposure level out of range");
  }
  // A blind notice reveals no template, so a junk index is ignored rather
  // than rejected (matching the pre-validation behavior).
  if (notice.level != analysis::ExposureLevel::kBlind &&
      notice.template_index != CacheEntry::kNoTemplate &&
      notice.template_index >= app.templates->num_updates()) {
    return InvalidArgumentError("update notice template index out of range");
  }
  return Status::Ok();
}

Status DsspNode::ValidateNotice(const std::string& app_id,
                                const UpdateNotice& notice) const {
  const AppState* app = FindApp(app_id);
  // Unknown tenants no-op in OnUpdate; there is nothing to validate against.
  if (app == nullptr) return Status::Ok();
  return ValidateNoticeFor(*app, notice);
}

size_t DsspNode::OnUpdate(const std::string& app_id,
                          const UpdateNotice& notice) {
  AppState* app = FindApp(app_id);
  if (app == nullptr) return 0;
  // A malformed or misrouted notice (e.g. a cluster frame for a different
  // membership epoch) must not kill a shared node: refuse it, count it, and
  // leave the update epoch alone — nothing was observed.
  if (!ValidateNoticeFor(*app, notice).ok()) {
    app->stats.rejected_notices.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  app->stats.updates_observed.fetch_add(1, std::memory_order_relaxed);

  invalidation::UpdateView update_view;
  update_view.level = notice.level;
  if (notice.level != analysis::ExposureLevel::kBlind &&
      notice.template_index != CacheEntry::kNoTemplate) {
    update_view.tmpl = &app->templates->updates()[notice.template_index];
    update_view.template_index = notice.template_index;
  }
  if (notice.level == analysis::ExposureLevel::kStmt &&
      notice.statement.has_value()) {
    update_view.statement = &*notice.statement;
  }

  const auto should_invalidate = [&](const CacheEntry& entry) {
    invalidation::CachedQueryView view;
    view.level = entry.level;
    if (entry.template_index != CacheEntry::kNoTemplate) {
      view.tmpl = &app->templates->queries()[entry.template_index];
      view.template_index = entry.template_index;
    }
    if (entry.statement.has_value()) view.statement = &*entry.statement;
    if (entry.result.has_value()) view.result = &*entry.result;
    return app->strategy.Decide(update_view, view) ==
           invalidation::Decision::kInvalidate;
  };

  // The compiled visit list (ViewIndexPlan::PlanVisits) only prunes which
  // entries are visited; every visited entry still goes through
  // should_invalidate. Per-thread scratch: OnUpdate runs concurrently.
  static thread_local std::vector<GroupVisit> visits;
  static_assert(invalidation::kNoTemplateIndex == CacheEntry::kNoTemplate);
  app->view_index.PlanVisits(update_view.template_index, update_view.statement,
                             &visits);
  const size_t invalidated =
      app->cache.InvalidateEntries(visits, should_invalidate);
  app->stats.entries_invalidated.fetch_add(invalidated,
                                           std::memory_order_relaxed);
  // Entries this update just killed are now exactly 1 update stale.
  app->cache.BumpUpdateEpoch();
  return invalidated;
}

void DsspNode::SetCacheCapacity(const std::string& app_id,
                                size_t max_entries) {
  AppState* app = FindApp(app_id);
  if (app == nullptr) return;
  app->cache.SetCapacity(max_entries);
}

CacheCounters DsspNode::GetCacheCounters(const std::string& app_id) const {
  const AppState* app = FindApp(app_id);
  CacheCounters counters;
  if (app == nullptr) return counters;
  counters.insert_evictions = app->cache.insert_evictions();
  counters.shrink_evictions = app->cache.shrink_evictions();
  counters.invalidation_removals = app->cache.invalidation_removals();
  return counters;
}

size_t DsspNode::ClearCache(const std::string& app_id) {
  AppState* app = FindApp(app_id);
  return app == nullptr ? 0 : app->cache.Clear();
}

size_t DsspNode::CacheSize(const std::string& app_id) const {
  const AppState* app = FindApp(app_id);
  return app == nullptr ? 0 : app->cache.size();
}

DsspStats DsspNode::stats(const std::string& app_id) const {
  const AppState* app = FindApp(app_id);
  return app == nullptr ? DsspStats{} : app->stats.Snapshot();
}

size_t DsspNode::TotalCacheSize() const {
  ReaderMutexLock lock(mu_);
  size_t total = 0;
  for (const auto& [id, app] : apps_) total += app.cache.size();
  return total;
}

}  // namespace dssp::service
