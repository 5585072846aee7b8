#ifndef DSSP_DSSP_NODE_H_
#define DSSP_DSSP_NODE_H_

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/exposure.h"
#include "analysis/plan.h"
#include "catalog/schema.h"
#include "common/mutex.h"
#include "dssp/cache.h"
#include "dssp/view_index.h"
#include "invalidation/strategies.h"
#include "templates/template_set.h"

namespace dssp::service {

// What the DSSP learns about a completed update, limited by the update
// template's exposure level. A blind update carries nothing at all.
struct UpdateNotice {
  analysis::ExposureLevel level = analysis::ExposureLevel::kBlind;
  size_t template_index = CacheEntry::kNoTemplate;  // If level >= template.
  std::optional<sql::Statement> statement;          // If level >= stmt.
};

// Per-application DSSP counters, as a point-in-time snapshot. The node
// accumulates these with relaxed atomics; a snapshot taken while worker
// threads are active reflects each counter individually (monotone, never
// torn) but not necessarily one global instant — e.g. `hits + misses` can
// momentarily trail `lookups`. Quiesce writers for exact cross-counter
// arithmetic.
struct DsspStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t stores = 0;
  uint64_t updates_observed = 0;
  uint64_t entries_invalidated = 0;
  // Degraded-mode serves from the stale side store (home unreachable);
  // counted separately from `hits` — they are not consistency hits. Stale
  // lookups do count toward `lookups` (and `misses` when they find
  // nothing), so hit_rate() reflects degraded-mode traffic.
  uint64_t stale_hits = 0;
  // Malformed or misrouted update notices refused by OnUpdate (bad exposure
  // level, out-of-range template index). Not counted as updates_observed.
  uint64_t rejected_notices = 0;

  double hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

// Per-application cache removal accounting, split by cause: capacity
// evictions (by whether insert overflow or a capacity shrink triggered
// them) versus consistency-driven invalidation removals.
struct CacheCounters {
  uint64_t insert_evictions = 0;
  uint64_t shrink_evictions = 0;
  uint64_t invalidation_removals = 0;

  uint64_t total_evictions() const {
    return insert_evictions + shrink_evictions;
  }
};

// The cache-service surface a ScalableApp talks to. One DsspNode implements
// it directly (the paper's single-proxy deployment); a cluster::ClusterRouter
// implements it by composing many nodes behind a consistent-hash ring. The
// backend is chosen at construction and never changes, so the single-node
// hot path stays what it always was.
class CacheBackend {
 public:
  virtual ~CacheBackend() = default;

  virtual Status RegisterApp(std::string app_id,
                             const catalog::Catalog* catalog,
                             const templates::TemplateSet* templates) = 0;
  virtual std::optional<CacheEntry> Lookup(const std::string& app_id,
                                           const std::string& key) = 0;
  // The hit path ScalableApp uses: the cached entry itself, shared rather
  // than copied, or null on a miss. The default wraps Lookup (one copy),
  // so a decorator that overrides only Lookup still sees every lookup;
  // DsspNode and ClusterRouter override it to share the cached entry.
  virtual std::shared_ptr<const CacheEntry> LookupShared(
      const std::string& app_id, const std::string& key);
  virtual std::optional<CacheEntry> LookupStale(
      const std::string& app_id, const std::string& key,
      uint64_t max_updates_behind) = 0;
  virtual void Store(const std::string& app_id, CacheEntry entry) = 0;
  virtual size_t OnUpdate(const std::string& app_id,
                          const UpdateNotice& notice) = 0;
  virtual size_t ClearCache(const std::string& app_id) = 0;
  virtual void SetStaleRetention(const std::string& app_id,
                                 size_t max_entries) = 0;
};

// The shared Database Scalability Service Provider node: caches (possibly
// encrypted) query results for many applications and keeps them consistent
// by invalidating on updates, using only each entry's exposed information.
//
// The DSSP holds no application keys. Applications are isolated: lookups and
// invalidations are scoped to one application's cache.
//
// Thread safety: safe for concurrent use by multiple worker threads. The
// registry is guarded by a shared mutex (registration writes, everything
// else reads), each application's cache is internally lock-striped (see
// QueryCache), and stats are relaxed atomics. Operations on an app_id that
// was never registered degrade gracefully (miss / no-op / zero) rather than
// aborting: a shared provider must tolerate traffic for unknown tenants.
class DsspNode : public CacheBackend {
 public:
  DsspNode() = default;

  // Registers an application. `catalog` and `templates` are the statically
  // published metadata (schemas and template texts) the DSSP may consult
  // when an entry's or update's exposure level permits; both must outlive
  // the node. Fails on duplicate id.
  Status RegisterApp(std::string app_id, const catalog::Catalog* catalog,
                     const templates::TemplateSet* templates) override;

  // Strict registration (default off): when enabled, RegisterApp runs the
  // static auditor (analysis/audit.h) over the app's templates and schema
  // first and refuses — with the findings in the error message — any app
  // carrying error-severity findings (type mismatches, dead templates, ...).
  // The audit is purely static, so a rejected app leaves no trace.
  void SetStrictRegistration(bool enabled) {
    strict_registration_.store(enabled, std::memory_order_relaxed);
  }
  bool strict_registration() const {
    return strict_registration_.load(std::memory_order_relaxed);
  }

  bool HasApp(std::string_view app_id) const;

  // Cache operations for one application; unknown app ids miss.
  // LookupShared returns the cached entry itself: entries are immutable and
  // reference-counted, so the pointer stays valid and unchanged even if a
  // concurrent invalidation, overwrite or eviction drops the entry from
  // the cache. Lookup is LookupShared plus one copy.
  std::shared_ptr<const CacheEntry> LookupShared(
      const std::string& app_id, const std::string& key) override;
  std::optional<CacheEntry> Lookup(const std::string& app_id,
                                   const std::string& key) override;
  // StoreShared caches `entry` itself, so replicas can share one entry;
  // Store is StoreShared on a new shared entry.
  void Store(const std::string& app_id, CacheEntry entry) override;
  void StoreShared(const std::string& app_id,
                   std::shared_ptr<const CacheEntry> entry);

  // Degraded-mode lookup: a recently invalidated entry for `key`, if it is
  // at most `max_updates_behind` observed updates stale (see
  // QueryCache::LookupStale). Requires SetStaleRetention > 0 to ever hit.
  // Counted as a stale hit, never as a regular hit.
  std::optional<CacheEntry> LookupStale(const std::string& app_id,
                                        const std::string& key,
                                        uint64_t max_updates_behind) override;

  // Caps the app's stale side store (0 = retention off, the default).
  void SetStaleRetention(const std::string& app_id,
                         size_t max_entries) override;

  // Invalidation on a completed update; returns entries invalidated.
  // Drains the app's cache shard by shard, so concurrent lookups in other
  // shards proceed while one shard is being pruned. A notice that fails
  // ValidateNotice is rejected (counted in rejected_notices, no epoch
  // advance) instead of aborting the node.
  size_t OnUpdate(const std::string& app_id,
                  const UpdateNotice& notice) override;

  // Structural validation of an update notice against the app's published
  // templates: the exposure level must be a valid *update* level (blind /
  // template / stmt — updates never expose views) and an exposed template
  // index must be in range. Unknown apps validate trivially (OnUpdate
  // no-ops for them). Used by OnUpdate and by the cluster bus endpoint to
  // refuse malformed frames before acknowledging them.
  Status ValidateNotice(const std::string& app_id,
                        const UpdateNotice& notice) const;

  // Caps one application's cache entry count (0 = unlimited). A shared
  // provider uses this to bound each tenant's memory; overflow evicts the
  // least recently used entries.
  void SetCacheCapacity(const std::string& app_id, size_t max_entries);

  // Removal accounting split by cause (zeroes for unknown apps).
  CacheCounters GetCacheCounters(const std::string& app_id) const;

  // Drops an application's whole cache (e.g., to start an experiment cold).
  size_t ClearCache(const std::string& app_id) override;

  size_t CacheSize(const std::string& app_id) const;

  // Snapshot of the app's counters (zeroes for unknown apps).
  DsspStats stats(const std::string& app_id) const;

  // Aggregate size across applications.
  size_t TotalCacheSize() const;

 private:
  struct AtomicStats {
    std::atomic<uint64_t> lookups{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> stores{0};
    std::atomic<uint64_t> updates_observed{0};
    std::atomic<uint64_t> entries_invalidated{0};
    std::atomic<uint64_t> stale_hits{0};
    std::atomic<uint64_t> rejected_notices{0};

    DsspStats Snapshot() const;
  };

  // One registered application, built once in place at registration: the
  // members are initialized in declaration order, and each later one reads
  // the earlier ones. Stays put afterwards (apps_ map nodes do not move),
  // so the references between members stay valid.
  struct AppState {
    AppState(const catalog::Catalog& catalog,
             const templates::TemplateSet& templates);

    const templates::TemplateSet* const templates;
    // The strategies answer every per-entry decision from the compiled
    // plan instead of re-deriving the template analysis per cached entry.
    const analysis::InvalidationPlan plan;
    // Derived from `plan`: which groups each update visits, and the
    // predicate index the cache keys statement-exposed entries under.
    const ViewIndexPlan view_index;
    const invalidation::MixedStrategy strategy;
    QueryCache cache;
    AtomicStats stats;
  };

  static Status ValidateNoticeFor(const AppState& app,
                                  const UpdateNotice& notice);

  // nullptr when the app was never registered. The returned state is
  // stable: apps are never unregistered and map nodes do not move.
  AppState* FindApp(std::string_view app_id);
  const AppState* FindApp(std::string_view app_id) const;

  // Guards the apps_ map *structure* only. AppState values are stable once
  // inserted (apps are never unregistered, map nodes do not move), and each
  // one is internally synchronized (lock-striped cache, atomic stats), so
  // FindApp may hand out AppState pointers past the registry lock.
  mutable SharedMutex mu_;
  std::map<std::string, AppState, std::less<>> apps_ DSSP_GUARDED_BY(mu_);
  std::atomic<bool> strict_registration_{false};
};

}  // namespace dssp::service

#endif  // DSSP_DSSP_NODE_H_
