#ifndef DSSP_DSSP_CACHE_H_
#define DSSP_DSSP_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/exposure.h"
#include "common/mutex.h"
#include "dssp/view_index.h"
#include "engine/query_result.h"
#include "sql/ast.h"

namespace dssp::service {

// One cached (possibly encrypted) query result held by the DSSP. The fields
// below `blob` mirror exactly what the entry's exposure level reveals; a
// hidden field is absent, so invalidation code physically cannot consult it.
struct CacheEntry {
  static constexpr size_t kNoTemplate = static_cast<size_t>(-1);

  std::string key;  // Exposure-dependent lookup key (Section 2.2, fn. 3).
  analysis::ExposureLevel level = analysis::ExposureLevel::kBlind;

  // Index of the query template in the app's TemplateSet, if exposed
  // (level >= template); kNoTemplate otherwise.
  size_t template_index = kNoTemplate;

  // The bound query statement, if exposed (level >= stmt).
  std::optional<sql::Statement> statement;

  // The plaintext result, if exposed (level == view).
  std::optional<engine::QueryResult> result;

  // What a cache hit returns to the client: the serialized result,
  // encrypted unless level == view.
  std::string blob;
};

// The DSSP's store of cached query results for one application, with a
// per-exposed-template secondary index so invalidation visits only the
// groups (and, within a group, the entries) a ViewIndexPlan lists, and
// optional LRU capacity management (a shared provider bounds each tenant's
// memory).
//
// Each entry is one shared immutable CacheEntry, and CacheEntry::key is the
// only stored copy of its key: the entry map, group buckets, LRU list and
// stale side store refer to it by view or pointer.
//
// Thread safety: safe for concurrent use. Entries are hashed across
// kNumShards lock-striped shards, each with its own hash map, per-template
// group table, and LRU list; a lookup or store only contends with
// operations on the same shard. Exact global LRU order is preserved via a
// monotonic access tick per entry: eviction (the only cross-shard
// operation) takes all shard locks in index order and removes the entry
// with the globally smallest tick, so single-threaded eviction behavior is
// identical to an unsharded cache.
class QueryCache {
 public:
  static constexpr size_t kNumShards = 8;

  // Statement-exposed entries are keyed under `view_index` at Insert
  // (`view_index` must outlive the cache). Without one, every entry stays
  // in its group's unindexed rest bucket, which every visit reads — sound,
  // just unpruned.
  explicit QueryCache(const ViewIndexPlan* view_index = nullptr)
      : view_index_(view_index) {}

  // Neither copyable nor movable (shards contain mutexes); construct in
  // place.
  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  // Caps the entry count; 0 (default) means unlimited. Shrinking below the
  // current size evicts least-recently-used entries immediately (counted
  // separately from insert-overflow evictions). An unbounded cache keeps no
  // recency (see Lookup), so the first cap set on a cache that has served
  // hits while unbounded evicts in insertion order.
  void SetCapacity(size_t max_entries);

  // Capacity evictions, split by cause. evictions() is their sum.
  uint64_t insert_evictions() const {
    return insert_evictions_.load(std::memory_order_relaxed);
  }
  uint64_t shrink_evictions() const {
    return shrink_evictions_.load(std::memory_order_relaxed);
  }
  uint64_t evictions() const {
    return insert_evictions() + shrink_evictions();
  }

  // Entries removed by InvalidateEntries — consistency-driven removals, as
  // opposed to capacity evictions. Clear() is counted by neither (it is an
  // administrative reset, not invalidation).
  uint64_t invalidation_removals() const {
    return invalidation_removals_.load(std::memory_order_relaxed);
  }

  // Returns the entry with `key`, or null. On a capacity-bounded cache a hit
  // refreshes the entry's LRU position; an unbounded cache never evicts, so
  // its hits skip that upkeep and the global tick. Entries are immutable
  // once inserted and shared, not copied:
  // an overwrite, invalidation, eviction or Clear drops the cache's
  // reference, and the caller's pointer keeps the old entry alive and
  // unchanged.
  std::shared_ptr<const CacheEntry> Lookup(const std::string& key);

  // Inserts or overwrites, evicting the least-recently-used entries if the
  // cache is at capacity. The cache shares `entry`, which must not change
  // afterwards; other caches may hold the same entry.
  void Insert(std::shared_ptr<const CacheEntry> entry);

  // Group keys: template_index for exposed templates, CacheEntry::kNoTemplate
  // for blind-level entries. Sorted; merged across shards.
  std::vector<size_t> GroupKeys() const;

  // The one removal path for consistency: carries out a visit list (see
  // ViewIndexPlan::PlanVisits) and erases each visited entry for which
  // `should_invalidate` returns true. Returns entries erased.
  //
  // Visits shards one at a time, so invalidating never blocks lookups in
  // other shards. In each shard it walks `visits` in order, skipping groups
  // the shard does not hold. Every probe mode visits the group's unindexed
  // entries plus the indexed ones GroupProbe::CollectCandidates selects
  // (all, none or the probed buckets), skipping only those the
  // ViewIndexPlan proved `should_invalidate` would decline; each entry is
  // decided once. Within a group the visit order is sorted by key whatever
  // the probe, and `visits` must be in ascending group order (PlanVisits'
  // order), so stale-retention FIFO order is identical whenever the erased
  // sets are.
  //
  // `should_invalidate` runs under a shard lock and must not call back into
  // this cache.
  size_t InvalidateEntries(
      const std::vector<GroupVisit>& visits,
      const std::function<bool(const CacheEntry&)>& should_invalidate);

  // Erases everything; returns how many. Also drops the stale side store.
  size_t Clear();

  size_t size() const { return size_.load(std::memory_order_relaxed); }

  // ----- Degraded-mode stale retention (bounded-staleness serving). -----
  //
  // When enabled (capacity > 0), entries removed by *consistency*
  // invalidation (InvalidateEntries — not capacity eviction, not Clear) are
  // kept in a bounded FIFO side store, stamped with the current update
  // epoch. While the home server is unreachable, a client may serve such an
  // entry if it is at most `max_updates_behind` observed updates old
  // (k-staleness: the served value predates at most k updates). Inserting a
  // fresh entry for a key supersedes its stale copy.

  // Caps the side store's entry count; 0 (default) disables retention and
  // drops anything currently retained.
  void SetStaleRetention(size_t max_entries);
  size_t StaleSize() const;

  // Advances the update epoch; call once per observed update, after its
  // invalidation pass (so an entry killed by update N is 1 epoch behind
  // immediately afterwards).
  void BumpUpdateEpoch() {
    update_epoch_.fetch_add(1, std::memory_order_relaxed);
  }

  // Returns the retained entry for `key` if it is at most
  // `max_updates_behind` epochs old (which is >= 1 for anything retained),
  // or null.
  std::shared_ptr<const CacheEntry> LookupStale(
      const std::string& key, uint64_t max_updates_behind) const;

 private:
  struct Stored {
    std::shared_ptr<const CacheEntry> entry;
    std::list<const std::string*>::iterator lru_position;
    // Global last-access time; strictly increasing across the whole cache,
    // so each shard's LRU list is sorted by tick (front = newest) and the
    // global LRU victim is the smallest tail tick over all shards.
    uint64_t tick = 0;
    // Discriminator bound this entry is indexed under in its group's
    // by_value map; nullopt = the entry lives in the group's rest bucket.
    std::optional<sql::Value> index_key;
  };

  // One template group's membership, split by indexability: entries whose
  // exposed statement yields a discriminator bound live in the ordered
  // by_value index (probed sublinearly at invalidation time); everything
  // else — blind/template-level entries, missing literals, NULL bounds —
  // lives in `rest`, which every probe mode visits.
  struct Group {
    ValueKeyMap by_value;
    EntryBucket rest;

    bool empty() const { return by_value.empty() && rest.empty(); }
  };

  // A key with its std::hash computed once, so a lookup picks the shard and
  // probes the shard's map with one hash. libstdc++ caches each stored
  // key's hash because KeyHash is not noexcept (keep it so): probes compare
  // hashes before bytes, and rehashing never rehashes a key.
  struct HashedKey {
    std::string_view key;
    size_t hash = 0;
  };
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
    size_t operator()(const HashedKey& key) const { return key.hash; }
  };
  struct KeyEqual {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
    bool operator()(const HashedKey& a, std::string_view b) const {
      return a.key == b;
    }
    bool operator()(std::string_view a, const HashedKey& b) const {
      return a == b.key;
    }
  };
  // Keyed by a view of the key of the entry the value holds.
  using EntryMap =
      std::unordered_map<std::string_view, Stored, KeyHash, KeyEqual>;

  struct Shard {
    mutable Mutex mu;
    EntryMap entries DSSP_GUARDED_BY(mu);
    // Indexed by GroupSlot; grows on insert to the highest slot stored.
    std::vector<Group> groups DSSP_GUARDED_BY(mu);
    // Most-recently-used at the front. Points at the stored entries' keys.
    std::list<const std::string*> lru DSSP_GUARDED_BY(mu);
  };

  // Where a group lives in Shard::groups: template t in slot t + 1, and the
  // blind group in slot 0 (kNoTemplate + 1 wraps to 0).
  static size_t GroupSlot(size_t group) {
    static_assert(CacheEntry::kNoTemplate + 1 == 0);
    return group + 1;
  }

  Shard& ShardFor(const HashedKey& key) {
    return shards_[key.hash % kNumShards];
  }
  static HashedKey Hashed(std::string_view key) {
    return HashedKey{key, KeyHash{}(key)};
  }
  uint64_t NextTick() { return tick_.fetch_add(1, std::memory_order_relaxed); }

  // Removes one entry from its shard's map, group index, and LRU list.
  // Caller holds shard.mu. `retain_stale` moves the entry into the stale
  // side store (invalidation paths) instead of discarding it outright
  // (capacity evictions). Lock order is always shard.mu -> stale_mu_.
  void RemoveLocked(Shard& shard, EntryMap::iterator it,
                    bool retain_stale = false) DSSP_REQUIRES(shard.mu);

  // Stashes an invalidated entry into the bounded stale store (no-op when
  // retention is off). The store shares the entry; it never copies it.
  void RetainStale(std::shared_ptr<const CacheEntry> entry);

  // Drops the retained copy of `key`, if any.
  void DropStaleLocked(std::string_view key) DSSP_REQUIRES(stale_mu_);
  // Drops the oldest retained entries until at most `max_entries` remain.
  void TrimStaleLocked(size_t max_entries) DSSP_REQUIRES(stale_mu_);

  // Evicts globally least-recently-used entries until size() <= capacity,
  // charging them to `counter`. Takes all shard locks (in index order) via a
  // dynamic lock array — a pattern thread-safety analysis cannot express, so
  // the function opts out; it is the single multi-shard-lock path.
  void EvictToCapacity(std::atomic<uint64_t>& counter)
      DSSP_NO_THREAD_SAFETY_ANALYSIS;

  struct StaleStored {
    std::shared_ptr<const CacheEntry> entry;
    uint64_t epoch = 0;  // update_epoch_ when the entry was invalidated.
  };
  using StaleFifo = std::list<StaleStored>;

  std::array<Shard, kNumShards> shards_;
  const ViewIndexPlan* const view_index_;
  mutable Mutex stale_mu_;
  // The retained entries, oldest at the front.
  StaleFifo stale_fifo_ DSSP_GUARDED_BY(stale_mu_);
  // Each retained entry's FIFO position, keyed by a view of its key.
  std::unordered_map<std::string_view, StaleFifo::iterator> stale_
      DSSP_GUARDED_BY(stale_mu_);
  std::atomic<size_t> stale_capacity_{0};
  std::atomic<uint64_t> update_epoch_{0};
  std::atomic<uint64_t> tick_{0};
  std::atomic<size_t> size_{0};
  std::atomic<size_t> max_entries_{0};
  std::atomic<uint64_t> insert_evictions_{0};
  std::atomic<uint64_t> shrink_evictions_{0};
  std::atomic<uint64_t> invalidation_removals_{0};
};

}  // namespace dssp::service

#endif  // DSSP_DSSP_CACHE_H_
