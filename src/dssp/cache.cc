#include "dssp/cache.h"

#include <algorithm>
#include <set>

#include "common/macros.h"

namespace dssp::service {

void QueryCache::RemoveLocked(Shard& shard, EntryMap::iterator it,
                              bool retain_stale) {
  Stored& stored = it->second;
  const CacheEntry* entry = stored.entry.get();
  Group& group = shard.groups[GroupSlot(entry->template_index)];
  if (stored.index_key.has_value()) {
    const auto bucket = group.by_value.find(*stored.index_key);
    DSSP_CHECK(bucket != group.by_value.end());
    bucket->second.erase(entry);
    if (bucket->second.empty()) group.by_value.erase(bucket);
  } else {
    group.rest.erase(entry);
  }
  shard.lru.erase(stored.lru_position);
  // The map's key views the entry's key: unlink it while the entry lives.
  std::shared_ptr<const CacheEntry> removed = std::move(stored.entry);
  shard.entries.erase(it);
  size_.fetch_sub(1, std::memory_order_relaxed);
  if (retain_stale) RetainStale(std::move(removed));
}

void QueryCache::RetainStale(std::shared_ptr<const CacheEntry> entry) {
  if (stale_capacity_.load(std::memory_order_relaxed) == 0) return;
  MutexLock lock(stale_mu_);
  const size_t cap = stale_capacity_.load(std::memory_order_relaxed);
  if (cap == 0) return;
  const std::string_view key = entry->key;
  DropStaleLocked(key);
  stale_fifo_.push_back(StaleStored{
      std::move(entry), update_epoch_.load(std::memory_order_relaxed)});
  stale_.emplace(key, std::prev(stale_fifo_.end()));
  TrimStaleLocked(cap);
}

void QueryCache::DropStaleLocked(std::string_view key) {
  const auto it = stale_.find(key);
  if (it == stale_.end()) return;
  const StaleFifo::iterator position = it->second;
  stale_.erase(it);
  stale_fifo_.erase(position);
}

void QueryCache::TrimStaleLocked(size_t max_entries) {
  while (stale_.size() > max_entries) {
    stale_.erase(stale_fifo_.front().entry->key);
    stale_fifo_.pop_front();
  }
}

void QueryCache::SetStaleRetention(size_t max_entries) {
  stale_capacity_.store(max_entries, std::memory_order_relaxed);
  MutexLock lock(stale_mu_);
  TrimStaleLocked(max_entries);
}

size_t QueryCache::StaleSize() const {
  MutexLock lock(stale_mu_);
  return stale_.size();
}

std::shared_ptr<const CacheEntry> QueryCache::LookupStale(
    const std::string& key, uint64_t max_updates_behind) const {
  const uint64_t now = update_epoch_.load(std::memory_order_relaxed);
  MutexLock lock(stale_mu_);
  const auto it = stale_.find(key);
  if (it == stale_.end()) return nullptr;
  if (now - it->second->epoch > max_updates_behind) return nullptr;
  return it->second->entry;
}

void QueryCache::EvictToCapacity(std::atomic<uint64_t>& counter) {
  const size_t cap = max_entries_.load(std::memory_order_relaxed);
  if (cap == 0) return;
  if (size_.load(std::memory_order_relaxed) <= cap) return;
  // All shard locks, in index order (the only multi-lock path, so any
  // consistent order is deadlock-free). Holding them all keeps the victim
  // choice exact: each shard's LRU tail is its oldest tick, and the global
  // victim is the smallest tail tick over all shards.
  std::array<std::unique_lock<std::mutex>, kNumShards> locks;
  for (size_t i = 0; i < kNumShards; ++i) {
    locks[i] = std::unique_lock<std::mutex>(shards_[i].mu.native());
  }
  while (size_.load(std::memory_order_relaxed) > cap) {
    Shard* victim_shard = nullptr;
    uint64_t oldest = 0;
    for (Shard& shard : shards_) {
      if (shard.lru.empty()) continue;
      const auto it = shard.entries.find(std::string_view(*shard.lru.back()));
      DSSP_CHECK(it != shard.entries.end());
      if (victim_shard == nullptr || it->second.tick < oldest) {
        victim_shard = &shard;
        oldest = it->second.tick;
      }
    }
    DSSP_CHECK(victim_shard != nullptr);
    const std::string_view victim = *victim_shard->lru.back();
    RemoveLocked(*victim_shard, victim_shard->entries.find(victim));
    counter.fetch_add(1, std::memory_order_relaxed);
  }
}

void QueryCache::SetCapacity(size_t max_entries) {
  max_entries_.store(max_entries, std::memory_order_relaxed);
  EvictToCapacity(shrink_evictions_);
}

std::shared_ptr<const CacheEntry> QueryCache::Lookup(const std::string& key) {
  const HashedKey hashed = Hashed(key);
  Shard& shard = ShardFor(hashed);
  MutexLock lock(shard.mu);
  const auto it = shard.entries.find(hashed);
  if (it == shard.entries.end()) return nullptr;
  if (max_entries_.load(std::memory_order_relaxed) != 0) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_position);
    it->second.tick = NextTick();
  }
  return it->second.entry;
}

void QueryCache::Insert(std::shared_ptr<const CacheEntry> entry) {
  const CacheEntry& fresh = *entry;
  // Index statement-exposed entries under their discriminator bound. Only
  // stmt/view levels qualify: their per-entry decision is the compiled
  // statement program the probes were derived against; anything else is
  // decided at template level and must stay in the always-visited rest.
  std::optional<sql::Value> index_key;
  if (view_index_ != nullptr &&
      fresh.template_index != CacheEntry::kNoTemplate &&
      fresh.statement.has_value() &&
      (fresh.level == analysis::ExposureLevel::kStmt ||
       fresh.level == analysis::ExposureLevel::kView)) {
    index_key =
        view_index_->IndexKeyFor(fresh.template_index, *fresh.statement);
  }
  const HashedKey hashed = Hashed(fresh.key);
  Shard& shard = ShardFor(hashed);
  {
    MutexLock lock(shard.mu);
    const auto it = shard.entries.find(hashed);
    if (it != shard.entries.end()) RemoveLocked(shard, it);
    const size_t slot = GroupSlot(fresh.template_index);
    if (slot >= shard.groups.size()) shard.groups.resize(slot + 1);
    Group& group = shard.groups[slot];
    if (index_key.has_value()) {
      group.by_value[*index_key].insert(&fresh);
    } else {
      group.rest.insert(&fresh);
    }
    shard.lru.push_front(&fresh.key);
    DSSP_CHECK(shard.entries
                   .emplace(std::string_view(fresh.key),
                            Stored{std::move(entry), shard.lru.begin(),
                                   NextTick(), std::move(index_key)})
                   .second);
    size_.fetch_add(1, std::memory_order_relaxed);
    // A fresh entry supersedes any stale copy retained for this key.
    if (stale_capacity_.load(std::memory_order_relaxed) != 0) {
      MutexLock stale_lock(stale_mu_);
      DropStaleLocked(fresh.key);
    }
  }
  EvictToCapacity(insert_evictions_);
}

std::vector<size_t> QueryCache::GroupKeys() const {
  std::set<size_t> keys;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (size_t slot = 0; slot < shard.groups.size(); ++slot) {
      if (shard.groups[slot].empty()) continue;
      keys.insert(slot - 1);  // Inverts GroupSlot.
    }
  }
  return std::vector<size_t>(keys.begin(), keys.end());
}

size_t QueryCache::InvalidateEntries(
    const std::vector<GroupVisit>& visits,
    const std::function<bool(const CacheEntry&)>& should_invalidate) {
  // Per-thread scratch: invalidations run concurrently, and
  // should_invalidate never re-enters the cache.
  static thread_local std::vector<const CacheEntry*> visited;
  size_t invalidated = 0;
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const GroupVisit& visit : visits) {
      const size_t slot = GroupSlot(visit.group);
      if (slot >= shard.groups.size()) continue;
      // Collected before deciding: removing an entry edits the group.
      const Group& group = shard.groups[slot];
      visited.assign(group.rest.begin(), group.rest.end());
      visit.probe.CollectCandidates(group.by_value, &visited);
      // Keys are unique within the cache, so equal keys are one entry
      // (selected by overlapping probes).
      std::sort(visited.begin(), visited.end(),
                [](const CacheEntry* a, const CacheEntry* b) {
                  return a->key < b->key;
                });
      visited.erase(std::unique(visited.begin(), visited.end()),
                    visited.end());
      for (const CacheEntry* entry : visited) {
        if (!should_invalidate(*entry)) continue;
        RemoveLocked(shard, shard.entries.find(std::string_view(entry->key)),
                     /*retain_stale=*/true);
        ++invalidated;
      }
    }
  }
  invalidation_removals_.fetch_add(invalidated, std::memory_order_relaxed);
  return invalidated;
}

size_t QueryCache::Clear() {
  size_t count = 0;
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    count += shard.entries.size();
    size_.fetch_sub(shard.entries.size(), std::memory_order_relaxed);
    shard.lru.clear();
    shard.groups.clear();
    shard.entries.clear();
  }
  {
    // An administrative reset must not leave servable stale copies behind.
    MutexLock lock(stale_mu_);
    stale_.clear();
    stale_fifo_.clear();
  }
  return count;
}

}  // namespace dssp::service
