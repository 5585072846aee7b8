#include "dssp/cache.h"

#include <algorithm>

#include "common/macros.h"

namespace dssp::service {

namespace {

// All keys of a group, in the same sorted order the pre-index std::set
// iteration produced (determinism: stale-retention FIFO order depends on
// visit order).
std::vector<std::string> AllGroupKeys(const ValueKeyMap& by_value,
                                      const std::set<std::string>& rest) {
  std::vector<std::string> keys(rest.begin(), rest.end());
  for (const auto& [value, members] : by_value) {
    keys.insert(keys.end(), members.begin(), members.end());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

void QueryCache::RemoveLocked(Shard& shard, EntryMap::iterator it,
                              bool retain_stale) {
  const auto group_it = shard.groups.find(it->second.entry->template_index);
  if (group_it != shard.groups.end()) {
    Group& group = group_it->second;
    if (it->second.index_key.has_value()) {
      const auto value_it = group.by_value.find(*it->second.index_key);
      if (value_it != group.by_value.end()) {
        value_it->second.erase(it->first);
        if (value_it->second.empty()) group.by_value.erase(value_it);
      }
    } else {
      group.rest.erase(it->first);
    }
    if (group.empty()) shard.groups.erase(group_it);
  }
  shard.lru.erase(it->second.lru_position);
  if (retain_stale) RetainStale(std::move(it->second.entry));
  shard.entries.erase(it);
  size_.fetch_sub(1, std::memory_order_relaxed);
}

void QueryCache::RetainStale(std::shared_ptr<const CacheEntry> entry) {
  if (stale_capacity_.load(std::memory_order_relaxed) == 0) return;
  MutexLock lock(stale_mu_);
  const size_t cap = stale_capacity_.load(std::memory_order_relaxed);
  if (cap == 0) return;
  const auto it = stale_.find(entry->key);
  if (it != stale_.end()) {
    stale_fifo_.erase(it->second.fifo_position);
    stale_.erase(it);
  }
  stale_fifo_.push_back(entry->key);
  std::string key = entry->key;
  stale_.emplace(std::move(key),
                 StaleStored{std::move(entry),
                             update_epoch_.load(std::memory_order_relaxed),
                             std::prev(stale_fifo_.end())});
  while (stale_.size() > cap) {
    stale_.erase(stale_fifo_.front());
    stale_fifo_.pop_front();
  }
}

void QueryCache::SetStaleRetention(size_t max_entries) {
  stale_capacity_.store(max_entries, std::memory_order_relaxed);
  MutexLock lock(stale_mu_);
  while (stale_.size() > max_entries) {
    stale_.erase(stale_fifo_.front());
    stale_fifo_.pop_front();
  }
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
  if (now - it->second.epoch > max_updates_behind) return nullptr;
  return it->second.entry;
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
      const auto it = shard.entries.find(*shard.lru.back());
      DSSP_CHECK(it != shard.entries.end());
      if (victim_shard == nullptr || it->second.tick < oldest) {
        victim_shard = &shard;
        oldest = it->second.tick;
      }
    }
    DSSP_CHECK(victim_shard != nullptr);
    RemoveLocked(*victim_shard,
                 victim_shard->entries.find(*victim_shard->lru.back()));
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

void QueryCache::Insert(CacheEntry entry) {
  // Allocated before the shard lock is taken; from here on the entry is
  // immutable and shared with every lookup that returns it.
  std::shared_ptr<const CacheEntry> stored =
      std::make_shared<const CacheEntry>(std::move(entry));
  const CacheEntry& fresh = *stored;
  const HashedKey hashed = Hashed(fresh.key);
  Shard& shard = ShardFor(hashed);
  {
    MutexLock lock(shard.mu);
    const auto it = shard.entries.find(hashed);
    if (it != shard.entries.end()) RemoveLocked(shard, it);
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
    Group& group = shard.groups[fresh.template_index];
    if (index_key.has_value()) {
      group.by_value[*index_key].insert(fresh.key);
    } else {
      group.rest.insert(fresh.key);
    }
    const auto [slot, inserted] = shard.entries.emplace(
        fresh.key, Stored{std::move(stored), {}, NextTick(),
                          std::move(index_key)});
    DSSP_CHECK(inserted);
    shard.lru.push_front(&slot->first);
    slot->second.lru_position = shard.lru.begin();
    size_.fetch_add(1, std::memory_order_relaxed);
    // A fresh entry supersedes any stale copy retained for this key.
    if (stale_capacity_.load(std::memory_order_relaxed) != 0) {
      MutexLock stale_lock(stale_mu_);
      const auto stale_it = stale_.find(fresh.key);
      if (stale_it != stale_.end()) {
        stale_fifo_.erase(stale_it->second.fifo_position);
        stale_.erase(stale_it);
      }
    }
  }
  EvictToCapacity(insert_evictions_);
}

std::vector<size_t> QueryCache::GroupKeys() const {
  std::set<size_t> keys;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const auto& [group, entries] : shard.groups) keys.insert(group);
  }
  return std::vector<size_t>(keys.begin(), keys.end());
}

std::vector<std::string> QueryCache::GroupEntryKeys(size_t group) const {
  std::vector<std::string> keys;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    const auto it = shard.groups.find(group);
    if (it == shard.groups.end()) continue;
    keys.insert(keys.end(), it->second.rest.begin(), it->second.rest.end());
    for (const auto& [value, members] : it->second.by_value) {
      keys.insert(keys.end(), members.begin(), members.end());
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

size_t QueryCache::InvalidateEntries(
    const std::vector<GroupVisit>& visits,
    const std::function<bool(const CacheEntry&)>& should_invalidate) {
  size_t invalidated = 0;
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const GroupVisit& visit : visits) {
      const auto group_it = shard.groups.find(visit.group);
      if (group_it == shard.groups.end()) continue;
      // Keys first: erasing a group's last entry drops it from the index.
      const Group& members = group_it->second;
      std::vector<std::string> keys;
      switch (visit.probe.mode) {
        case ProbeMode::kScanAll:
          keys = AllGroupKeys(members.by_value, members.rest);
          break;
        case ProbeMode::kScanRest:
          keys.assign(members.rest.begin(), members.rest.end());
          break;
        case ProbeMode::kProbe: {
          // Rest entries plus the probes' candidates; the set keeps the
          // visit order sorted, like the full scan's.
          std::set<std::string> candidates(members.rest.begin(),
                                           members.rest.end());
          visit.probe.CollectCandidates(members.by_value, &candidates);
          keys.assign(candidates.begin(), candidates.end());
          break;
        }
      }
      for (const std::string& key : keys) {
        const auto it = shard.entries.find(key);
        DSSP_CHECK(it != shard.entries.end());
        if (should_invalidate(*it->second.entry)) {
          RemoveLocked(shard, it, /*retain_stale=*/true);
          ++invalidated;
        }
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
    shard.entries.clear();
    shard.groups.clear();
    shard.lru.clear();
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
