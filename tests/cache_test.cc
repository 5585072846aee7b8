#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "dssp/cache.h"

namespace dssp::service {
namespace {

CacheEntry Entry(const std::string& key, size_t template_index,
                 analysis::ExposureLevel level = analysis::ExposureLevel::kView) {
  CacheEntry entry;
  entry.key = key;
  entry.level = level;
  entry.template_index = template_index;
  entry.blob = "blob:" + key;
  return entry;
}

// Inserts a new shared entry.
void Put(QueryCache& cache, CacheEntry entry) {
  cache.Insert(std::make_shared<const CacheEntry>(std::move(entry)));
}

// A visit list that scans each of `groups` whole.
std::vector<GroupVisit> ScanGroups(const std::vector<size_t>& groups) {
  std::vector<GroupVisit> visits;
  for (const size_t group : groups) visits.push_back({group, GroupProbe{}});
  return visits;
}

// Consistency removals go through InvalidateEntries, the one removal path
// the node drives: one key (every group visited, only `key` matches) or one
// whole group (only `group` visited, every entry in it matches).
size_t InvalidateKey(QueryCache& cache, const std::string& key) {
  return cache.InvalidateEntries(
      ScanGroups(cache.GroupKeys()),
      [&key](const CacheEntry& entry) { return entry.key == key; });
}

size_t InvalidateGroup(QueryCache& cache, size_t group) {
  return cache.InvalidateEntries(ScanGroups({group}),
                                 [](const CacheEntry&) { return true; });
}

// Keys of all entries in `group`, sorted, read by an InvalidateEntries pass
// that declines them all (no LRU touch, no removal).
std::vector<std::string> GroupEntryKeys(QueryCache& cache, size_t group) {
  std::vector<std::string> keys;
  cache.InvalidateEntries(ScanGroups({group}), [&](const CacheEntry& entry) {
    keys.push_back(entry.key);
    return false;
  });
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Whether the group index holds `key`. Unlike Lookup, this leaves the LRU
// order alone.
bool Holds(QueryCache& cache, const std::string& key) {
  for (size_t group : cache.GroupKeys()) {
    const std::vector<std::string> keys = GroupEntryKeys(cache, group);
    if (std::binary_search(keys.begin(), keys.end(), key)) return true;
  }
  return false;
}

// Cross-checks the cache's own bookkeeping: one InvalidateEntries pass per
// group, declining every entry (no LRU touch, no removal), must find no
// empty group and visit exactly size() entries, each in its own group.
void ExpectConsistent(QueryCache& cache) {
  size_t visited = 0;
  const uint64_t removals = cache.invalidation_removals();
  for (const size_t group : cache.GroupKeys()) {
    size_t in_group = 0;
    cache.InvalidateEntries(ScanGroups({group}), [&](const CacheEntry& entry) {
      EXPECT_EQ(entry.template_index, group) << entry.key;
      ++in_group;
      return false;
    });
    EXPECT_GT(in_group, 0u) << "empty group " << group << " in index";
    visited += in_group;
  }
  EXPECT_EQ(visited, cache.size());
  EXPECT_EQ(cache.invalidation_removals(), removals);
}

TEST(QueryCacheTest, InsertLookupInvalidate) {
  QueryCache cache;
  Put(cache, Entry("k1", 0));
  EXPECT_EQ(cache.size(), 1u);
  const std::shared_ptr<const CacheEntry> found = cache.Lookup("k1");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->blob, "blob:k1");
  EXPECT_EQ(cache.Lookup("k2"), nullptr);
  EXPECT_EQ(InvalidateKey(cache, "k1"), 1u);
  EXPECT_EQ(cache.Lookup("k1"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(QueryCacheTest, InvalidateMissingKeyIsNoop) {
  QueryCache cache;
  Put(cache, Entry("k", 0));
  EXPECT_EQ(InvalidateKey(cache, "ghost"), 0u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.invalidation_removals(), 0u);
  EXPECT_EQ(InvalidateKey(cache, "k"), 1u);
  EXPECT_EQ(cache.invalidation_removals(), 1u);
}

TEST(QueryCacheTest, InsertOverwrites) {
  QueryCache cache;
  Put(cache, Entry("k", 0));
  CacheEntry updated = Entry("k", 1);
  updated.blob = "new";
  Put(cache, updated);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup("k")->blob, "new");
  // The group index follows the overwrite.
  EXPECT_TRUE(GroupEntryKeys(cache, 0).empty());
  EXPECT_EQ(GroupEntryKeys(cache, 1).size(), 1u);
  // An in-place overwrite is neither an eviction nor an invalidation.
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.invalidation_removals(), 0u);
}

TEST(QueryCacheTest, GroupsTrackTemplates) {
  QueryCache cache;
  Put(cache, Entry("a1", 0));
  Put(cache, Entry("a2", 0));
  Put(cache, Entry("b1", 1));
  Put(cache, Entry("blind", CacheEntry::kNoTemplate,
                     analysis::ExposureLevel::kBlind));
  const std::vector<size_t> groups = cache.GroupKeys();
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(GroupEntryKeys(cache, 0).size(), 2u);
  EXPECT_EQ(GroupEntryKeys(cache, 1).size(), 1u);
  EXPECT_EQ(GroupEntryKeys(cache, CacheEntry::kNoTemplate).size(), 1u);
  EXPECT_TRUE(GroupEntryKeys(cache, 42).empty());
}

TEST(QueryCacheTest, InvalidateWholeGroup) {
  QueryCache cache;
  Put(cache, Entry("a1", 0));
  Put(cache, Entry("a2", 0));
  Put(cache, Entry("b1", 1));
  EXPECT_EQ(InvalidateGroup(cache, 0), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup("a1"), nullptr);
  EXPECT_NE(cache.Lookup("b1"), nullptr);
  EXPECT_EQ(InvalidateGroup(cache, 0), 0u);
  ExpectConsistent(cache);
}

TEST(QueryCacheTest, Clear) {
  QueryCache cache;
  Put(cache, Entry("a", 0));
  Put(cache, Entry("b", 1));
  EXPECT_EQ(cache.Clear(), 2u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.GroupKeys().empty());
  // Clear is an administrative reset, not invalidation.
  EXPECT_EQ(cache.invalidation_removals(), 0u);
}

TEST(QueryCacheTest, LruEvictionOrder) {
  QueryCache cache;
  cache.SetCapacity(3);
  Put(cache, Entry("a", 0));
  Put(cache, Entry("b", 0));
  Put(cache, Entry("c", 1));
  // Touch "a": it becomes most recent; "b" is now the LRU victim.
  EXPECT_NE(cache.Lookup("a"), nullptr);
  Put(cache, Entry("d", 1));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(Holds(cache, "b"));
  EXPECT_TRUE(Holds(cache, "a"));
  EXPECT_EQ(cache.evictions(), 1u);
  // Group index stays consistent with the eviction.
  EXPECT_EQ(GroupEntryKeys(cache, 0).size(), 1u);
  EXPECT_EQ(GroupEntryKeys(cache, 1).size(), 2u);
}

// An unbounded cache never evicts, so its hits keep no recency: a cap set
// later evicts in insertion order, and only hits served while bounded count
// as recent.
TEST(QueryCacheTest, UnboundedHitsKeepNoRecency) {
  QueryCache cache;
  Put(cache, Entry("a", 0));
  Put(cache, Entry("b", 0));
  Put(cache, Entry("c", 1));
  // Hit "a" while unbounded: the entry is served, its position kept.
  EXPECT_NE(cache.Lookup("a"), nullptr);
  cache.SetCapacity(2);
  EXPECT_EQ(cache.shrink_evictions(), 1u);
  EXPECT_FALSE(Holds(cache, "a"));
  EXPECT_TRUE(Holds(cache, "b"));
  EXPECT_TRUE(Holds(cache, "c"));
  // Bounded now: a hit on "b" makes "c" the next victim.
  EXPECT_NE(cache.Lookup("b"), nullptr);
  Put(cache, Entry("d", 1));
  EXPECT_EQ(cache.insert_evictions(), 1u);
  EXPECT_TRUE(Holds(cache, "b"));
  EXPECT_FALSE(Holds(cache, "c"));
  EXPECT_TRUE(Holds(cache, "d"));
  ExpectConsistent(cache);
}

TEST(QueryCacheTest, ShrinkingCapacityEvictsImmediately) {
  QueryCache cache;
  for (int i = 0; i < 10; ++i) {
    Put(cache, Entry("k" + std::to_string(i), 0));
  }
  cache.SetCapacity(4);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 6u);
  // The four most recent survive.
  for (int i = 6; i < 10; ++i) {
    EXPECT_TRUE(Holds(cache, "k" + std::to_string(i))) << i;
  }
}

TEST(QueryCacheTest, ZeroCapacityMeansUnlimited) {
  QueryCache cache;
  cache.SetCapacity(0);
  for (int i = 0; i < 1000; ++i) {
    Put(cache, Entry("k" + std::to_string(i), 0));
  }
  EXPECT_EQ(cache.size(), 1000u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(QueryCacheTest, GroupInvalidationMaintainsLru) {
  QueryCache cache;
  cache.SetCapacity(3);
  Put(cache, Entry("a", 0));
  Put(cache, Entry("b", 1));
  Put(cache, Entry("c", 0));
  EXPECT_EQ(InvalidateGroup(cache, 0), 2u);
  // LRU list no longer references erased keys; inserting past capacity
  // evicts the true survivor order without crashing.
  Put(cache, Entry("d", 1));
  Put(cache, Entry("e", 1));
  Put(cache, Entry("f", 1));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(Holds(cache, "b"));
}

// Regression: capacity-shrink evictions and insert-overflow evictions used
// to be conflated in one counter, and invalidation removals were not
// distinguishable from evictions at all.
TEST(QueryCacheTest, EvictionCountersSplitByCause) {
  QueryCache cache;
  for (int i = 0; i < 6; ++i) {
    Put(cache, Entry("k" + std::to_string(i), 0));
  }
  // Shrink: 6 entries -> capacity 4 evicts 2.
  cache.SetCapacity(4);
  EXPECT_EQ(cache.shrink_evictions(), 2u);
  EXPECT_EQ(cache.insert_evictions(), 0u);
  // Overflow: two more inserts at capacity evict 2 more.
  Put(cache, Entry("k6", 0));
  Put(cache, Entry("k7", 0));
  EXPECT_EQ(cache.insert_evictions(), 2u);
  EXPECT_EQ(cache.shrink_evictions(), 2u);
  EXPECT_EQ(cache.evictions(), 4u);
  // Invalidation removals are tracked separately from both.
  EXPECT_EQ(InvalidateKey(cache, "k7"), 1u);
  EXPECT_EQ(InvalidateGroup(cache, 0), 3u);
  EXPECT_EQ(cache.invalidation_removals(), 4u);
  EXPECT_EQ(cache.evictions(), 4u);
}

TEST(QueryCacheTest, InvalidateEntriesFiltersGroupsThenEntries) {
  QueryCache cache;
  Put(cache, Entry("a1", 0));
  Put(cache, Entry("a2", 0));
  Put(cache, Entry("b1", 1));
  Put(cache, Entry("b2", 1));
  const size_t erased = cache.InvalidateEntries(
      ScanGroups({1}),
      [](const CacheEntry& entry) { return entry.key != "b2"; });
  EXPECT_EQ(erased, 1u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(Holds(cache, "b1"));
  EXPECT_TRUE(Holds(cache, "b2"));
  EXPECT_TRUE(Holds(cache, "a1"));
  EXPECT_EQ(cache.invalidation_removals(), 1u);
  ExpectConsistent(cache);
}

// LRU/group-index invariants across SetCapacity + group invalidation +
// overwrite-Insert interleavings: the group index, LRU list, and size must
// stay mutually consistent through every mixed sequence.
TEST(QueryCacheTest, InvariantsSurviveMixedInterleavings) {
  QueryCache cache;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 12; ++i) {
      Put(cache, Entry("k" + std::to_string(i), i % 3));
    }
    ExpectConsistent(cache);
    // Overwrite half of them into a different group.
    for (int i = 0; i < 6; ++i) {
      Put(cache, Entry("k" + std::to_string(i), 3));
    }
    ExpectConsistent(cache);
    cache.SetCapacity(8);
    ExpectConsistent(cache);
    EXPECT_EQ(cache.size(), 8u);
    InvalidateGroup(cache, 3 - round % 2);
    ExpectConsistent(cache);
    // Overwrite survivors in place at capacity, then grow again.
    for (int i = 6; i < 12; ++i) {
      Put(cache, Entry("k" + std::to_string(i), 0));
    }
    ExpectConsistent(cache);
    EXPECT_LE(cache.size(), 8u);
    cache.SetCapacity(0);
  }
  // Every erased entry stayed accounted: size + all removals == inserts.
  ExpectConsistent(cache);
}

// ----- Stale side store (bounded-staleness retention). -----

TEST(StaleStoreTest, RetentionOffByDefault) {
  QueryCache cache;
  Put(cache, Entry("k", 0));
  InvalidateKey(cache, "k");
  EXPECT_EQ(cache.StaleSize(), 0u);
  EXPECT_EQ(cache.LookupStale("k", 100), nullptr);
}

TEST(StaleStoreTest, InvalidationRetainsAndKStalenessAges) {
  QueryCache cache;
  cache.SetStaleRetention(8);
  Put(cache, Entry("k", 0));
  InvalidateKey(cache, "k");  // Consistency removal: retained at epoch 0.
  cache.BumpUpdateEpoch();  // The update that killed it: now 1 behind.

  ASSERT_NE(cache.LookupStale("k", 1), nullptr);
  EXPECT_EQ(cache.LookupStale("k", 1)->blob, "blob:k");
  EXPECT_EQ(cache.LookupStale("k", 0), nullptr);

  // Each further observed update ages the copy by one epoch; a bound of k
  // serves it until it is k+1 updates behind.
  cache.BumpUpdateEpoch();
  cache.BumpUpdateEpoch();
  EXPECT_EQ(cache.LookupStale("k", 2), nullptr);
  ASSERT_NE(cache.LookupStale("k", 3), nullptr);
}

TEST(StaleStoreTest, GroupAndFilteredInvalidationRetain) {
  QueryCache cache;
  cache.SetStaleRetention(8);
  Put(cache, Entry("g0-a", 0));
  Put(cache, Entry("g0-b", 0));
  Put(cache, Entry("g1-a", 1));
  Put(cache, Entry("g1-b", 1));
  InvalidateGroup(cache, 0);
  cache.InvalidateEntries(
      ScanGroups({1}),
      [](const CacheEntry& entry) { return entry.key == "g1-a"; });
  cache.BumpUpdateEpoch();
  EXPECT_EQ(cache.StaleSize(), 3u);
  EXPECT_NE(cache.LookupStale("g0-a", 1), nullptr);
  EXPECT_NE(cache.LookupStale("g0-b", 1), nullptr);
  EXPECT_NE(cache.LookupStale("g1-a", 1), nullptr);
  // The entry the filter declined stays live and is not retained.
  EXPECT_TRUE(Holds(cache, "g1-b"));
  EXPECT_EQ(cache.LookupStale("g1-b", 1), nullptr);
}

TEST(StaleStoreTest, CapacityEvictionsAreNotRetained) {
  QueryCache cache;
  cache.SetStaleRetention(8);
  cache.SetCapacity(2);
  Put(cache, Entry("a", 0));
  Put(cache, Entry("b", 0));
  Put(cache, Entry("c", 0));  // Insert-overflow evicts "a".
  ASSERT_EQ(cache.insert_evictions(), 1u);
  EXPECT_EQ(cache.LookupStale("a", 100), nullptr);

  cache.SetCapacity(1);  // Shrink evicts "b".
  ASSERT_EQ(cache.shrink_evictions(), 1u);
  EXPECT_EQ(cache.LookupStale("b", 100), nullptr);
  EXPECT_EQ(cache.StaleSize(), 0u);

  // An eviction victim that was ALSO invalidated earlier keeps only the
  // invalidation-time copy: eviction never refreshes or removes it.
  cache.SetCapacity(0);
  Put(cache, Entry("d", 0));
  InvalidateKey(cache, "d");
  cache.BumpUpdateEpoch();
  EXPECT_NE(cache.LookupStale("d", 1), nullptr);
}

TEST(StaleStoreTest, FifoBoundDropsOldestRetained) {
  QueryCache cache;
  cache.SetStaleRetention(2);
  for (const char* key : {"a", "b", "c"}) {
    Put(cache, Entry(key, 0));
    InvalidateKey(cache, key);
  }
  EXPECT_EQ(cache.StaleSize(), 2u);
  EXPECT_EQ(cache.LookupStale("a", 100), nullptr);  // Oldest dropped.
  EXPECT_NE(cache.LookupStale("b", 100), nullptr);
  EXPECT_NE(cache.LookupStale("c", 100), nullptr);

  // Re-invalidating a retained key refreshes its FIFO slot, not a new one.
  Put(cache, Entry("b", 0));
  InvalidateKey(cache, "b");
  EXPECT_EQ(cache.StaleSize(), 2u);
  EXPECT_NE(cache.LookupStale("c", 100), nullptr);
}

TEST(StaleStoreTest, FreshInsertSupersedesStaleCopy) {
  QueryCache cache;
  cache.SetStaleRetention(8);
  Put(cache, Entry("k", 0));
  InvalidateKey(cache, "k");
  ASSERT_NE(cache.LookupStale("k", 100), nullptr);

  // A fresh value for the key arrives: the stale copy must die with it —
  // serving it later would resurrect a value older than one the client
  // already saw.
  CacheEntry fresh = Entry("k", 0);
  fresh.blob = "fresh";
  Put(cache, fresh);
  EXPECT_EQ(cache.LookupStale("k", 100), nullptr);
  EXPECT_EQ(cache.StaleSize(), 0u);

  // And invalidating the fresh value retains the NEW blob, not the old one.
  InvalidateKey(cache, "k");
  cache.BumpUpdateEpoch();
  ASSERT_NE(cache.LookupStale("k", 1), nullptr);
  EXPECT_EQ(cache.LookupStale("k", 1)->blob, "fresh");
}

TEST(StaleStoreTest, DisablingRetentionAndClearDropEverything) {
  QueryCache cache;
  cache.SetStaleRetention(8);
  Put(cache, Entry("a", 0));
  InvalidateKey(cache, "a");
  ASSERT_EQ(cache.StaleSize(), 1u);
  cache.SetStaleRetention(0);
  EXPECT_EQ(cache.StaleSize(), 0u);
  EXPECT_EQ(cache.LookupStale("a", 100), nullptr);

  cache.SetStaleRetention(8);
  Put(cache, Entry("b", 0));
  InvalidateKey(cache, "b");
  Put(cache, Entry("c", 0));
  ASSERT_EQ(cache.StaleSize(), 1u);
  // Clear is an administrative reset: live entries AND stale copies go.
  cache.Clear();
  EXPECT_EQ(cache.StaleSize(), 0u);
  EXPECT_EQ(cache.LookupStale("b", 100), nullptr);
}

TEST(StaleStoreTest, ShrinkingRetentionTrimsOldestFirst) {
  QueryCache cache;
  cache.SetStaleRetention(8);
  for (int i = 0; i < 5; ++i) {
    const std::string key = "k" + std::to_string(i);
    Put(cache, Entry(key, 0));
    InvalidateKey(cache, key);
  }
  ASSERT_EQ(cache.StaleSize(), 5u);
  cache.SetStaleRetention(2);
  EXPECT_EQ(cache.StaleSize(), 2u);
  EXPECT_NE(cache.LookupStale("k3", 100), nullptr);
  EXPECT_NE(cache.LookupStale("k4", 100), nullptr);
  EXPECT_EQ(cache.LookupStale("k2", 100), nullptr);
}

TEST(QueryCacheTest, OverwriteAtCapacityDoesNotEvict) {
  QueryCache cache;
  cache.SetCapacity(2);
  Put(cache, Entry("a", 0));
  Put(cache, Entry("b", 0));
  // Overwriting an existing key at full capacity replaces in place.
  Put(cache, Entry("a", 1));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_TRUE(Holds(cache, "a"));
  EXPECT_TRUE(Holds(cache, "b"));
  ExpectConsistent(cache);
}

// ----- Shared entries: Lookup hands out the cached entry itself. -----

// An entry whose blob lives on the heap, so a dangling pointer would read
// freed memory rather than a copy in the pointer's own storage.
CacheEntry HeapEntry(const std::string& key, size_t template_index,
                     const std::string& version) {
  CacheEntry entry = Entry(key, template_index);
  entry.blob = key + ":" + version + ":" + std::string(100, 'x');
  return entry;
}

void ExpectHeld(const std::shared_ptr<const CacheEntry>& held,
                const std::string& key, size_t template_index,
                const std::string& version) {
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->key, key);
  EXPECT_EQ(held->template_index, template_index);
  EXPECT_EQ(held->blob, HeapEntry(key, template_index, version).blob);
}

TEST(SharedEntryTest, LookupsShareOneEntry) {
  QueryCache cache;
  Put(cache, HeapEntry("k", 0, "v0"));
  const std::shared_ptr<const CacheEntry> first = cache.Lookup("k");
  const std::shared_ptr<const CacheEntry> second = cache.Lookup("k");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.Lookup("missing"), nullptr);
}

TEST(SharedEntryTest, HeldEntrySurvivesOverwrite) {
  QueryCache cache;
  Put(cache, HeapEntry("k", 0, "v0"));
  const std::shared_ptr<const CacheEntry> held = cache.Lookup("k");
  Put(cache, HeapEntry("k", 1, "v1"));
  ExpectHeld(held, "k", 0, "v0");
  ExpectHeld(cache.Lookup("k"), "k", 1, "v1");
  ExpectConsistent(cache);
}

TEST(SharedEntryTest, HeldEntrySurvivesInvalidation) {
  QueryCache cache;
  Put(cache, HeapEntry("k", 0, "v0"));
  const std::shared_ptr<const CacheEntry> held = cache.Lookup("k");
  EXPECT_EQ(InvalidateKey(cache, "k"), 1u);
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  ExpectHeld(held, "k", 0, "v0");
}

TEST(SharedEntryTest, HeldEntrySurvivesCapacityEviction) {
  QueryCache cache;
  cache.SetCapacity(1);
  Put(cache, HeapEntry("k", 0, "v0"));
  const std::shared_ptr<const CacheEntry> held = cache.Lookup("k");
  Put(cache, HeapEntry("other", 0, "v0"));
  ASSERT_EQ(cache.insert_evictions(), 1u);
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  ExpectHeld(held, "k", 0, "v0");
}

TEST(SharedEntryTest, HeldEntrySurvivesClear) {
  QueryCache cache;
  cache.SetStaleRetention(4);
  Put(cache, HeapEntry("k", 0, "v0"));
  const std::shared_ptr<const CacheEntry> held = cache.Lookup("k");
  EXPECT_EQ(cache.Clear(), 1u);
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  ExpectHeld(held, "k", 0, "v0");
}

// The stale side store keeps the invalidated entry itself, not a copy; a
// fresh insert drops the store's reference but not a holder's.
TEST(SharedEntryTest, StaleStoreSharesTheInvalidatedEntry) {
  QueryCache cache;
  cache.SetStaleRetention(4);
  Put(cache, HeapEntry("k", 0, "v0"));
  const std::shared_ptr<const CacheEntry> held = cache.Lookup("k");
  InvalidateKey(cache, "k");
  cache.BumpUpdateEpoch();
  const std::shared_ptr<const CacheEntry> stale = cache.LookupStale("k", 1);
  EXPECT_EQ(stale.get(), held.get());
  Put(cache, HeapEntry("k", 0, "v1"));
  EXPECT_EQ(cache.LookupStale("k", 1), nullptr);
  ExpectHeld(stale, "k", 0, "v0");
}

}  // namespace
}  // namespace dssp::service
