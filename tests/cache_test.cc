#include <gtest/gtest.h>

#include <optional>
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

// Consistency removals go through InvalidateEntries, the one removal path
// the node drives: one key (every group survives, only `key` matches) or one
// whole group (only `group` survives, every entry in it matches).
size_t InvalidateKey(QueryCache& cache, const std::string& key) {
  return cache.InvalidateEntries(
      [](size_t) { return true; },
      [&key](const CacheEntry& entry) { return entry.key == key; });
}

size_t InvalidateGroup(QueryCache& cache, size_t group) {
  return cache.InvalidateEntries([group](size_t g) { return g == group; },
                                 [](const CacheEntry&) { return true; });
}

// Cross-checks the cache's own bookkeeping: every group entry key must be
// peekable, and the group index must account for exactly size() entries.
void ExpectConsistent(const QueryCache& cache) {
  size_t indexed = 0;
  for (size_t group : cache.GroupKeys()) {
    const std::vector<std::string> keys = cache.GroupEntryKeys(group);
    EXPECT_FALSE(keys.empty()) << "empty group " << group << " in index";
    for (const std::string& key : keys) {
      const std::optional<CacheEntry> entry = cache.Peek(key);
      ASSERT_TRUE(entry.has_value()) << "indexed key missing: " << key;
      EXPECT_EQ(entry->template_index, group);
    }
    indexed += keys.size();
  }
  EXPECT_EQ(indexed, cache.size());
}

TEST(QueryCacheTest, InsertLookupInvalidate) {
  QueryCache cache;
  cache.Insert(Entry("k1", 0));
  EXPECT_EQ(cache.size(), 1u);
  const std::optional<CacheEntry> found = cache.Lookup("k1");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->blob, "blob:k1");
  EXPECT_FALSE(cache.Lookup("k2").has_value());
  EXPECT_EQ(InvalidateKey(cache, "k1"), 1u);
  EXPECT_FALSE(cache.Lookup("k1").has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(QueryCacheTest, InvalidateMissingKeyIsNoop) {
  QueryCache cache;
  cache.Insert(Entry("k", 0));
  EXPECT_EQ(InvalidateKey(cache, "ghost"), 0u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.invalidation_removals(), 0u);
  EXPECT_EQ(InvalidateKey(cache, "k"), 1u);
  EXPECT_EQ(cache.invalidation_removals(), 1u);
}

TEST(QueryCacheTest, InsertOverwrites) {
  QueryCache cache;
  cache.Insert(Entry("k", 0));
  CacheEntry updated = Entry("k", 1);
  updated.blob = "new";
  cache.Insert(updated);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup("k")->blob, "new");
  // The group index follows the overwrite.
  EXPECT_TRUE(cache.GroupEntryKeys(0).empty());
  EXPECT_EQ(cache.GroupEntryKeys(1).size(), 1u);
  // An in-place overwrite is neither an eviction nor an invalidation.
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.invalidation_removals(), 0u);
}

TEST(QueryCacheTest, GroupsTrackTemplates) {
  QueryCache cache;
  cache.Insert(Entry("a1", 0));
  cache.Insert(Entry("a2", 0));
  cache.Insert(Entry("b1", 1));
  cache.Insert(Entry("blind", CacheEntry::kNoTemplate,
                     analysis::ExposureLevel::kBlind));
  const std::vector<size_t> groups = cache.GroupKeys();
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(cache.GroupEntryKeys(0).size(), 2u);
  EXPECT_EQ(cache.GroupEntryKeys(1).size(), 1u);
  EXPECT_EQ(cache.GroupEntryKeys(CacheEntry::kNoTemplate).size(), 1u);
  EXPECT_TRUE(cache.GroupEntryKeys(42).empty());
}

TEST(QueryCacheTest, InvalidateWholeGroup) {
  QueryCache cache;
  cache.Insert(Entry("a1", 0));
  cache.Insert(Entry("a2", 0));
  cache.Insert(Entry("b1", 1));
  EXPECT_EQ(InvalidateGroup(cache, 0), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.Lookup("a1").has_value());
  EXPECT_TRUE(cache.Lookup("b1").has_value());
  EXPECT_EQ(InvalidateGroup(cache, 0), 0u);
  ExpectConsistent(cache);
}

TEST(QueryCacheTest, Clear) {
  QueryCache cache;
  cache.Insert(Entry("a", 0));
  cache.Insert(Entry("b", 1));
  EXPECT_EQ(cache.Clear(), 2u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.GroupKeys().empty());
  // Clear is an administrative reset, not invalidation.
  EXPECT_EQ(cache.invalidation_removals(), 0u);
}

TEST(QueryCacheTest, PeekDoesNotTouchLru) {
  QueryCache cache;
  cache.SetCapacity(2);
  cache.Insert(Entry("old", 0));
  cache.Insert(Entry("new", 0));
  // Peek must not rescue "old" from eviction.
  EXPECT_TRUE(cache.Peek("old").has_value());
  cache.Insert(Entry("newest", 0));
  EXPECT_FALSE(cache.Peek("old").has_value());
  EXPECT_TRUE(cache.Peek("new").has_value());
}

TEST(QueryCacheTest, LruEvictionOrder) {
  QueryCache cache;
  cache.SetCapacity(3);
  cache.Insert(Entry("a", 0));
  cache.Insert(Entry("b", 0));
  cache.Insert(Entry("c", 1));
  // Touch "a": it becomes most recent; "b" is now the LRU victim.
  EXPECT_TRUE(cache.Lookup("a").has_value());
  cache.Insert(Entry("d", 1));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.Peek("b").has_value());
  EXPECT_TRUE(cache.Peek("a").has_value());
  EXPECT_EQ(cache.evictions(), 1u);
  // Group index stays consistent with the eviction.
  EXPECT_EQ(cache.GroupEntryKeys(0).size(), 1u);
  EXPECT_EQ(cache.GroupEntryKeys(1).size(), 2u);
}

TEST(QueryCacheTest, ShrinkingCapacityEvictsImmediately) {
  QueryCache cache;
  for (int i = 0; i < 10; ++i) {
    cache.Insert(Entry("k" + std::to_string(i), 0));
  }
  cache.SetCapacity(4);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 6u);
  // The four most recent survive.
  for (int i = 6; i < 10; ++i) {
    EXPECT_TRUE(cache.Peek("k" + std::to_string(i)).has_value()) << i;
  }
}

TEST(QueryCacheTest, ZeroCapacityMeansUnlimited) {
  QueryCache cache;
  cache.SetCapacity(0);
  for (int i = 0; i < 1000; ++i) {
    cache.Insert(Entry("k" + std::to_string(i), 0));
  }
  EXPECT_EQ(cache.size(), 1000u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(QueryCacheTest, GroupInvalidationMaintainsLru) {
  QueryCache cache;
  cache.SetCapacity(3);
  cache.Insert(Entry("a", 0));
  cache.Insert(Entry("b", 1));
  cache.Insert(Entry("c", 0));
  EXPECT_EQ(InvalidateGroup(cache, 0), 2u);
  // LRU list no longer references erased keys; inserting past capacity
  // evicts the true survivor order without crashing.
  cache.Insert(Entry("d", 1));
  cache.Insert(Entry("e", 1));
  cache.Insert(Entry("f", 1));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.Peek("b").has_value());
}

// Regression: capacity-shrink evictions and insert-overflow evictions used
// to be conflated in one counter, and invalidation removals were not
// distinguishable from evictions at all.
TEST(QueryCacheTest, EvictionCountersSplitByCause) {
  QueryCache cache;
  for (int i = 0; i < 6; ++i) {
    cache.Insert(Entry("k" + std::to_string(i), 0));
  }
  // Shrink: 6 entries -> capacity 4 evicts 2.
  cache.SetCapacity(4);
  EXPECT_EQ(cache.shrink_evictions(), 2u);
  EXPECT_EQ(cache.insert_evictions(), 0u);
  // Overflow: two more inserts at capacity evict 2 more.
  cache.Insert(Entry("k6", 0));
  cache.Insert(Entry("k7", 0));
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
  cache.Insert(Entry("a1", 0));
  cache.Insert(Entry("a2", 0));
  cache.Insert(Entry("b1", 1));
  cache.Insert(Entry("b2", 1));
  const size_t erased = cache.InvalidateEntries(
      [](size_t group) { return group == 1; },
      [](const CacheEntry& entry) { return entry.key != "b2"; });
  EXPECT_EQ(erased, 1u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.Peek("b1").has_value());
  EXPECT_TRUE(cache.Peek("b2").has_value());
  EXPECT_TRUE(cache.Peek("a1").has_value());
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
      cache.Insert(Entry("k" + std::to_string(i), i % 3));
    }
    ExpectConsistent(cache);
    // Overwrite half of them into a different group.
    for (int i = 0; i < 6; ++i) {
      cache.Insert(Entry("k" + std::to_string(i), 3));
    }
    ExpectConsistent(cache);
    cache.SetCapacity(8);
    ExpectConsistent(cache);
    EXPECT_EQ(cache.size(), 8u);
    InvalidateGroup(cache, 3 - round % 2);
    ExpectConsistent(cache);
    // Overwrite survivors in place at capacity, then grow again.
    for (int i = 6; i < 12; ++i) {
      cache.Insert(Entry("k" + std::to_string(i), 0));
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
  cache.Insert(Entry("k", 0));
  InvalidateKey(cache, "k");
  EXPECT_EQ(cache.StaleSize(), 0u);
  EXPECT_FALSE(cache.LookupStale("k", 100).has_value());
}

TEST(StaleStoreTest, InvalidationRetainsAndKStalenessAges) {
  QueryCache cache;
  cache.SetStaleRetention(8);
  cache.Insert(Entry("k", 0));
  InvalidateKey(cache, "k");  // Consistency removal: retained at epoch 0.
  cache.BumpUpdateEpoch();  // The update that killed it: now 1 behind.

  ASSERT_TRUE(cache.LookupStale("k", 1).has_value());
  EXPECT_EQ(cache.LookupStale("k", 1)->blob, "blob:k");
  EXPECT_FALSE(cache.LookupStale("k", 0).has_value());

  // Each further observed update ages the copy by one epoch; a bound of k
  // serves it until it is k+1 updates behind.
  cache.BumpUpdateEpoch();
  cache.BumpUpdateEpoch();
  EXPECT_FALSE(cache.LookupStale("k", 2).has_value());
  ASSERT_TRUE(cache.LookupStale("k", 3).has_value());
}

TEST(StaleStoreTest, GroupAndFilteredInvalidationRetain) {
  QueryCache cache;
  cache.SetStaleRetention(8);
  cache.Insert(Entry("g0-a", 0));
  cache.Insert(Entry("g0-b", 0));
  cache.Insert(Entry("g1-a", 1));
  cache.Insert(Entry("g1-b", 1));
  InvalidateGroup(cache, 0);
  cache.InvalidateEntries([](size_t group) { return group == 1; },
                          [](const CacheEntry& entry) {
                            return entry.key == "g1-a";
                          });
  cache.BumpUpdateEpoch();
  EXPECT_EQ(cache.StaleSize(), 3u);
  EXPECT_TRUE(cache.LookupStale("g0-a", 1).has_value());
  EXPECT_TRUE(cache.LookupStale("g0-b", 1).has_value());
  EXPECT_TRUE(cache.LookupStale("g1-a", 1).has_value());
  // The entry the filter declined stays live and is not retained.
  EXPECT_TRUE(cache.Peek("g1-b").has_value());
  EXPECT_FALSE(cache.LookupStale("g1-b", 1).has_value());
}

TEST(StaleStoreTest, CapacityEvictionsAreNotRetained) {
  QueryCache cache;
  cache.SetStaleRetention(8);
  cache.SetCapacity(2);
  cache.Insert(Entry("a", 0));
  cache.Insert(Entry("b", 0));
  cache.Insert(Entry("c", 0));  // Insert-overflow evicts "a".
  ASSERT_EQ(cache.insert_evictions(), 1u);
  EXPECT_FALSE(cache.LookupStale("a", 100).has_value());

  cache.SetCapacity(1);  // Shrink evicts "b".
  ASSERT_EQ(cache.shrink_evictions(), 1u);
  EXPECT_FALSE(cache.LookupStale("b", 100).has_value());
  EXPECT_EQ(cache.StaleSize(), 0u);

  // An eviction victim that was ALSO invalidated earlier keeps only the
  // invalidation-time copy: eviction never refreshes or removes it.
  cache.SetCapacity(0);
  cache.Insert(Entry("d", 0));
  InvalidateKey(cache, "d");
  cache.BumpUpdateEpoch();
  EXPECT_TRUE(cache.LookupStale("d", 1).has_value());
}

TEST(StaleStoreTest, FifoBoundDropsOldestRetained) {
  QueryCache cache;
  cache.SetStaleRetention(2);
  for (const char* key : {"a", "b", "c"}) {
    cache.Insert(Entry(key, 0));
    InvalidateKey(cache, key);
  }
  EXPECT_EQ(cache.StaleSize(), 2u);
  EXPECT_FALSE(cache.LookupStale("a", 100).has_value());  // Oldest dropped.
  EXPECT_TRUE(cache.LookupStale("b", 100).has_value());
  EXPECT_TRUE(cache.LookupStale("c", 100).has_value());

  // Re-invalidating a retained key refreshes its FIFO slot, not a new one.
  cache.Insert(Entry("b", 0));
  InvalidateKey(cache, "b");
  EXPECT_EQ(cache.StaleSize(), 2u);
  EXPECT_TRUE(cache.LookupStale("c", 100).has_value());
}

TEST(StaleStoreTest, FreshInsertSupersedesStaleCopy) {
  QueryCache cache;
  cache.SetStaleRetention(8);
  cache.Insert(Entry("k", 0));
  InvalidateKey(cache, "k");
  ASSERT_TRUE(cache.LookupStale("k", 100).has_value());

  // A fresh value for the key arrives: the stale copy must die with it —
  // serving it later would resurrect a value older than one the client
  // already saw.
  CacheEntry fresh = Entry("k", 0);
  fresh.blob = "fresh";
  cache.Insert(fresh);
  EXPECT_FALSE(cache.LookupStale("k", 100).has_value());
  EXPECT_EQ(cache.StaleSize(), 0u);

  // And invalidating the fresh value retains the NEW blob, not the old one.
  InvalidateKey(cache, "k");
  cache.BumpUpdateEpoch();
  ASSERT_TRUE(cache.LookupStale("k", 1).has_value());
  EXPECT_EQ(cache.LookupStale("k", 1)->blob, "fresh");
}

TEST(StaleStoreTest, DisablingRetentionAndClearDropEverything) {
  QueryCache cache;
  cache.SetStaleRetention(8);
  cache.Insert(Entry("a", 0));
  InvalidateKey(cache, "a");
  ASSERT_EQ(cache.StaleSize(), 1u);
  cache.SetStaleRetention(0);
  EXPECT_EQ(cache.StaleSize(), 0u);
  EXPECT_FALSE(cache.LookupStale("a", 100).has_value());

  cache.SetStaleRetention(8);
  cache.Insert(Entry("b", 0));
  InvalidateKey(cache, "b");
  cache.Insert(Entry("c", 0));
  ASSERT_EQ(cache.StaleSize(), 1u);
  // Clear is an administrative reset: live entries AND stale copies go.
  cache.Clear();
  EXPECT_EQ(cache.StaleSize(), 0u);
  EXPECT_FALSE(cache.LookupStale("b", 100).has_value());
}

TEST(StaleStoreTest, ShrinkingRetentionTrimsOldestFirst) {
  QueryCache cache;
  cache.SetStaleRetention(8);
  for (int i = 0; i < 5; ++i) {
    const std::string key = "k" + std::to_string(i);
    cache.Insert(Entry(key, 0));
    InvalidateKey(cache, key);
  }
  ASSERT_EQ(cache.StaleSize(), 5u);
  cache.SetStaleRetention(2);
  EXPECT_EQ(cache.StaleSize(), 2u);
  EXPECT_TRUE(cache.LookupStale("k3", 100).has_value());
  EXPECT_TRUE(cache.LookupStale("k4", 100).has_value());
  EXPECT_FALSE(cache.LookupStale("k2", 100).has_value());
}

TEST(QueryCacheTest, OverwriteAtCapacityDoesNotEvict) {
  QueryCache cache;
  cache.SetCapacity(2);
  cache.Insert(Entry("a", 0));
  cache.Insert(Entry("b", 0));
  // Overwriting an existing key at full capacity replaces in place.
  cache.Insert(Entry("a", 1));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_TRUE(cache.Peek("a").has_value());
  EXPECT_TRUE(cache.Peek("b").has_value());
  ExpectConsistent(cache);
}

}  // namespace
}  // namespace dssp::service
