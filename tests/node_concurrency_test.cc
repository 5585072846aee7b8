// Race-hunting smoke tests for the sharded DsspNode and QueryCache: mixed
// lookup/store/update/admin traffic from real threads across two tenants,
// at template and statement exposure, so both the plain group scan and the
// predicate-index probe (its by_value buckets and per-thread probe memo)
// run concurrently. View-level query results shared out of cached entries
// are raced against the overwrite, invalidation and eviction of the entry.
// Run under ThreadSanitizer (cmake -DDSSP_TSAN=ON) to hunt races; the
// assertions here only check that counters, indexes and held results stay
// consistent.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/keyring.h"
#include "dssp/app.h"
#include "dssp/cache.h"
#include "dssp/node.h"
#include "workloads/toystore.h"

namespace dssp::service {
namespace {

using analysis::ExposureLevel;
using sql::Value;

CacheEntry TemplateEntry(const std::string& key, size_t template_index) {
  CacheEntry entry;
  entry.key = key;
  entry.level = ExposureLevel::kTemplate;
  entry.template_index = template_index;
  entry.blob = "blob:" + key;
  return entry;
}

// A statement-exposed toystore entry: Q0 toy_name = ?, Q1 toy_id = ?,
// Q2 zip_code = ?. Q1 and Q2 are indexed under their bound, so stmt-level
// notices probe them.
CacheEntry StmtEntry(const templates::TemplateSet& templates,
                     const std::string& key, int k) {
  const size_t qi = static_cast<size_t>(k) % 3;
  const Value param = qi == 0 ? Value("toy" + std::to_string(k % 16))
                              : Value(int64_t{k % 16});
  CacheEntry entry;
  entry.key = key;
  entry.level = ExposureLevel::kStmt;
  entry.template_index = qi;
  entry.statement = templates.queries()[qi].Bind({param});
  entry.blob = "blob:" + key;
  return entry;
}

class NodeConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : {"tenant-a", "tenant-b"}) {
      apps_.push_back(std::make_unique<ScalableApp>(
          name, &node_, crypto::KeyRing::FromPassphrase(name)));
      workloads_.emplace_back();
      ASSERT_TRUE(workloads_.back().Setup(*apps_.back(), 1.0, 7).ok());
      ASSERT_TRUE(apps_.back()->Finalize().ok());
    }
  }

  DsspNode node_;
  std::vector<std::unique_ptr<ScalableApp>> apps_;
  std::vector<workloads::ToystoreApplication> workloads_;
};

TEST_F(NodeConcurrencyTest, MixedTrafficAcrossTenantsIsConsistent) {
  constexpr int kOpsPerThread = 4000;
  constexpr int kKeySpace = 256;
  const std::vector<std::string> tenants = {"tenant-a", "tenant-b"};

  // Pre-built exposure-gated notices (UpdateNotice is read-only to the
  // node): one template-level per update template, a blind one, and
  // stmt-level U0 (DELETE toy_id = ?) / U1 (INSERT credit_card, zip_code)
  // bindings that probe the Q1 / Q2 buckets.
  const templates::TemplateSet& templates = apps_[0]->templates();
  std::vector<UpdateNotice> notices;
  for (size_t i = 0; i < templates.num_updates(); ++i) {
    UpdateNotice notice;
    notice.level = ExposureLevel::kTemplate;
    notice.template_index = i;
    notices.push_back(std::move(notice));
  }
  notices.push_back(UpdateNotice{});  // Blind.
  for (int64_t v = 0; v < 16; v += 3) {
    UpdateNotice deletion;
    deletion.level = ExposureLevel::kStmt;
    deletion.template_index = 0;
    deletion.statement = templates.updates()[0].Bind({Value(v)});
    notices.push_back(std::move(deletion));
    UpdateNotice insertion;
    insertion.level = ExposureLevel::kStmt;
    insertion.template_index = 1;
    insertion.statement = templates.updates()[1].Bind(
        {Value(int64_t{1000} + v), Value("4111"), Value(v)});
    notices.push_back(std::move(insertion));
  }

  std::atomic<uint64_t> lookups_issued{0};
  std::atomic<uint64_t> stores_issued{0};
  std::atomic<uint64_t> updates_issued{0};

  std::vector<std::thread> threads;
  // Per tenant: two mixed lookup/store workers and one updater.
  for (const std::string& tenant : tenants) {
    for (int worker = 0; worker < 2; ++worker) {
      threads.emplace_back([&, tenant, worker] {
        for (int i = 0; i < kOpsPerThread; ++i) {
          const int k = (i * 31 + worker * 17) % kKeySpace;
          const std::string key =
              tenant + ":k" + std::to_string(k);
          if (i % 4 == 0) {
            node_.Store(tenant, k % 2 == 0 ? TemplateEntry(key, k % 3)
                                           : StmtEntry(templates, key, k));
            stores_issued.fetch_add(1, std::memory_order_relaxed);
          } else {
            node_.Lookup(tenant, key);
            lookups_issued.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    threads.emplace_back([&, tenant] {
      for (int i = 0; i < kOpsPerThread / 8; ++i) {
        node_.OnUpdate(tenant, notices[i % notices.size()]);
        updates_issued.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Admin thread: capacity flapping on one tenant plus a mid-run
  // registration interleaving with the traffic above.
  threads.emplace_back([&] {
    for (int i = 0; i < 50; ++i) {
      node_.SetCacheCapacity("tenant-a", 64 + (i % 3) * 64);
      node_.CacheSize("tenant-a");
      node_.TotalCacheSize();
      node_.stats("tenant-b");
    }
    node_.SetCacheCapacity("tenant-a", 0);
    ASSERT_TRUE(node_
                    .RegisterApp("tenant-c",
                                 &apps_[0]->home().database().catalog(),
                                 &apps_[0]->templates())
                    .ok());
  });
  for (std::thread& t : threads) t.join();

  // Counters: every issued operation was counted exactly once.
  uint64_t lookups = 0, stores = 0, updates = 0;
  for (const std::string& tenant : tenants) {
    const DsspStats stats = node_.stats(tenant);
    lookups += stats.lookups;
    stores += stats.stores;
    updates += stats.updates_observed;
    EXPECT_EQ(stats.hits + stats.misses, stats.lookups) << tenant;
  }
  EXPECT_EQ(lookups, lookups_issued.load());
  EXPECT_EQ(stores, stores_issued.load());
  EXPECT_EQ(updates, updates_issued.load());
  EXPECT_TRUE(node_.HasApp("tenant-c"));

  // Tenant isolation: each surviving entry belongs to its tenant's space.
  for (const std::string& tenant : tenants) {
    EXPECT_LE(node_.CacheSize(tenant),
              static_cast<size_t>(kKeySpace));
    const std::optional<CacheEntry> entry =
        node_.Lookup(tenant, tenant + ":k0");
    if (entry.has_value()) {
      EXPECT_EQ(entry->key.rfind(tenant + ":", 0), 0u);
    }
  }

  // The index buckets stay consistent after the race: a stmt-level delete
  // reaches a Q1 binding of its toy and skips one of another toy.
  CacheEntry probed = StmtEntry(templates, "tenant-a:toy99", 1);
  probed.statement = templates.queries()[1].Bind({Value(int64_t{99})});
  node_.Store("tenant-a", probed);
  UpdateNotice deletion;
  deletion.level = ExposureLevel::kStmt;
  deletion.template_index = 0;
  deletion.statement = templates.updates()[0].Bind({Value(int64_t{98})});
  node_.OnUpdate("tenant-a", deletion);
  EXPECT_TRUE(node_.Lookup("tenant-a", probed.key).has_value());
  deletion.statement = templates.updates()[0].Bind({Value(int64_t{99})});
  node_.OnUpdate("tenant-a", deletion);
  EXPECT_FALSE(node_.Lookup("tenant-a", probed.key).has_value());
}

// Readers hold the entries LookupShared returns while a writer invalidates,
// clears and re-stores the same keys. A held entry must stay intact and
// unchanged: the cache only drops its reference, never frees or rewrites an
// entry someone still holds (TSan and ASan check the memory side).
TEST_F(NodeConcurrencyTest, HeldEntriesSurviveInvalidationAndRestore) {
  constexpr int kKeys = 32;
  constexpr int kRounds = 200;
  constexpr int kReaders = 3;
  constexpr size_t kHeldPerReader = 64;
  const std::string tenant = "tenant-a";
  const templates::TemplateSet& templates = apps_[0]->templates();
  node_.SetStaleRetention(tenant, 16);
  const auto key_of = [](int k) { return "held:k" + std::to_string(k); };
  // Long enough to live on the heap, and distinct per (key, version).
  const auto make = [&](int k, int version) {
    CacheEntry entry = StmtEntry(templates, key_of(k), k);
    entry.blob = key_of(k) + ":v" + std::to_string(version) + ":" +
                 std::string(200, static_cast<char>('a' + (k + version) % 26));
    return entry;
  };
  for (int k = 0; k < kKeys; ++k) node_.Store(tenant, make(k, 0));

  std::atomic<bool> done{false};
  std::atomic<uint64_t> hits{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    UpdateNotice blind;  // Invalidates every entry of the tenant.
    for (int round = 1; round <= kRounds; ++round) {
      if (round % 25 == 0) {
        node_.ClearCache(tenant);
      } else {
        node_.OnUpdate(tenant, blind);
      }
      for (int k = 0; k < kKeys; ++k) node_.Store(tenant, make(k, round));
    }
    done.store(true, std::memory_order_release);
  });
  for (int reader = 0; reader < kReaders; ++reader) {
    threads.emplace_back([&, reader] {
      // Each held entry next to the blob it had when it was returned.
      std::vector<std::pair<std::shared_ptr<const CacheEntry>, std::string>>
          held;
      size_t next = 0;
      for (int i = 0; !done.load(std::memory_order_acquire); ++i) {
        const int k = (i * 7 + reader * 5) % kKeys;
        std::shared_ptr<const CacheEntry> entry =
            node_.LookupShared(tenant, key_of(k));
        if (entry == nullptr) continue;
        hits.fetch_add(1, std::memory_order_relaxed);
        ASSERT_EQ(entry->key, key_of(k));
        ASSERT_EQ(entry->blob.rfind(key_of(k) + ":v", 0), 0u);
        std::string blob = entry->blob;
        if (held.size() < kHeldPerReader) {
          held.emplace_back(std::move(entry), std::move(blob));
        } else {
          held[next] = {std::move(entry), std::move(blob)};
          next = (next + 1) % kHeldPerReader;
        }
        if (i % 16 == 0) node_.LookupStale(tenant, key_of(k), 4);
        for (const auto& [ptr, blob_then] : held) {
          ASSERT_EQ(ptr->blob, blob_then);
          ASSERT_TRUE(ptr->statement.has_value());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(hits.load(), 0u);
  const DsspStats stats = node_.stats(tenant);
  EXPECT_EQ(stats.hits + stats.misses + stats.stale_hits, stats.lookups);
}

// Readers answer one hot view-level query from the entry's shared decoded
// result while a writer overwrites, invalidates, evicts and clears that
// entry. Every result a reader still holds must read the same after the
// entry is gone, and a moved-from result must read as empty.
TEST_F(NodeConcurrencyTest, HeldViewResultsOutliveTheirEntry) {
  constexpr int kMinRounds = 400;
  constexpr int kReaders = 3;
  constexpr int kQueriesPerReader = 2000;
  constexpr size_t kHeldPerReader = 64;
  const std::string tenant = "tenant-a";
  ScalableApp& app = *apps_[0];  // Full exposure: every query at view level.
  // Q3: SELECT cust_name FROM customers, credit_card WHERE ... zip_code = ?
  const templates::QueryTemplate& hot_template = app.templates().queries()[2];

  // Cards for customers 51..58 under customer 1's zip code, so the hot
  // result has several rows.
  for (int64_t cid = 51; cid <= 58; ++cid) {
    ASSERT_TRUE(app.home()
                    .database()
                    .InsertRow("credit_card",
                               {Value(cid), Value("4111"), Value(10001)})
                    .ok());
  }
  const std::vector<Value> hot = {Value(10001)};
  auto direct =
      app.home().database().ExecuteQuery(hot_template.Bind(hot));
  ASSERT_TRUE(direct.ok());
  const engine::QueryResult reference = std::move(*direct);
  ASSERT_EQ(reference.num_rows(), 9u);
  std::string key = "s:";
  hot_template.Render(hot, &key);
  ASSERT_TRUE(app.Query("Q3", hot).ok());
  ASSERT_NE(node_.LookupShared(tenant, key), nullptr);

  std::atomic<int> readers_left{kReaders};
  std::atomic<uint64_t> hits{0};
  std::vector<std::vector<engine::QueryResult>> held(kReaders);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    const UpdateNotice blind;  // Invalidates every entry of the tenant.
    for (int round = 1;
         round <= kMinRounds || readers_left.load(std::memory_order_acquire);
         ++round) {
      switch (round % 4) {
        case 0: {  // Overwrite with an entry holding its own decode.
          const std::shared_ptr<const CacheEntry> current =
              node_.LookupShared(tenant, key);
          if (current == nullptr) break;
          CacheEntry copy = *current;
          copy.result = engine::QueryResult::Deserialize(copy.blob).value();
          node_.Store(tenant, std::move(copy));
          break;
        }
        case 1:
          node_.OnUpdate(tenant, blind);
          break;
        case 2:  // Evict: a one-entry cap, then a fill of another query.
          node_.SetCacheCapacity(tenant, 1);
          EXPECT_TRUE(app.Query("Q2", {Value(int64_t{round % 50})}).ok());
          node_.SetCacheCapacity(tenant, 0);
          break;
        default:
          node_.ClearCache(tenant);
          break;
      }
    }
  });
  for (int reader = 0; reader < kReaders; ++reader) {
    threads.emplace_back([&, reader] {
      // A failed ASSERT returns from `read` only, so the writer still stops.
      const auto read = [&] {
        std::vector<engine::QueryResult>& mine = held[reader];
        size_t next = 0;
        for (int i = 0; i < kQueriesPerReader; ++i) {
          AccessStats stats;
          auto answer = app.Query("Q3", hot, &stats);
          ASSERT_TRUE(answer.ok());
          if (stats.cache_hit) hits.fetch_add(1, std::memory_order_relaxed);
          ASSERT_TRUE(answer->SameResult(reference));
          engine::QueryResult kept = std::move(*answer);
          ASSERT_TRUE(answer->empty());
          ASSERT_EQ(answer->num_columns(), 0u);
          if (mine.size() < kHeldPerReader) {
            mine.push_back(std::move(kept));
          } else {
            mine[next] = std::move(kept);
            next = (next + 1) % kHeldPerReader;
          }
          if (i % 16 == 0) {
            for (const engine::QueryResult& result : mine) {
              ASSERT_TRUE(result.SameResult(reference));
            }
          }
        }
      };
      read();
      readers_left.fetch_sub(1, std::memory_order_release);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(hits.load(), 0u);

  node_.ClearCache(tenant);
  ASSERT_EQ(node_.LookupShared(tenant, key), nullptr);
  for (const std::vector<engine::QueryResult>& mine : held) {
    EXPECT_FALSE(mine.empty());
    for (const engine::QueryResult& result : mine) {
      EXPECT_TRUE(result.SameResult(reference));
    }
  }
}

TEST(QueryCacheConcurrencyTest, ShardedCacheSurvivesMixedMutation) {
  QueryCache cache;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 8000;
  constexpr int kKeySpace = 512;
  // Entries live in groups 0-3; each visit scans its group whole.
  const std::vector<GroupVisit> all_groups = {
      {0, {}}, {1, {}}, {2, {}}, {3, {}}};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &all_groups, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int k = (i * 13 + t * 7) % kKeySpace;
        const std::string key = "k" + std::to_string(k);
        switch ((i + t) % 8) {
          case 0:
          case 1:
            cache.Insert(std::make_shared<const CacheEntry>(
                TemplateEntry(key, k % 4)));
            break;
          case 2:
            cache.InvalidateEntries(
                all_groups,
                [&key](const CacheEntry& entry) { return entry.key == key; });
            break;
          case 3:
            cache.InvalidateEntries(
                {all_groups[static_cast<size_t>(i % 4)]},
                [](const CacheEntry&) { return true; });
            break;
          case 4:
            // A read-only visit: every entry declined.
            cache.InvalidateEntries({all_groups[static_cast<size_t>(k % 4)]},
                                    [](const CacheEntry&) { return false; });
            break;
          case 5:
            cache.SetCapacity(i % 2 == 0 ? 128 : 0);
            break;
          default:
            cache.Lookup(key);
            break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Quiesced: the group index and entry map must agree exactly.
  cache.SetCapacity(0);
  size_t indexed = 0;
  for (size_t group : cache.GroupKeys()) {
    std::vector<std::string> keys;  // Read by a visit that declines all.
    cache.InvalidateEntries({{group, {}}}, [&keys](const CacheEntry& entry) {
      keys.push_back(entry.key);
      return false;
    });
    for (const std::string& key : keys) {
      const std::shared_ptr<const CacheEntry> entry = cache.Lookup(key);
      ASSERT_NE(entry, nullptr) << "indexed key missing: " << key;
      EXPECT_EQ(entry->template_index, group);
      ++indexed;
    }
  }
  EXPECT_EQ(indexed, cache.size());
  EXPECT_LE(cache.size(), static_cast<size_t>(kKeySpace));
}

}  // namespace
}  // namespace dssp::service
