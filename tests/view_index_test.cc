// Predicate-indexed view registry tests:
//
//  1. Unit tests for ViewIndexPlan compilation (discriminator selection,
//     pair-probe modes, index-key derivation) and probe range semantics,
//     and a differential of the compiled visit list against the
//     strategy's template-level decision on the four paper workloads.
//  2. Differential: a node (which probes the predicate index) must produce
//     bit-identical invalidation behavior (counts, surviving entries, stale
//     side store) to the plain group scan of ScanOracle (scan_oracle.h), on
//     all four paper workloads and on randomized templates, at mixed
//     exposure levels.
//  3. The eviction / stale-retention interaction under capacity pressure.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/plan.h"
#include "catalog/schema.h"
#include "common/random.h"
#include "crypto/keyring.h"
#include "dssp/app.h"
#include "dssp/cache.h"
#include "dssp/node.h"
#include "dssp/view_index.h"
#include "engine/database.h"
#include "invalidation/strategies.h"
#include "scan_oracle.h"
#include "sql/ast.h"
#include "sql/parser.h"
#include "templates/template.h"
#include "workloads/application.h"

namespace dssp::service {
namespace {

using analysis::ExposureLevel;
using analysis::InvalidationPlan;
using sql::Value;
using templates::QueryTemplate;
using templates::UpdateTemplate;

// ----- Compilation unit tests over a two-table PK/FK schema. -----

catalog::Catalog TestCatalog() {
  catalog::Catalog catalog;
  DSSP_CHECK(catalog
                 .AddTable(catalog::TableSchema(
                     "t1",
                     {{"a", catalog::ColumnType::kInt64},
                      {"b", catalog::ColumnType::kInt64},
                      {"c", catalog::ColumnType::kString}},
                     {"a"}))
                 .ok());
  DSSP_CHECK(catalog
                 .AddTable(catalog::TableSchema(
                     "t2",
                     {{"x", catalog::ColumnType::kInt64},
                      {"r", catalog::ColumnType::kInt64},
                      {"y", catalog::ColumnType::kInt64}},
                     {"x"}, {{"r", "t1", "a"}}))
                 .ok());
  return catalog;
}

// A small template universe exercising every probe kind.
struct Compiled {
  catalog::Catalog catalog = TestCatalog();
  templates::TemplateSet templates;
  std::unique_ptr<InvalidationPlan> plan;
  std::unique_ptr<ViewIndexPlan> index;

  explicit Compiled(const std::vector<std::pair<std::string, std::string>>&
                        queries,
                    const std::vector<std::pair<std::string, std::string>>&
                        updates) {
    for (const auto& [id, sql] : queries) {
      auto q = QueryTemplate::Create(id, sql, catalog);
      DSSP_CHECK(q.ok());
      templates.AddQuery(std::move(*q));
    }
    for (const auto& [id, sql] : updates) {
      auto u = UpdateTemplate::Create(id, sql, catalog);
      DSSP_CHECK(u.ok());
      templates.AddUpdate(std::move(*u));
    }
    plan = std::make_unique<InvalidationPlan>(
        InvalidationPlan::Compile(templates, catalog));
    index = std::make_unique<ViewIndexPlan>(
        ViewIndexPlan::Compile(templates, catalog, *plan));
  }
};

// A group's value index over entries the test owns.
class TestBuckets {
 public:
  void Add(const Value& bound, const std::string& key) {
    CacheEntry& entry = entries_.emplace_back();
    entry.key = key;
    by_value_[bound].insert(&entry);
  }

  // The keys `probe` selects, sorted; an entry selected twice shows twice.
  std::vector<std::string> Collect(const GroupProbe& probe) const {
    std::vector<const CacheEntry*> selected;
    probe.CollectCandidates(by_value_, &selected);
    std::vector<std::string> keys;
    for (const CacheEntry* entry : selected) keys.push_back(entry->key);
    std::sort(keys.begin(), keys.end());
    return keys;
  }

 private:
  std::deque<CacheEntry> entries_;  // Stable addresses.
  ValueKeyMap by_value_;
};

TEST(ViewIndexPlanTest, PicksEqualityDiscriminatorOverRange) {
  Compiled c({{"Q1", "SELECT a, b, c FROM t1 WHERE b < ? AND a = ?"}},
             {{"U1", "DELETE FROM t1 WHERE a = ?"}});
  const TemplateIndexSpec* spec = c.index->query_spec(0);
  ASSERT_NE(spec, nullptr);
  EXPECT_TRUE(spec->indexable);
  EXPECT_EQ(spec->op, sql::CompareOp::kEq);
  EXPECT_EQ(spec->column, "a");
  EXPECT_EQ(spec->where_index, 1u);
}

TEST(ViewIndexPlanTest, RangeDiscriminatorWhenNoEquality) {
  Compiled c({{"Q1", "SELECT a, b, c FROM t1 WHERE a >= ?"}},
             {{"U1", "DELETE FROM t1 WHERE a = ?"}});
  const TemplateIndexSpec* spec = c.index->query_spec(0);
  ASSERT_NE(spec, nullptr);
  EXPECT_TRUE(spec->indexable);
  EXPECT_EQ(spec->op, sql::CompareOp::kGe);
  EXPECT_EQ(spec->column, "a");
}

TEST(ViewIndexPlanTest, TemplateWithoutParamConjunctIsNotIndexable) {
  Compiled c({{"Q1", "SELECT a, b, c FROM t1 WHERE b < 5"}},
             {{"U1", "DELETE FROM t1 WHERE a = ?"}});
  const TemplateIndexSpec* spec = c.index->query_spec(0);
  ASSERT_NE(spec, nullptr);
  EXPECT_FALSE(spec->indexable);
  EXPECT_EQ(c.index->query_spec(CacheEntry::kNoTemplate), nullptr);
}

TEST(ViewIndexPlanTest, PairKindsFollowThePlan) {
  Compiled c({{"Q1", "SELECT a, b, c FROM t1 WHERE a = ?"}},
             {{"U1", "DELETE FROM t1 WHERE a = ?"},    // Probeable program.
              {"U2", "DELETE FROM t2 WHERE x = ?"},    // Other table: never.
              {"U3", "DELETE FROM t1"}});              // No WHERE: always.
  EXPECT_EQ(c.index->pair_probe(0, 0).mode, ProbeMode::kProbe);
  EXPECT_EQ(c.plan->pair(1, 0).kind, analysis::PlanKind::kNeverInvalidate);
  EXPECT_EQ(c.index->pair_probe(1, 0).mode, ProbeMode::kScanRest);
  EXPECT_EQ(c.index->pair_probe(2, 0).mode, ProbeMode::kScanAll);

  const ViewIndexPlan::Summary summary = c.index->Summarize();
  EXPECT_EQ(summary.indexable_queries, 1u);
  EXPECT_EQ(summary.probe_pairs, 1u);
  EXPECT_EQ(summary.skip_pairs, 1u);
  EXPECT_EQ(summary.scan_pairs, 1u);
}

TEST(ViewIndexPlanTest, NonIndexableTemplateForcesScanOnProgramPairs) {
  Compiled c({{"Q1", "SELECT a, b, c FROM t1 WHERE b < 5"}},
             {{"U1", "DELETE FROM t1 WHERE b = ?"}});
  if (c.plan->pair(0, 0).kind == analysis::PlanKind::kParamProgram) {
    EXPECT_EQ(c.index->pair_probe(0, 0).mode, ProbeMode::kScanAll);
  }
}

TEST(ViewIndexPlanTest, IndexKeyRequiresLiteralNonNullBound) {
  Compiled c({{"Q1", "SELECT a, b, c FROM t1 WHERE a = ?"}},
             {{"U1", "DELETE FROM t1 WHERE a = ?"}});
  const QueryTemplate& q = c.templates.queries()[0];

  const auto bound = c.index->IndexKeyFor(0, q.Bind({Value(7)}));
  ASSERT_TRUE(bound.has_value());
  EXPECT_EQ(bound->Compare(Value(7)), 0);

  // NULL bound: probes can never select it, so it must stay unindexed.
  EXPECT_FALSE(c.index->IndexKeyFor(0, q.Bind({Value()})).has_value());

  // Unbound template (the parameter still a `?`): no literal to index.
  EXPECT_FALSE(c.index->IndexKeyFor(0, q.statement()).has_value());

  // Unknown group.
  EXPECT_FALSE(
      c.index->IndexKeyFor(17, q.Bind({Value(7)})).has_value());
}

TEST(ViewIndexPlanTest, EqualityProbeSelectsOnlyMatchingBucket) {
  Compiled c({{"Q1", "SELECT a, b, c FROM t1 WHERE a = ?"}},
             {{"U1", "DELETE FROM t1 WHERE a = ?"}});
  const UpdateTemplate& u = c.templates.updates()[0];

  TestBuckets buckets;
  buckets.Add(Value(1), "k1");
  buckets.Add(Value(5), "k5a");
  buckets.Add(Value(5), "k5b");
  buckets.Add(Value(9), "k9");

  const GroupProbe probe = c.index->BuildGroupProbe(0, 0, u.Bind({Value(5)}));
  ASSERT_EQ(probe.mode, ProbeMode::kProbe);
  EXPECT_EQ(buckets.Collect(probe),
            (std::vector<std::string>{"k5a", "k5b"}));
}

TEST(ViewIndexPlanTest, RangeDiscriminatorProbeIsConservative) {
  Compiled c({{"Q1", "SELECT a, b, c FROM t1 WHERE a >= ?"}},
             {{"U1", "DELETE FROM t1 WHERE a = ?"}});
  const UpdateTemplate& u = c.templates.updates()[0];

  // Entry intervals are [bound, +inf); a point update at 5 can only touch
  // entries whose bound <= 5.
  TestBuckets buckets;
  buckets.Add(Value(1), "k1");
  buckets.Add(Value(5), "k5");
  buckets.Add(Value(9), "k9");
  buckets.Add(Value(std::string("m")), "kstr");

  const GroupProbe probe = c.index->BuildGroupProbe(0, 0, u.Bind({Value(5)}));
  ASSERT_EQ(probe.mode, ProbeMode::kProbe);
  // The string-keyed entry is outside the numeric type class: a numeric
  // point never satisfies a string constraint conjunction.
  EXPECT_EQ(buckets.Collect(probe), (std::vector<std::string>{"k1", "k5"}));
}

TEST(ViewIndexPlanTest, NullProbeOperandSelectsNothing) {
  Compiled c({{"Q1", "SELECT a, b, c FROM t1 WHERE a = ?"}},
             {{"U1", "DELETE FROM t1 WHERE a = ?"}});
  const UpdateTemplate& u = c.templates.updates()[0];
  TestBuckets buckets;
  buckets.Add(Value(1), "k1");

  // A NULL update operand satisfies no comparison: the check can never
  // fire, so no indexed entry needs visiting.
  const GroupProbe probe = c.index->BuildGroupProbe(0, 0, u.Bind({Value()}));
  ASSERT_EQ(probe.mode, ProbeMode::kProbe);
  EXPECT_TRUE(buckets.Collect(probe).empty());
}

TEST(ViewIndexPlanTest, MalformedBoundUpdateDegradesToScan) {
  Compiled c({{"Q1", "SELECT a, b, c FROM t1 WHERE a = ?"}},
             {{"U1", "DELETE FROM t1 WHERE a = ?"}});
  // A statement that is not a binding of the compiled template (still a
  // parameter where a literal is expected) must scan, mirroring
  // EvaluatePairPlan's invalidate-on-fetch-failure.
  const GroupProbe probe =
      c.index->BuildGroupProbe(0, 0, c.templates.updates()[0].statement());
  EXPECT_EQ(probe.mode, ProbeMode::kScanAll);
}

// Two overlapping probes (`= 5` and `<= 7` against an equality
// discriminator) select bucket 5 twice. Under every probe mode the visit
// decides each entry once, in ascending key order.
TEST(GroupVisitTest, OverlappingProbesVisitEachEntryOnceInKeyOrder) {
  Compiled c({{"Q1", "SELECT a, b, c FROM t1 WHERE a = ?"}},
             {{"U1", "DELETE FROM t1 WHERE a = ?"}});
  // Visit order is per shard, so use keys of one shard (the cache picks a
  // key's shard by std::hash modulo kNumShards).
  const auto shard_of = [](const std::string& key) {
    return std::hash<std::string_view>{}(key) % QueryCache::kNumShards;
  };
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 8; ++i) {
    const std::string key = "key" + std::to_string(i);
    if (shard_of(key) == shard_of("key0")) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  // Bound per key, in ascending key order; nullopt = template level, which
  // goes to the group's unindexed rest.
  const std::vector<std::optional<int64_t>> bounds = {
      std::nullopt, 5, 3, 5, std::nullopt, 7, 9, 5};

  QueryCache cache(c.index.get());
  for (size_t i = keys.size(); i-- > 0;) {  // Descending: not key order.
    auto entry = std::make_shared<CacheEntry>();
    entry->key = keys[i];
    entry->template_index = 0;
    entry->blob = "blob";
    entry->level = ExposureLevel::kTemplate;
    if (bounds[i].has_value()) {
      entry->level = ExposureLevel::kStmt;
      entry->statement =
          c.templates.queries()[0].Bind({Value(*bounds[i])});
    }
    cache.Insert(std::move(entry));
  }

  GroupProbe overlapping;
  overlapping.mode = ProbeMode::kProbe;
  overlapping.spec_op = sql::CompareOp::kEq;
  overlapping.probes = {{sql::CompareOp::kEq, Value(5)},
                        {sql::CompareOp::kLe, Value(7)}};
  const auto visited_keys = [&](const GroupProbe& probe) {
    std::vector<std::string> visited;
    EXPECT_EQ(cache.InvalidateEntries({{0, probe}},
                                      [&](const CacheEntry& entry) {
                                        visited.push_back(entry.key);
                                        return false;
                                      }),
              0u);
    return visited;
  };
  const auto keys_where = [&](const std::function<bool(size_t)>& keep) {
    std::vector<std::string> out;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (keep(i)) out.push_back(keys[i]);
    }
    return out;
  };

  EXPECT_EQ(visited_keys(overlapping), keys_where([&](size_t i) {
              return !bounds[i].has_value() || *bounds[i] <= 7;
            }));
  GroupProbe scan_all;
  EXPECT_EQ(visited_keys(scan_all), keys);
  GroupProbe scan_rest;
  scan_rest.mode = ProbeMode::kScanRest;
  EXPECT_EQ(visited_keys(scan_rest), keys_where([&](size_t i) {
              return !bounds[i].has_value();
            }));
  EXPECT_EQ(cache.size(), keys.size());
}

// ----- Node-level differential: probed vs plain scan. -----

// Drives a DsspNode and the scan oracle through an identical store/update
// history and asserts identical observable state after every update.
class NodePairHarness {
 public:
  NodePairHarness(const catalog::Catalog* catalog,
                  const templates::TemplateSet* templates)
      : templates_(templates), scan_(*catalog, *templates) {
    DSSP_CHECK(probe_node_.RegisterApp(kApp, catalog, templates).ok());
    probe_node_.SetStaleRetention(kApp, 64);
    scan_.cache().SetStaleRetention(64);
  }

  void SetCapacity(size_t cap) {
    probe_node_.SetCacheCapacity(kApp, cap);
    scan_.cache().SetCapacity(cap);
  }

  // Stores one query-template binding at `level` on the node and the oracle.
  void StoreBound(size_t qi, const std::vector<Value>& params,
                  ExposureLevel level) {
    CacheEntry entry;
    entry.key = "q" + std::to_string(qi) + ":" +
                std::to_string(keys_.size());
    entry.level = level;
    entry.blob = "blob:" + entry.key;
    if (level >= ExposureLevel::kTemplate) entry.template_index = qi;
    if (level >= ExposureLevel::kStmt) {
      entry.statement = templates_->queries()[qi].Bind(params);
    }
    if (level == ExposureLevel::kView) entry.result.emplace();
    keys_.push_back(entry.key);
    probe_node_.Store(kApp, entry);
    scan_.Store(std::move(entry));
  }

  // Applies one notice to both sides and checks every observable matches.
  void Update(const UpdateNotice& notice) {
    const size_t probed = probe_node_.OnUpdate(kApp, notice);
    const size_t scanned = scan_.OnUpdate(notice);
    ASSERT_EQ(probed, scanned) << "invalidation count diverged";
    ASSERT_EQ(probe_node_.CacheSize(kApp), scan_.cache().size());
    for (const std::string& key : keys_) {
      SCOPED_TRACE("key " + key);
      // Peek-free membership check via the stale store bound trick is not
      // possible here, so use Lookup on both (symmetric side effects).
      const bool in_probe = probe_node_.Lookup(kApp, key).has_value();
      const bool in_scan = scan_.cache().Lookup(key) != nullptr;
      ASSERT_EQ(in_probe, in_scan) << "survivor set diverged";
      // Stale store: identical membership at several bounds.
      for (uint64_t bound : {uint64_t{0}, uint64_t{1}, uint64_t{3},
                             uint64_t{100}}) {
        ASSERT_EQ(
            probe_node_.LookupStale(kApp, key, bound).has_value(),
            scan_.cache().LookupStale(key, bound) != nullptr)
            << "stale store diverged at bound " << bound;
      }
    }
    ASSERT_EQ(probe_node_.stats(kApp).entries_invalidated,
              scan_.entries_invalidated());
  }

  DsspNode& probe_node() { return probe_node_; }

  static constexpr const char* kApp = "diff";

 private:
  const templates::TemplateSet* templates_;
  DsspNode probe_node_;
  ScanOracle scan_;
  std::vector<std::string> keys_;
};

std::vector<Value> RandomParamsFor(Rng& rng, const sql::Statement& stmt) {
  std::vector<Value> params;
  for (int i = 0; i < stmt.num_params; ++i) {
    switch (rng.NextBelow(4)) {
      case 0:
        params.push_back(Value());  // NULL.
        break;
      case 1: {
        static constexpr const char* kPool[] = {"a", "b", "m"};
        params.push_back(Value(kPool[rng.NextBelow(3)]));
        break;
      }
      default:
        params.push_back(Value(rng.NextInt(-3, 12)));
        break;
    }
  }
  return params;
}

constexpr ExposureLevel kEntryLevels[] = {
    ExposureLevel::kBlind, ExposureLevel::kTemplate, ExposureLevel::kStmt,
    ExposureLevel::kStmt, ExposureLevel::kStmt, ExposureLevel::kView};

void RunDifferential(const catalog::Catalog& catalog,
                     const templates::TemplateSet& templates, uint64_t seed,
                     int entries, int updates,
                     std::optional<size_t> capacity = std::nullopt) {
  NodePairHarness pair(&catalog, &templates);
  if (capacity.has_value()) pair.SetCapacity(*capacity);
  Rng rng(seed);
  for (int i = 0; i < entries; ++i) {
    const size_t qi = rng.NextBelow(templates.num_queries());
    const sql::Statement& stmt = templates.queries()[qi].statement();
    pair.StoreBound(qi, RandomParamsFor(rng, stmt),
                    kEntryLevels[i % 6]);
  }
  for (int i = 0; i < updates; ++i) {
    UpdateNotice notice;
    const size_t ui = rng.NextBelow(templates.num_updates());
    switch (rng.NextBelow(8)) {
      case 0:
        notice.level = ExposureLevel::kBlind;
        break;
      case 1:
        notice.level = ExposureLevel::kTemplate;
        notice.template_index = ui;
        break;
      default:
        notice.level = ExposureLevel::kStmt;
        notice.template_index = ui;
        notice.statement = templates.updates()[ui].Bind(
            RandomParamsFor(rng, templates.updates()[ui].statement()));
        break;
    }
    pair.Update(notice);
    if (::testing::Test::HasFailure()) return;
    // Keep the caches populated so later updates still have work to do.
    if (i % 3 == 0) {
      const size_t qi = rng.NextBelow(templates.num_queries());
      pair.StoreBound(qi,
                      RandomParamsFor(rng, templates.queries()[qi].statement()),
                      kEntryLevels[i % 6]);
    }
  }
}

// The groups an update notice must visit, derived independently: every
// group whose template-level decision (blind group: blind-level decision)
// is not kDoNotInvalidate, in ascending group order (the blind group's id,
// CacheEntry::kNoTemplate, sorts last).
std::vector<size_t> GroupsByDecision(const invalidation::MixedStrategy& mixed,
                                     const templates::TemplateSet& templates,
                                     const invalidation::UpdateView& update) {
  std::vector<size_t> groups;
  for (size_t qi = 0; qi <= templates.num_queries(); ++qi) {
    invalidation::CachedQueryView group_view;
    const size_t group =
        qi < templates.num_queries() ? qi : CacheEntry::kNoTemplate;
    if (group != CacheEntry::kNoTemplate) {
      group_view.level = ExposureLevel::kTemplate;
      group_view.tmpl = &templates.queries()[qi];
      group_view.template_index = qi;
    }
    if (mixed.Decide(update, group_view) !=
        invalidation::Decision::kDoNotInvalidate) {
      groups.push_back(group);
    }
  }
  return groups;
}

TEST(ViewIndexPlanTest, VisitListMatchesTemplateLevelDecisions) {
  for (const std::string app_name :
       {"toystore", "auction", "bboard", "bookstore"}) {
    SCOPED_TRACE(app_name);
    DsspNode scratch;
    ScalableApp app(app_name, &scratch,
                    crypto::KeyRing::FromPassphrase("view-index"));
    auto workload = workloads::MakeApplication(app_name);
    ASSERT_TRUE(workload->Setup(app, 0.25, 41).ok());
    ASSERT_TRUE(app.Finalize().ok());
    const catalog::Catalog& catalog = app.home().database().catalog();
    const templates::TemplateSet& templates = app.templates();
    const InvalidationPlan plan = InvalidationPlan::Compile(templates, catalog);
    const ViewIndexPlan index =
        ViewIndexPlan::Compile(templates, catalog, plan);
    const invalidation::MixedStrategy mixed(catalog, plan);
    Rng rng(77);

    // A notice that exposes no template.
    invalidation::UpdateView blind;
    std::vector<GroupVisit> visits;
    index.PlanVisits(CacheEntry::kNoTemplate, nullptr, &visits);
    std::vector<size_t> groups;
    for (const GroupVisit& visit : visits) {
      groups.push_back(visit.group);
      EXPECT_EQ(visit.probe.mode, ProbeMode::kScanAll);
    }
    EXPECT_EQ(groups, GroupsByDecision(mixed, templates, blind));

    for (size_t ui = 0; ui < templates.num_updates(); ++ui) {
      SCOPED_TRACE("update " + std::to_string(ui));
      const templates::UpdateTemplate& u = templates.updates()[ui];
      const sql::Statement bound =
          u.Bind(RandomParamsFor(rng, u.statement()));
      for (const ExposureLevel level :
           {ExposureLevel::kTemplate, ExposureLevel::kStmt}) {
        invalidation::UpdateView update;
        update.level = level;
        update.tmpl = &u;
        update.template_index = ui;
        if (level == ExposureLevel::kStmt) update.statement = &bound;
        index.PlanVisits(ui, update.statement, &visits);
        groups.clear();
        for (const GroupVisit& visit : visits) {
          groups.push_back(visit.group);
          const ProbeMode want =
              update.statement == nullptr ||
                      visit.group == CacheEntry::kNoTemplate
                  ? ProbeMode::kScanAll
                  : index.BuildGroupProbe(ui, visit.group, bound).mode;
          EXPECT_EQ(visit.probe.mode, want) << "group " << visit.group;
        }
        EXPECT_EQ(groups, GroupsByDecision(mixed, templates, update));
      }
    }
  }
}

TEST(ViewIndexDifferentialTest, PaperWorkloadsBitIdentical) {
  for (const std::string app_name :
       {"toystore", "auction", "bboard", "bookstore"}) {
    SCOPED_TRACE(app_name);
    // Build the workload's catalog + templates once (the app itself only
    // serves as the factory here).
    DsspNode scratch;
    ScalableApp app(app_name, &scratch,
                    crypto::KeyRing::FromPassphrase("view-index"));
    auto workload = workloads::MakeApplication(app_name);
    ASSERT_TRUE(workload->Setup(app, 0.25, 41).ok());
    ASSERT_TRUE(app.Finalize().ok());

    RunDifferential(app.home().database().catalog(), app.templates(),
                    /*seed=*/1234, /*entries=*/120, /*updates=*/60);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(ViewIndexDifferentialTest, RandomizedTemplatesBitIdentical) {
  const catalog::Catalog catalog = TestCatalog();
  Rng rng(20260809);
  constexpr const char* kQueries[] = {
      "SELECT a, b, c FROM t1 WHERE a = ?",
      "SELECT a, b, c FROM t1 WHERE a = ? AND b < ?",
      "SELECT a, b, c FROM t1 WHERE b >= ?",
      "SELECT a, b, c FROM t1 WHERE c = ?",
      "SELECT x, r, y FROM t2 WHERE r = ?",
      "SELECT b, y FROM t1, t2 WHERE r = a AND a = ?",
      "SELECT a, b, c FROM t1 WHERE b < 5",
      "SELECT a, b, c FROM t1 WHERE a <= ?",
  };
  constexpr const char* kUpdates[] = {
      "DELETE FROM t1 WHERE a = ?",
      "DELETE FROM t1 WHERE a < ?",
      "DELETE FROM t1",
      "DELETE FROM t2 WHERE x = ?",
      "INSERT INTO t1 (a, b, c) VALUES (?, ?, ?)",
      "INSERT INTO t2 (x, r, y) VALUES (?, ?, ?)",
      "UPDATE t1 SET b = ? WHERE a = ?",
      "UPDATE t1 SET c = ? WHERE b >= ?",
      "UPDATE t2 SET r = ? WHERE x = ?",
  };
  templates::TemplateSet templates;
  int id = 0;
  for (const char* sql : kQueries) {
    auto q = QueryTemplate::Create("Q" + std::to_string(id++), sql, catalog);
    ASSERT_TRUE(q.ok()) << sql;
    templates.AddQuery(std::move(*q));
  }
  id = 0;
  for (const char* sql : kUpdates) {
    auto u = UpdateTemplate::Create("U" + std::to_string(id++), sql, catalog);
    ASSERT_TRUE(u.ok()) << sql;
    templates.AddUpdate(std::move(*u));
  }

  RunDifferential(catalog, templates, /*seed=*/rng.NextBelow(1u << 30),
                  /*entries=*/200, /*updates=*/120);
}

TEST(ViewIndexDifferentialTest, EvictionAndStaleRetentionStayIdentical) {
  const catalog::Catalog catalog = TestCatalog();
  templates::TemplateSet templates;
  auto q = QueryTemplate::Create("Q0", "SELECT a, b, c FROM t1 WHERE a = ?",
                                 catalog);
  ASSERT_TRUE(q.ok());
  templates.AddQuery(std::move(*q));
  auto u =
      UpdateTemplate::Create("U0", "DELETE FROM t1 WHERE a = ?", catalog);
  ASSERT_TRUE(u.ok());
  templates.AddUpdate(std::move(*u));

  // Capacity pressure makes inserts evict (bypassing the stale store) while
  // updates invalidate (feeding it); node and oracle must stay in lockstep —
  // including the index's bucket bookkeeping across evict/reinsert cycles.
  RunDifferential(catalog, templates, /*seed=*/99, /*entries=*/80,
                  /*updates=*/80, /*capacity=*/24);
}

// Re-inserting a key under a different binding must re-bucket it: the old
// bucket may not shadow the new bound.
TEST(ViewIndexDifferentialTest, ReinsertedEntryIsReindexed) {
  const catalog::Catalog catalog = TestCatalog();
  templates::TemplateSet templates;
  auto q = QueryTemplate::Create("Q0", "SELECT a, b, c FROM t1 WHERE a = ?",
                                 catalog);
  ASSERT_TRUE(q.ok());
  templates.AddQuery(std::move(*q));
  auto u =
      UpdateTemplate::Create("U0", "DELETE FROM t1 WHERE a = ?", catalog);
  ASSERT_TRUE(u.ok());
  templates.AddUpdate(std::move(*u));

  DsspNode node;
  ASSERT_TRUE(node.RegisterApp("app", &catalog, &templates).ok());
  const auto store = [&](int64_t bound) {
    CacheEntry entry;
    entry.key = "k";  // Same key both times.
    entry.level = ExposureLevel::kStmt;
    entry.template_index = 0;
    entry.statement = templates.queries()[0].Bind({Value(bound)});
    entry.blob = "b";
    node.Store("app", std::move(entry));
  };
  const auto kill = [&](int64_t operand) {
    UpdateNotice notice;
    notice.level = ExposureLevel::kStmt;
    notice.template_index = 0;
    notice.statement = templates.updates()[0].Bind({Value(operand)});
    return node.OnUpdate("app", notice);
  };

  store(3);
  store(8);  // Re-bucketed from 3 to 8.
  EXPECT_EQ(kill(3), 0u);  // The old bucket must not match anymore.
  EXPECT_EQ(node.CacheSize("app"), 1u);
  EXPECT_EQ(kill(8), 1u);
  EXPECT_EQ(node.CacheSize("app"), 0u);
}

}  // namespace
}  // namespace dssp::service
