#include <cmath>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "calibrate.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dssp::service::CacheEntry;
using dssp::service::ChannelOutcome;
using dssp::service::UpdateNotice;

// Small enough that every workload runs in about a second.
Sizes TinySizes() {
  Sizes sizes;
  sizes.scale = 0.25;
  sizes.setups = 1;
  sizes.browse_pages = 100;
  sizes.shop_warmup_pages = 50;
  sizes.shop_cache_capacity = 50;
  sizes.sim_scale = 0.25;
  sizes.sim_clients = 300;
  sizes.sim_duration_s = 3;
  sizes.sim_min_runs = 1;
  sizes.sim_setups = 2;
  sizes.checkpoint_ops = 100;
  return sizes;
}

constexpr Workload kAll[] = {Workload::kBrowseHot, Workload::kShopTenants,
                             Workload::kSimScaleout};

TEST(OpStream, IsAPureFunctionOfTheSeed) {
  for (Workload workload : kAll) {
    SCOPED_TRACE(WorkloadName(workload));
    const auto first = OpStream(workload, 7, TinySizes(), 60);
    const auto again = OpStream(workload, 7, TinySizes(), 60);
    const auto other = OpStream(workload, 8, TinySizes(), 60);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, again);
    EXPECT_NE(first, other);
  }
}

TEST(OpStream, ShopRoundRobinsOverTheThreeTenants) {
  const auto ops = OpStream(Workload::kShopTenants, 3, TinySizes(), 30);
  bool seen[3] = {false, false, false};
  for (const std::string& line : ops) seen[line[0] - '0'] = true;
  EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
}

// ----- Decorators forward every interface method unchanged. -----

class FakeCache : public dssp::service::CacheBackend {
 public:
  std::vector<std::string> calls;

  dssp::Status RegisterApp(std::string app_id,
                           const dssp::catalog::Catalog* catalog,
                           const dssp::templates::TemplateSet* templates)
      override {
    calls.push_back("register " + app_id);
    EXPECT_EQ(catalog, kCatalog);
    EXPECT_EQ(templates, kTemplates);
    return dssp::InvalidArgumentError("register-result");
  }
  std::optional<CacheEntry> Lookup(const std::string& app_id,
                                   const std::string& key) override {
    calls.push_back("lookup " + app_id + " " + key);
    CacheEntry entry;
    entry.key = key;
    entry.blob = "blob";
    return entry;
  }
  std::optional<CacheEntry> LookupStale(const std::string& app_id,
                                        const std::string& key,
                                        uint64_t behind) override {
    calls.push_back("stale " + app_id + " " + key + " " +
                    std::to_string(behind));
    return std::nullopt;
  }
  void Store(const std::string& app_id, CacheEntry entry) override {
    calls.push_back("store " + app_id + " " + entry.key + " " + entry.blob);
  }
  size_t OnUpdate(const std::string& app_id,
                  const UpdateNotice& notice) override {
    calls.push_back("update " + app_id + " " +
                    std::to_string(notice.template_index));
    return 7;
  }
  size_t ClearCache(const std::string& app_id) override {
    calls.push_back("clear " + app_id);
    return 3;
  }
  void SetStaleRetention(const std::string& app_id, size_t n) override {
    calls.push_back("retention " + app_id + " " + std::to_string(n));
  }

  static inline const auto* kCatalog =
      reinterpret_cast<const dssp::catalog::Catalog*>(0x10);
  static inline const auto* kTemplates =
      reinterpret_cast<const dssp::templates::TemplateSet*>(0x20);
};

TEST(Decorators, CacheBackendForwardsEveryMethod) {
  FakeCache fake;
  Tracer tracer(1);
  TracedCacheBackend traced(fake, tracer);

  EXPECT_EQ(traced.RegisterApp("a", FakeCache::kCatalog,
                               FakeCache::kTemplates)
                .message(),
            "register-result");
  const auto hit = traced.Lookup("a", "k1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->key, "k1");
  EXPECT_EQ(hit->blob, "blob");
  EXPECT_FALSE(traced.LookupStale("a", "k2", 5).has_value());
  CacheEntry entry;
  entry.key = "k3";
  entry.blob = "b3";
  traced.Store("a", entry);
  UpdateNotice notice;
  notice.template_index = 4;
  EXPECT_EQ(traced.OnUpdate("a", notice), 7u);
  EXPECT_EQ(traced.ClearCache("a"), 3u);
  traced.SetStaleRetention("a", 9);

  EXPECT_EQ(fake.calls,
            (std::vector<std::string>{"register a", "lookup a k1",
                                      "stale a k2 5", "store a k3 b3",
                                      "update a 4", "clear a",
                                      "retention a 9"}));
  const auto totals = tracer.Totals();
  EXPECT_EQ(totals[static_cast<size_t>(SpanKind::kCacheLookup)].count, 1u);
  EXPECT_EQ(totals[static_cast<size_t>(SpanKind::kCacheStore)].count, 1u);
  EXPECT_EQ(totals[static_cast<size_t>(SpanKind::kCacheOnUpdate)].count, 1u);
  const std::vector<Span> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[2].kind, SpanKind::kCacheOnUpdate);
  EXPECT_EQ(spans[2].tag, 7u);
}

class FakeChannel : public dssp::service::Channel {
 public:
  std::vector<std::string> frames;
  ChannelOutcome RoundTrip(std::string_view frame) override {
    frames.emplace_back(frame);
    ChannelOutcome outcome;
    outcome.delivered = true;
    outcome.response = "reply-" + std::string(frame);
    outcome.home_deliveries = 2;
    outcome.delay_s = 0.25;
    outcome.request_corrupted = true;
    outcome.response_corrupted = true;
    return outcome;
  }
};

TEST(Decorators, ChannelForwardsRoundTrip) {
  auto fake = std::make_unique<FakeChannel>();
  FakeChannel* inner = fake.get();
  Tracer tracer(1);
  TracedChannel traced(std::move(fake), tracer);
  const ChannelOutcome outcome = traced.RoundTrip("frame");
  EXPECT_EQ(inner->frames, std::vector<std::string>{"frame"});
  EXPECT_TRUE(outcome.delivered);
  EXPECT_EQ(outcome.response, "reply-frame");
  EXPECT_EQ(outcome.home_deliveries, 2);
  EXPECT_EQ(outcome.delay_s, 0.25);
  EXPECT_TRUE(outcome.request_corrupted);
  EXPECT_TRUE(outcome.response_corrupted);
  EXPECT_EQ(tracer.Totals()[static_cast<size_t>(SpanKind::kChannelRoundTrip)]
                .count,
            1u);
}

class FakeHome : public dssp::backend::HomeBackend {
 public:
  std::vector<std::string> calls;
  const std::string& app_id() const override { return id_; }
  dssp::StatusOr<std::string> HandleQuery(std::string_view ciphertext,
                                          bool plaintext) override {
    calls.push_back("query " + std::string(ciphertext));
    return std::string(ciphertext) + (plaintext ? "+plain" : "+sealed");
  }
  dssp::StatusOr<dssp::engine::UpdateEffect> HandleUpdate(
      std::string_view ciphertext, uint64_t nonce) override {
    calls.push_back("update " + std::string(ciphertext) + " " +
                    std::to_string(nonce));
    return dssp::engine::UpdateEffect{nonce + 1};
  }
  dssp::Status Ping() override {
    calls.push_back("ping");
    return dssp::UnavailableError("down");
  }
  std::vector<std::string> TableNames() const override {
    return {"t1", "t2"};
  }
  dssp::StatusOr<dssp::backend::TableMetadata> DescribeTable(
      std::string_view table) override {
    calls.push_back("describe " + std::string(table));
    dssp::backend::TableMetadata metadata;
    metadata.table = std::string(table);
    metadata.row_count = 11;
    return metadata;
  }
  void Tick(double now_s) override {
    calls.push_back("tick " + std::to_string(now_s));
  }
  dssp::backend::HomeBackendStats Stats() const override {
    dssp::backend::HomeBackendStats stats;
    stats.queries_executed = 42;
    return stats;
  }

 private:
  std::string id_ = "tenant";
};

TEST(Decorators, HomeBackendForwardsEveryMethod) {
  FakeHome fake;
  Tracer tracer(1);
  TracedHomeBackend traced(fake, tracer);
  EXPECT_EQ(traced.app_id(), "tenant");
  EXPECT_EQ(*traced.HandleQuery("ct", true), "ct+plain");
  EXPECT_EQ(traced.HandleUpdate("up", 5)->rows_affected, 6u);
  EXPECT_EQ(traced.Ping().message(), "down");
  EXPECT_EQ(traced.TableNames(), (std::vector<std::string>{"t1", "t2"}));
  EXPECT_EQ(traced.DescribeTable("t1")->row_count, 11u);
  traced.Tick(2.5);
  EXPECT_EQ(traced.Stats().queries_executed, 42u);
  EXPECT_EQ(fake.calls,
            (std::vector<std::string>{"query ct", "update up 5", "ping",
                                      "describe t1",
                                      "tick " + std::to_string(2.5)}));
  const auto totals = tracer.Totals();
  EXPECT_EQ(totals[static_cast<size_t>(SpanKind::kBackendQuery)].count, 1u);
  EXPECT_EQ(totals[static_cast<size_t>(SpanKind::kBackendUpdate)].count, 1u);
}

TEST(Tracer, SelfTimeExcludesChildren) {
  Tracer tracer(1);
  {
    Tracer::Scope root(tracer, SpanKind::kAppQuery);
    root.set_tag(kTagHit);
    Tracer::Scope child(tracer, SpanKind::kCacheLookup);
  }
  const std::vector<Span> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].kind, SpanKind::kCacheLookup);
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[1].parent, 0u);
  const TraceSummary summary = Summarize(spans, tracer.Totals());
  const auto& root = summary.totals[static_cast<size_t>(SpanKind::kAppQuery)];
  const auto& child =
      summary.totals[static_cast<size_t>(SpanKind::kCacheLookup)];
  EXPECT_EQ(root.self_ns, root.total_ns - child.total_ns);
  EXPECT_GE(summary.hit_self_us, 0);
}

// ----- The result line carries every metric of BENCHMARK.json. -----

std::vector<std::pair<std::string, std::string>> SpecMetrics(
    const std::string& section) {
  std::ifstream in(PERFBENCH_SPEC);
  std::stringstream text;
  text << in.rdbuf();
  const std::string spec = text.str();
  const size_t begin = spec.find("\"" + section + "\"");
  EXPECT_NE(begin, std::string::npos) << section;
  const size_t end = spec.find(']', begin);
  const std::string body = spec.substr(begin, end - begin);
  std::vector<std::pair<std::string, std::string>> metrics;
  const std::regex entry(R"re("name":\s*"([^"]+)",\s*"unit":\s*"([^"]+)")re");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), entry);
       it != std::sregex_iterator(); ++it) {
    metrics.emplace_back((*it)[1], (*it)[2]);
  }
  return metrics;
}

std::vector<std::pair<std::string, std::string>> Catalog(bool trace) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const MetricSpec& spec : CatalogFor(trace)) {
    out.emplace_back(spec.name, spec.unit);
  }
  return out;
}

TEST(HostSpeed, IsAPositiveFactorNearTheReference) {
  const double speed = HostSpeed();
  EXPECT_TRUE(std::isfinite(speed));
  // Hosts differ, but not by orders of magnitude from the reference.
  EXPECT_GT(speed, 0.01);
  EXPECT_LT(speed, 100);
}

TEST(Output, CatalogMatchesBenchmarkJson) {
  EXPECT_EQ(SpecMetrics("end_to_end"), Catalog(false));
  EXPECT_EQ(SpecMetrics("per_layer"), Catalog(true));
}

TEST(Output, EveryWorkloadReportsEveryMetricWithItsUnit) {
  for (Workload workload : kAll) {
    for (bool trace : {false, true}) {
      SCOPED_TRACE(std::string(WorkloadName(workload)) +
                   (trace ? " traced" : " untraced"));
      RunOptions options;
      options.workload = workload;
      options.seed = 11;
      options.seconds = 0.3;
      options.trace = trace;
      options.sizes = TinySizes();
      const Report report = RunWorkload(options);
      EXPECT_TRUE(report.correct);
      EXPECT_GT(report.attempted, 0u);
      EXPECT_EQ(report.failed, 0u);
      const std::string json = RenderJson(report, trace);
      for (const auto& [name, unit] : Catalog(trace)) {
        EXPECT_NE(json.find("\"" + name + "\": {\"value\": "),
                  std::string::npos)
            << name;
        const size_t at = json.find("\"" + name + "\"");
        EXPECT_NE(json.find("\"unit\": \"" + unit + "\"", at),
                  std::string::npos)
            << name;
      }
      if (!trace) {
        for (const auto& [name, unit] : Catalog(false)) {
          EXPECT_GT(report.metrics.at(name), 0) << name;
        }
      }
    }
  }
}

}  // namespace
}  // namespace perfbench
