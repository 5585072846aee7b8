#include "workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_set>
#include <utility>

#include "analysis/methodology.h"
#include "backend/host.h"
#include "calibrate.h"
#include "cluster/router.h"
#include "crypto/keyring.h"
#include "dssp/app.h"
#include "dssp/node.h"
#include "sim/cluster_sim.h"
#include "trace.h"
#include "workloads/application.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using dssp::sim::DbOp;
using Page = std::vector<DbOp>;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

uint32_t Ns(Clock::time_point from, Clock::time_point to) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
  return static_cast<uint32_t>(std::clamp<int64_t>(ns, 0, UINT32_MAX));
}

// SplitMix64 of (seed, salt): independent sub-seeds from the one --seed.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string FormatOp(size_t tenant, const DbOp& op) {
  std::string line = std::to_string(tenant) + (op.is_update ? " U " : " Q ") +
                     op.template_id;
  for (const dssp::sql::Value& param : op.params) {
    line += " " + param.ToSqlLiteral();
  }
  return line;
}

// ----- Stacks. -----

struct TenantStack {
  std::unique_ptr<dssp::workloads::Application> workload;
  std::unique_ptr<dssp::service::ScalableApp> app;
  std::unique_ptr<TracedHomeBackend> traced_home;
  std::unique_ptr<dssp::sim::SessionGenerator> session;
  std::unique_ptr<dssp::Rng> rng;
};

// A query issued by a client, with the tenant it went to.
struct LoggedQuery {
  size_t tenant;
  DbOp op;
};

struct Stack {
  // Exactly one of node / router is set. Declared before the tenants, whose
  // apps point at them, so they are destroyed after.
  std::unique_ptr<dssp::service::DsspNode> node;
  std::unique_ptr<dssp::cluster::ClusterRouter> router;
  std::unique_ptr<TracedCacheBackend> traced_cache;
  // sim_scaleout: the home host the tenant is re-attached to after the
  // simulation (see RunSimOnce).
  std::unique_ptr<dssp::backend::BackendHost> host;
  std::vector<std::unique_ptr<TenantStack>> tenants;

  std::vector<Page> pool;          // browse_hot: the page pool.
  uint64_t next_page = 0;          // shop_tenants: next page of the stream.
  std::vector<LoggedQuery> log;    // Queries issued (browse_hot: the pool's).

  dssp::service::CacheBackend& cache() {
    if (traced_cache != nullptr) return *traced_cache;
    if (node != nullptr) return *node;
    return *router;
  }
};

// The database contents are fixed; --seed chooses the client traffic. Runs
// on different seeds then differ only in what the clients ask, which keeps
// the spread between seeds small.
constexpr uint64_t kDatabaseSeed = 0xD55B;

// Builds one tenant: population, registration, the security methodology's
// exposure, and (when tracing) the traced channel and home backend. `seed`
// drives the tenant's traffic.
void AddTenant(Stack& stack, std::string_view name, uint64_t seed,
               double scale, Tracer* tracer, bool hardened_wire) {
  const uint64_t population_seed = Mix(kDatabaseSeed, stack.tenants.size());
  auto tenant = std::make_unique<TenantStack>();
  tenant->workload = dssp::workloads::MakeApplication(name);
  tenant->app = std::make_unique<dssp::service::ScalableApp>(
      std::string(name), &stack.cache(),
      dssp::crypto::KeyRing::FromPassphrase("perfbench-" + std::string(name)));
  dssp::service::ScalableApp& app = *tenant->app;
  DSSP_CHECK_OK(tenant->workload->Setup(app, scale, population_seed));
  DSSP_CHECK_OK(app.Finalize());
  const dssp::catalog::Catalog& catalog = app.home().database().catalog();
  const dssp::analysis::SecurityReport security =
      dssp::analysis::RunMethodology(
          app.templates(), catalog,
          tenant->workload->CompulsoryEncryption(catalog));
  DSSP_CHECK_OK(app.SetExposure(security.final));
  if (tracer != nullptr) {
    tenant->traced_home =
        std::make_unique<TracedHomeBackend>(app.home(), *tracer);
    app.SetChannel(std::make_unique<TracedChannel>(
        std::make_unique<dssp::service::DirectChannel>(*tenant->traced_home),
        *tracer));
  }
  if (hardened_wire) {
    dssp::service::WirePolicy policy;
    policy.seed = Mix(seed, 2);
    app.SetWirePolicy(policy);
  }
  tenant->session = tenant->workload->NewSession(Mix(seed, 3));
  tenant->rng = std::make_unique<dssp::Rng>(Mix(seed, 4));
  stack.tenants.push_back(std::move(tenant));
}

// ----- Client loop. -----

// A uniform sample of at most `kCapacity` latencies (Vitter's algorithm R),
// so that a run's memory does not grow with its throughput.
class LatencySample {
 public:
  static constexpr size_t kCapacity = 1 << 20;

  void Add(uint32_t ns) {
    ++seen_;
    if (values_.size() < kCapacity) {
      values_.push_back(ns);
      return;
    }
    // xorshift64*: cheap enough for the timed loop.
    rng_ ^= rng_ >> 12;
    rng_ ^= rng_ << 25;
    rng_ ^= rng_ >> 27;
    const uint64_t slot = (rng_ * 0x2545F4914F6CDD1DULL) % seen_;
    if (slot < kCapacity) values_[slot] = ns;
  }

  uint64_t seen() const { return seen_; }
  std::vector<uint32_t>& values() { return values_; }

 private:
  std::vector<uint32_t> values_;
  uint64_t seen_ = 0;
  uint64_t rng_ = 0x9E3779B97F4A7C15ULL;
};

struct Samples {
  std::vector<uint32_t> query_ns;  // Query latencies of the open window.
  uint64_t queries = 0;
  LatencySample update;
  uint64_t ops = 0;
  uint64_t failed = 0;
};

// A timed phase is cut into windows of kWindowS wall seconds, each followed
// by a HostSpeed() probe (calibrate.h); the probe's time is in no window.
constexpr double kWindowS = 0.25;

struct Window {
  double ops_per_s = 0;
  double speed = 1;  // HostSpeed() measured right after the window.
};

// The median over `windows` of the rate divided by the host speed measured
// with it: the rate at the reference host's speed.
double RateAtReference(const std::vector<Window>& windows) {
  std::vector<double> values;
  for (const Window& w : windows) values.push_back(w.ops_per_s / w.speed);
  return Median(values);
}

double RawMedian(const std::vector<Window>& windows, double Window::*field) {
  std::vector<double> values;
  for (const Window& w : windows) values.push_back(w.*field);
  return Median(values);
}

// Adds latencies measured at host speed `speed` to `out` at the reference
// host's speed.
void AddAtReference(const std::vector<uint32_t>& ns, double speed,
                    LatencySample& out) {
  for (uint32_t value : ns) {
    out.Add(static_cast<uint32_t>(std::min<double>(
        UINT32_MAX, std::round(static_cast<double>(value) * speed))));
  }
}

// Runs one page through the public ScalableApp path, timing each operation.
// A non-OK status counts as a failed operation.
void RunPage(dssp::service::ScalableApp& app, const Page& page,
             Tracer* tracer, Samples& samples) {
  Clock::time_point op_start = Clock::now();
  for (const DbOp& op : page) {
    bool ok = false;
    if (op.is_update) {
      std::optional<Tracer::Scope> root;
      if (tracer != nullptr) root.emplace(*tracer, SpanKind::kAppUpdate);
      ok = app.Update(op.template_id, op.params).ok();
    } else {
      std::optional<Tracer::Scope> root;
      if (tracer != nullptr) root.emplace(*tracer, SpanKind::kAppQuery);
      dssp::service::AccessStats stats;
      ok = app.Query(op.template_id, op.params, &stats).ok();
      if (root.has_value() && stats.cache_hit) root->set_tag(kTagHit);
    }
    const Clock::time_point op_end = Clock::now();
    if (op.is_update) {
      samples.update.Add(Ns(op_start, op_end));
    } else {
      samples.query_ns.push_back(Ns(op_start, op_end));
      ++samples.queries;
    }
    op_start = op_end;
    ++samples.ops;
    if (!ok) ++samples.failed;
  }
}

// Counters that the benchmark's decorators must not change: a traced run
// reads the same values as an untraced one after the same operations.
struct Counts {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t invalidated = 0;
  uint64_t insert_evictions = 0;
  uint64_t program_queries = 0;
  uint64_t fallback_queries = 0;
  uint64_t stmt_hits = 0;
  uint64_t stmt_misses = 0;

  bool operator==(const Counts&) const = default;
  Counts operator-(const Counts& o) const {
    return {lookups - o.lookups,
            hits - o.hits,
            invalidated - o.invalidated,
            insert_evictions - o.insert_evictions,
            program_queries - o.program_queries,
            fallback_queries - o.fallback_queries,
            stmt_hits - o.stmt_hits,
            stmt_misses - o.stmt_misses};
  }
};

Counts CountsOf(Stack& stack) {
  Counts counts;
  for (const auto& tenant : stack.tenants) {
    const std::string& id = tenant->app->app_id();
    const dssp::service::DsspStats stats =
        stack.node != nullptr ? stack.node->stats(id)
                              : stack.router->AppStats(id);
    counts.lookups += stats.lookups;
    counts.hits += stats.hits;
    counts.invalidated += stats.entries_invalidated;
    if (stack.node != nullptr) {
      counts.insert_evictions +=
          stack.node->GetCacheCounters(id).insert_evictions;
    }
    const dssp::backend::HomeBackendStats home = tenant->app->home().Stats();
    counts.program_queries += home.program_queries;
    counts.fallback_queries += home.interpreter_fallback_queries;
    counts.stmt_hits += home.statements.hits;
    counts.stmt_misses += home.statements.misses;
  }
  return counts;
}

struct Phase {
  Samples samples;
  std::vector<Window> windows;
  LatencySample query_ns;  // At the reference host's speed.
  std::vector<Counts> checkpoints;  // shop_tenants: every checkpoint_ops.
  Counts delta;                     // Counter change over the phase.
  double wall_s = 0;
};

// The closed loop of one client thread: `run_page` runs the next page into
// the phase's samples, until `seconds` have passed. Closes a window whenever
// kWindowS have passed and probes the host speed; the open window at the
// end is dropped unless it is the only one.
template <typename RunNextPage>
void RunLoop(double seconds, Phase& phase, RunNextPage run_page) {
  Samples& samples = phase.samples;
  const Clock::time_point start = Clock::now();
  Clock::time_point window_start = start;
  uint64_t window_ops = 0;
  const auto close_window = [&](Clock::time_point now) {
    Window window;
    window.ops_per_s = static_cast<double>(samples.ops - window_ops) /
                       Seconds(window_start, now);
    window.speed = HostSpeed();
    AddAtReference(samples.query_ns, window.speed, phase.query_ns);
    phase.windows.push_back(window);
  };
  samples.query_ns.clear();
  for (;;) {
    run_page();
    const Clock::time_point now = Clock::now();
    const bool done = Seconds(start, now) >= seconds;
    if (Seconds(window_start, now) >= kWindowS ||
        (done && phase.windows.empty())) {
      close_window(now);
      samples.query_ns.clear();
      window_start = Clock::now();
      window_ops = samples.ops;
    }
    if (done) break;
  }
  phase.wall_s = Seconds(start, Clock::now());
}

// shop_tenants' page stream: page i goes to tenant i mod 3, drawn from
// that tenant's session generator.
Page NextShopPage(Stack& stack, size_t& tenant) {
  tenant = stack.next_page++ % stack.tenants.size();
  TenantStack& t = *stack.tenants[tenant];
  return t.session->NextPage(*t.rng);
}

void LogQueries(Stack& stack, size_t tenant, Page& page) {
  for (DbOp& op : page) {
    if (!op.is_update) stack.log.push_back({tenant, std::move(op)});
  }
}

bool IsBrowsePage(const Page& page) {
  static const std::unordered_set<std::string> kBrowseFirst = {
      "Q1", "Q2", "Q4", "Q5", "Q6", "Q7", "Q8"};  // home .. best sellers
  if (page.empty() || !kBrowseFirst.contains(page.front().template_id)) {
    return false;
  }
  return std::none_of(page.begin(), page.end(),
                      [](const DbOp& op) { return op.is_update; });
}

// Builds a real-stack workload up to its first timed operation, counting
// the warm-up's operations into `warmup`.
std::unique_ptr<Stack> BuildRealStack(Workload workload, uint64_t seed,
                                      const Sizes& sizes, Tracer* tracer,
                                      bool warm, Samples& warmup) {
  auto stack = std::make_unique<Stack>();
  stack->node = std::make_unique<dssp::service::DsspNode>();
  if (tracer != nullptr) {
    stack->traced_cache =
        std::make_unique<TracedCacheBackend>(*stack->node, *tracer);
  }
  if (workload == Workload::kBrowseHot) {
    AddTenant(*stack, "bookstore", Mix(seed, 100), sizes.scale, tracer,
              /*hardened_wire=*/false);
    TenantStack& t = *stack->tenants[0];
    while (stack->pool.size() < static_cast<size_t>(sizes.browse_pages)) {
      Page page = t.session->NextPage(*t.rng);
      if (!IsBrowsePage(page)) continue;
      for (const DbOp& op : page) stack->log.push_back({0, op});
      stack->pool.push_back(std::move(page));
    }
    if (warm) {
      for (const Page& page : stack->pool) {
        RunPage(*t.app, page, nullptr, warmup);
      }
    }
    return stack;
  }
  uint64_t salt = 100;
  for (std::string_view name : dssp::workloads::kEvaluationApps) {
    AddTenant(*stack, name, Mix(seed, salt++), sizes.scale, tracer,
              /*hardened_wire=*/true);
    stack->node->SetCacheCapacity(std::string(name),
                                  sizes.shop_cache_capacity);
  }
  if (warm) {
    for (int i = 0; i < sizes.shop_warmup_pages; ++i) {
      size_t tenant = 0;
      Page page = NextShopPage(*stack, tenant);
      RunPage(*stack->tenants[tenant]->app, page, nullptr, warmup);
      LogQueries(*stack, tenant, page);
    }
  }
  return stack;
}

// The timed phase. browse_hot's client cycles through the page pool;
// shop_tenants' client sends page i to tenant i mod 3 and snapshots the
// counters every checkpoint_ops operations.
Phase RunTimed(Workload workload, Stack& stack, const RunOptions& options,
               Tracer* tracer) {
  Phase phase;
  const Counts before = CountsOf(stack);
  if (workload == Workload::kBrowseHot) {
    dssp::service::ScalableApp& app = *stack.tenants[0]->app;
    size_t i = 0;
    RunLoop(options.seconds, phase, [&] {
      RunPage(app, stack.pool[i], tracer, phase.samples);
      if (++i == stack.pool.size()) i = 0;
    });
  } else {
    const uint64_t every =
        static_cast<uint64_t>(options.sizes.checkpoint_ops);
    uint64_t next_checkpoint = every;
    RunLoop(options.seconds, phase, [&] {
      size_t tenant = 0;
      Page page = NextShopPage(stack, tenant);
      RunPage(*stack.tenants[tenant]->app, page, tracer, phase.samples);
      LogQueries(stack, tenant, page);
      if (phase.samples.ops >= next_checkpoint) {
        phase.checkpoints.push_back(CountsOf(stack));
        next_checkpoint += every;
      }
    });
  }
  phase.delta = CountsOf(stack) - before;
  return phase;
}

std::string QueryKey(const LoggedQuery& q) {
  std::string key = std::to_string(q.tenant) + "|" + q.op.template_id;
  for (const dssp::sql::Value& param : q.op.params) {
    key += "|" + param.EncodeForKey();
  }
  return key;
}

// The distinct query instances of `queries`, in first-issue order.
std::vector<const LoggedQuery*> Distinct(
    const std::vector<LoggedQuery>& queries) {
  std::unordered_set<std::string> seen;
  std::vector<const LoggedQuery*> out;
  for (const LoggedQuery& q : queries) {
    if (seen.insert(QueryKey(q)).second) out.push_back(&q);
  }
  return out;
}

// Issues every distinct query instance through the DSSP `passes` times and
// adds each call's latency to `out` at the reference host's speed: the mean
// of the host speeds probed before and after. The first pass fills what the
// run invalidated or evicted; later passes are answered from the cache. A
// non-OK status is a failed operation.
void Replay(Stack& stack, const std::vector<LoggedQuery>& queries, int passes,
            Report& report, LatencySample& out) {
  const std::vector<const LoggedQuery*> distinct = Distinct(queries);
  std::vector<uint32_t> latency_ns;
  const double speed_before = HostSpeed();
  uint64_t failed = 0;
  uint64_t first_pass_hits = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (const LoggedQuery* q : distinct) {
      dssp::service::ScalableApp& app = *stack.tenants[q->tenant]->app;
      dssp::service::AccessStats stats;
      const Clock::time_point start = Clock::now();
      const bool ok = app.Query(q->op.template_id, q->op.params, &stats).ok();
      latency_ns.push_back(Ns(start, Clock::now()));
      ++report.attempted;
      if (!ok) ++failed;
      if (pass == 0 && stats.cache_hit) ++first_pass_hits;
    }
  }
  AddAtReference(latency_ns, (speed_before + HostSpeed()) / 2, out);
  report.failed += failed;
  if (failed > 0) {
    report.Fail(std::to_string(failed) + " replayed queries failed");
  }
  report.notes.push_back("replayed " + std::to_string(distinct.size()) +
                         " distinct queries " + std::to_string(passes) +
                         " times; the cache answered " +
                         std::to_string(first_pass_hits) +
                         " of the first pass");
}

// Re-issues every distinct query instance through the DSSP and compares the
// answer with direct execution on the master database. A non-OK status or a
// different answer is a failed operation.
void Verify(Stack& stack, const std::vector<LoggedQuery>& queries,
            Report& report) {
  const std::vector<const LoggedQuery*> distinct = Distinct(queries);
  uint64_t mismatches = 0;
  for (const LoggedQuery* qp : distinct) {
    const LoggedQuery& q = *qp;
    dssp::service::ScalableApp& app = *stack.tenants[q.tenant]->app;
    auto via_dssp = app.Query(q.op.template_id, q.op.params);
    const size_t index = app.templates().QueryIndex(q.op.template_id);
    auto direct = app.home().database().ExecuteQuery(
        app.templates().queries()[index].Bind(q.op.params));
    ++report.attempted;
    if (!via_dssp.ok() || !direct.ok() || !via_dssp->SameResult(*direct)) {
      ++report.failed;
      if (++mismatches <= 3) {
        report.notes.push_back("verification mismatch: " +
                               FormatOp(q.tenant, q.op));
      }
    }
  }
  if (mismatches > 0) {
    report.Fail(std::to_string(mismatches) + " of " +
                std::to_string(distinct.size()) +
                " re-issued queries differ from the home database");
  }
  report.notes.push_back("verified " + std::to_string(distinct.size()) +
                         " distinct query instances against the master");
}

void CountOps(Report& report, const Samples& samples) {
  report.attempted += samples.ops;
  report.failed += samples.failed;
  if (samples.failed > 0) {
    report.Fail(std::to_string(samples.failed) + " client operations failed");
  }
}

// Share of the queries at each exposure level (view, stmt, template, blind).
void LevelShares(Stack& stack, const std::vector<LoggedQuery>& queries,
                 Report& report) {
  std::array<uint64_t, 4> by_level{};
  for (const LoggedQuery& q : queries) {
    const dssp::service::ScalableApp& app = *stack.tenants[q.tenant]->app;
    const size_t index = app.templates().QueryIndex(q.op.template_id);
    ++by_level[static_cast<size_t>(app.exposure().query_levels[index])];
  }
  const double total =
      std::max<double>(1, static_cast<double>(queries.size()));
  using dssp::analysis::ExposureLevel;
  const auto share = [&](ExposureLevel level) {
    return static_cast<double>(by_level[static_cast<size_t>(level)]) / total;
  };
  report.metrics["app.level_share.view"] = share(ExposureLevel::kView);
  report.metrics["app.level_share.stmt"] = share(ExposureLevel::kStmt);
  report.metrics["app.level_share.template"] = share(ExposureLevel::kTemplate);
  report.metrics["app.level_share.blind"] = share(ExposureLevel::kBlind);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Us(std::vector<uint32_t>& ns, double q) {
  return Percentile(ns, q) / 1000.0;
}

// Per-layer metrics shared by every traced run. `busy_s` is the client time
// the shares are taken of (the timed phase's wall time).
void LayerMetrics(const TraceSummary& t, bool cluster, double busy_s,
                  const Counts& delta, Report& report) {
  const auto kind = [](SpanKind k) { return static_cast<size_t>(k); };
  const auto share = [&](std::initializer_list<SpanKind> kinds, bool self) {
    int64_t ns = 0;
    for (SpanKind k : kinds) {
      ns += self ? t.totals[kind(k)].self_ns : t.totals[kind(k)].total_ns;
    }
    return Ratio(static_cast<double>(ns) / 1e9, busy_s);
  };
  auto& m = report.metrics;
  m["app.hit_self_us"] = t.hit_self_us;
  m["app.miss_self_us"] = t.miss_self_us;
  m["app.update_self_us"] = t.self_median_us[kind(SpanKind::kAppUpdate)];
  m["app.busy_share"] =
      share({SpanKind::kAppQuery, SpanKind::kAppUpdate}, /*self=*/true);

  const double lookup = t.median_us[kind(SpanKind::kCacheLookup)];
  const double on_update = t.median_us[kind(SpanKind::kCacheOnUpdate)];
  m["node.lookup_us"] = cluster ? 0 : lookup;
  m["node.store_us"] = cluster ? 0 : t.median_us[kind(SpanKind::kCacheStore)];
  m["node.on_update_us"] = cluster ? 0 : on_update;
  m["node.busy_share"] =
      cluster ? 0
              : share({SpanKind::kCacheLookup, SpanKind::kCacheStore,
                       SpanKind::kCacheOnUpdate},
                      /*self=*/false);
  m["node.insert_evictions"] = static_cast<double>(delta.insert_evictions);
  m["node.invalidated_per_update"] = cluster ? 0 : t.invalidated_per_update;
  m["cluster.lookup_us"] = cluster ? lookup : 0;
  m["cluster.on_update_us"] = cluster ? on_update : 0;

  m["channel.dispatch_us"] =
      t.self_median_us[kind(SpanKind::kChannelRoundTrip)];
  m["channel.busy_share"] = share({SpanKind::kChannelRoundTrip}, true);
  m["backend.query_us"] = t.median_us[kind(SpanKind::kBackendQuery)];
  m["backend.update_us"] = t.median_us[kind(SpanKind::kBackendUpdate)];
  m["backend.busy_share"] =
      share({SpanKind::kBackendQuery, SpanKind::kBackendUpdate}, false);
  m["backend.program_query_ratio"] =
      Ratio(static_cast<double>(delta.program_queries),
            static_cast<double>(delta.program_queries +
                                delta.fallback_queries));
  m["backend.stmt_cache_hit_rate"] =
      Ratio(static_cast<double>(delta.stmt_hits),
            static_cast<double>(delta.stmt_hits + delta.stmt_misses));
}

void WriteSpansIfAsked(const RunOptions& options,
                       const std::vector<Span>& spans, Report& report) {
  if (options.spans_path.empty()) return;
  if (!WriteSpans(spans, options.spans_path)) {
    report.notes.push_back("could not write spans to " + options.spans_path);
  } else {
    report.notes.push_back("wrote " + std::to_string(spans.size()) +
                           " spans to " + options.spans_path);
  }
}

// The spans of every `store_every`-th client operation are kept; sized so a
// traced run keeps a few hundred thousand spans.
uint32_t StoreEvery(Workload workload) {
  switch (workload) {
    case Workload::kBrowseHot: return 16;
    case Workload::kShopTenants: return 2;
    case Workload::kSimScaleout: return 1;
  }
  return 1;
}

Report RunRealStack(const RunOptions& options) {
  Report report;
  const Workload workload = options.workload;
  const Sizes& sizes = options.sizes;
  const bool browse = workload == Workload::kBrowseHot;

  if (!options.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<Stack> stack;
    for (int i = 0; i < std::max(1, sizes.setups); ++i) {
      stack.reset();
      Samples warmup;
      const Clock::time_point start = Clock::now();
      stack = BuildRealStack(workload, options.seed, sizes, nullptr,
                             /*warm=*/true, warmup);
      setup_s.push_back(Seconds(start, Clock::now()) * HostSpeed());
      CountOps(report, warmup);
    }
    Phase phase = RunTimed(workload, *stack, options, nullptr);
    CountOps(report, phase.samples);
    if (browse) {
      if (phase.delta.hits != phase.delta.lookups) {
        report.Fail("browse_hot: " +
                    std::to_string(phase.delta.lookups - phase.delta.hits) +
                    " timed lookups missed the warmed cache");
      }
    }
    Verify(*stack, stack->log, report);

    auto& m = report.metrics;
    m["ops_per_s"] = RateAtReference(phase.windows);
    m["query_p50_us"] = Us(phase.query_ns.values(), 0.50);
    m["query_p99_us"] = Us(phase.query_ns.values(), 0.99);
    m["hit_rate"] = Ratio(static_cast<double>(phase.delta.hits),
                          static_cast<double>(phase.delta.lookups));
    m["setup_s"] = Median(setup_s);
    m["peak_rss_mb"] = PeakRssMb();
    report.notes.push_back(
        "timed " + std::to_string(phase.samples.ops) + " ops (" +
        std::to_string(phase.samples.queries) + " queries, " +
        std::to_string(phase.samples.update.seen()) + " updates) in " +
        std::to_string(phase.wall_s) + " s; " +
        std::to_string(phase.windows.size()) + " windows, as measured " +
        std::to_string(RawMedian(phase.windows, &Window::ops_per_s)) +
        " ops/s at host speed " +
        std::to_string(RawMedian(phase.windows, &Window::speed)));
    if (!browse) {
      std::vector<std::unordered_set<std::string>> distinct(
          stack->tenants.size());
      for (const LoggedQuery& q : stack->log) {
        distinct[q.tenant].insert(QueryKey(q));
      }
      for (size_t t = 0; t < stack->tenants.size(); ++t) {
        const std::string& id = stack->tenants[t]->app->app_id();
        report.notes.push_back(
            id + ": working set " + std::to_string(distinct[t].size()) +
            " distinct query instances, cache capacity " +
            std::to_string(sizes.shop_cache_capacity) + ", cached " +
            std::to_string(stack->node->CacheSize(id)));
      }
    }
    return report;
  }

  // Traced run: an untraced phase on one stack, then a traced phase on a
  // fresh stack built from the same seed. Their deterministic counters must
  // agree; the ratio of their throughputs is the tracing overhead.
  Samples warmup;
  auto plain = BuildRealStack(workload, options.seed, sizes, nullptr,
                              /*warm=*/true, warmup);
  Phase untraced = RunTimed(workload, *plain, options, nullptr);
  plain.reset();

  Tracer tracer(StoreEvery(workload));
  auto traced = BuildRealStack(workload, options.seed, sizes, &tracer,
                               /*warm=*/true, warmup);
  tracer.Clear();
  Phase phase = RunTimed(workload, *traced, options, &tracer);
  const std::vector<Span> spans = tracer.Collect();
  const TraceSummary summary = Summarize(spans, tracer.Totals());
  CountOps(report, warmup);
  CountOps(report, untraced.samples);
  CountOps(report, phase.samples);

  if (browse) {
    // The timed loop runs for a fixed time, so the two phases issue different
    // numbers of operations; the comparable counts are the structural ones:
    // the warmed cache answers every timed lookup and nothing is invalidated,
    // traced or not.
    for (const Phase* p : {&untraced, &phase}) {
      if (p->delta.hits != p->delta.lookups || p->delta.invalidated != 0) {
        report.Fail("browse_hot: timed phase missed or invalidated");
      }
    }
  } else {
    const size_t common =
        std::min(untraced.checkpoints.size(), phase.checkpoints.size());
    if (common == 0) report.Fail("no common counter checkpoint");
    for (size_t i = 0; i < common; ++i) {
      if (!(untraced.checkpoints[i] == phase.checkpoints[i])) {
        report.Fail("traced counters diverge from untraced at checkpoint " +
                    std::to_string(i));
        break;
      }
    }
    report.notes.push_back("traced and untraced counters agree at " +
                           std::to_string(common) + " checkpoints");
  }

  LevelShares(*traced, traced->log, report);
  Verify(*traced, traced->log, report);

  LayerMetrics(summary, /*cluster=*/false, phase.wall_s, phase.delta, report);
  auto& m = report.metrics;
  m["cluster.fallback_ops"] = 0;
  m["sim.events"] = 0;
  m["sim.events_per_s"] = 0;
  m["sim.stack_share"] = 0;
  m["sim.page_p90_s"] = 0;
  std::vector<uint32_t>& update_ns = untraced.samples.update.values();
  m["update_p50_us"] = Us(update_ns, 0.50);
  m["update_p99_us"] = Us(update_ns, 0.99);
  m["failed_op_ratio"] = Ratio(static_cast<double>(report.failed),
                               static_cast<double>(report.attempted));
  m["trace.overhead"] = Ratio(RateAtReference(untraced.windows),
                              RateAtReference(phase.windows));
  WriteSpansIfAsked(options, spans, report);
  return report;
}

// ----- sim_scaleout. -----

// Passes pages through unchanged and keeps a copy of every operation. Cuts
// the simulation's wall time into windows of kWindowS and records the
// operations issued per wall second in each, then probes the host speed
// while the simulation waits.
class RecordingSession : public dssp::sim::SessionGenerator {
 public:
  RecordingSession(dssp::sim::SessionGenerator& inner, std::vector<DbOp>& log,
                   std::vector<Window>& windows)
      : inner_(inner), log_(log), windows_(windows) {}

  std::vector<DbOp> NextPage(dssp::Rng& rng) override {
    const Clock::time_point now = Clock::now();
    if (log_.empty()) {
      window_start_ = now;
    } else if (Seconds(window_start_, now) >= kWindowS) {
      CloseWindow(now);
    }
    std::vector<DbOp> page = inner_.NextPage(rng);
    log_.insert(log_.end(), page.begin(), page.end());
    return page;
  }

  // After the simulation: the open window is dropped unless it is the only
  // one.
  void Finish() {
    if (windows_.empty() && !log_.empty()) CloseWindow(Clock::now());
  }

  // Wall time spent in the probes.
  double probe_s() const { return probe_s_; }

 private:
  dssp::sim::SessionGenerator& inner_;
  std::vector<DbOp>& log_;
  void CloseWindow(Clock::time_point now) {
    Window window;
    window.ops_per_s = static_cast<double>(log_.size() - window_ops_) /
                       Seconds(window_start_, now);
    window.speed = HostSpeed();
    windows_.push_back(window);
    window_start_ = Clock::now();
    probe_s_ += Seconds(now, window_start_);
    window_ops_ = log_.size();
  }

  std::vector<Window>& windows_;
  Clock::time_point window_start_;
  size_t window_ops_ = 0;
  double probe_s_ = 0;
};

struct SimRun {
  dssp::sim::ClusterSimResult result;
  double setup_s = 0;
  double sim_s = 0;  // Wall time of the simulation, without the probes.
  std::vector<DbOp> ops;
  std::vector<Window> windows;  // Operations issued per wall second.
  // The post-run replay through the cluster, at the reference host's speed.
  LatencySample query_ns;
  Counts delta;
  std::vector<Span> spans;
  std::array<KindTotals, kSpanKinds> totals{};
};

// Everything of a simulation that is a pure function of the seed.
std::string SimSignature(const dssp::sim::ClusterSimResult& r) {
  const dssp::sim::SimResult& t = r.tenants[0];
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "pages=%zu measured=%zu db_ops=%zu p50=%.17g p90=%.17g p99=%.17g "
      "hit=%.17g invalidated=%llu home_q=%llu home_u=%llu failed=%llu "
      "events=%llu fallback=%llu unrouted=%llu replayed=%llu",
      t.pages_completed, r.pages_measured, t.db_ops, t.p50_response_s,
      t.p90_response_s, t.p99_response_s, t.cache_hit_rate,
      static_cast<unsigned long long>(t.entries_invalidated),
      static_cast<unsigned long long>(t.home_queries),
      static_cast<unsigned long long>(t.home_updates),
      static_cast<unsigned long long>(t.failed_ops),
      static_cast<unsigned long long>(r.events_executed),
      static_cast<unsigned long long>(r.fallback_ops),
      static_cast<unsigned long long>(r.unrouted_ops),
      static_cast<unsigned long long>(r.rejoin_replayed));
  return buf;
}

// The cluster and its one tenant, ready for the simulation.
std::unique_ptr<Stack> BuildSimStack(uint64_t seed, const Sizes& sizes,
                                     Tracer* tracer) {
  auto stack = std::make_unique<Stack>();
  dssp::cluster::ClusterOptions cluster;
  cluster.num_nodes = 4;
  cluster.replication = 2;
  cluster.bus.bus_lag = 16;
  cluster.bus.max_batch = 16;
  stack->router = std::make_unique<dssp::cluster::ClusterRouter>(cluster);
  if (tracer != nullptr) {
    stack->traced_cache =
        std::make_unique<TracedCacheBackend>(*stack->router, *tracer);
  }
  AddTenant(*stack, "bookstore", Mix(seed, 100), sizes.sim_scale, tracer,
            /*hardened_wire=*/false);
  return stack;
}

SimRun RunSimOnce(uint64_t seed, const Sizes& sizes, Tracer* tracer,
                  Report& report) {
  SimRun run;
  const Clock::time_point start = Clock::now();
  std::unique_ptr<Stack> owned = BuildSimStack(seed, sizes, tracer);
  Stack& stack = *owned;
  TenantStack& tenant = *stack.tenants[0];
  RecordingSession session(*tenant.session, run.ops, run.windows);

  // Capacity grows with the population, as in the million-client
  // ablation, so queues model contention without collapsing.
  const int clients = sizes.sim_clients;
  dssp::sim::SimConfig config;
  config.duration_s = sizes.sim_duration_s;
  config.warmup_s = 0.3 * sizes.sim_duration_s;
  config.exponential_arrivals = true;
  config.dssp_workers = std::max(8, clients / 2000);
  config.home_workers = std::max(16, clients / 500);
  config.home_query_base_s = 0.0005;
  config.home_query_per_row_s = 0.0;
  config.home_update_base_s = 0.0005;
  config.seed = Mix(seed, 6);
  dssp::sim::ClusterScenario scenario;
  scenario.kill_node = 1;
  scenario.kill_at_s = 0.4 * sizes.sim_duration_s;
  scenario.rejoin_at_s = 0.7 * sizes.sim_duration_s;
  const Counts before = CountsOf(stack);
  run.setup_s = Seconds(start, Clock::now()) * HostSpeed();

  if (tracer != nullptr) tracer->Clear();
  const Clock::time_point sim_start = Clock::now();
  auto result = dssp::sim::RunClusterSimulation(
      *stack.router,
      {dssp::sim::Tenant{tenant.app.get(), &session, clients}}, config,
      scenario);
  run.sim_s = Seconds(sim_start, Clock::now()) - session.probe_s();
  session.Finish();
  DSSP_CHECK_OK(result.status());
  run.result = std::move(*result);
  // RunClusterSimulation attaches the tenant's home backend to a host that
  // it destroys on return; point the tenant at a live host before touching
  // the backend again.
  stack.host = std::make_unique<dssp::backend::BackendHost>(
      dssp::backend::PoolOptions{});
  stack.host->AttachTenant(&tenant.app->home());
  run.delta = CountsOf(stack) - before;
  if (tracer != nullptr) {
    run.spans = tracer->Collect();
    run.totals = tracer->Totals();
  }

  const dssp::sim::SimResult& t = run.result.tenants[0];
  report.attempted += t.db_ops;
  report.failed += t.failed_ops;
  if (t.failed_ops != 0) {
    report.Fail(std::to_string(t.failed_ops) + " simulated operations failed");
  }
  if (run.result.pages_measured == 0) report.Fail("no pages measured");
  if (!run.result.kill_fired || !run.result.rejoin_fired) {
    report.Fail("the kill/rejoin scenario did not fire");
  }

  // Deliver every queued invalidation, then check the cluster's answers.
  for (int i = 0; i < stack.router->num_nodes(); ++i) {
    if (!stack.router->bus().Flush(i).ok()) {
      report.Fail("bus flush failed for member " + std::to_string(i));
    }
  }
  std::vector<LoggedQuery> queries;
  for (const DbOp& op : run.ops) {
    if (!op.is_update) queries.push_back({0, op});
  }
  if (tracer != nullptr) LevelShares(stack, queries, report);
  Replay(stack, queries, /*passes=*/2, report, run.query_ns);
  Verify(stack, queries, report);
  return run;
}

Report RunSim(const RunOptions& options) {
  Report report;
  const Sizes& sizes = options.sizes;
  if (!options.trace) {
    std::vector<SimRun> runs;
    double sim_s = 0;
    while (static_cast<int>(runs.size()) < std::max(1, sizes.sim_min_runs) ||
           sim_s < options.seconds) {
      runs.push_back(RunSimOnce(options.seed, sizes, nullptr, report));
      sim_s += runs.back().sim_s;
      if (SimSignature(runs.back().result) != SimSignature(runs[0].result)) {
        report.Fail("simulation is not deterministic: " +
                    SimSignature(runs.back().result) + " vs " +
                    SimSignature(runs[0].result));
      }
      runs.back().ops.clear();
      runs.back().ops.shrink_to_fit();
    }
    std::vector<Window> windows;
    std::vector<uint32_t> query_ns;
    std::vector<double> setups;
    for (SimRun& run : runs) {
      windows.insert(windows.end(), run.windows.begin(), run.windows.end());
      query_ns.insert(query_ns.end(), run.query_ns.values().begin(),
                      run.query_ns.values().end());
      setups.push_back(run.setup_s);
    }
    // A set-up takes tens of milliseconds; more samples steady its median.
    while (static_cast<int>(setups.size()) < sizes.sim_setups) {
      const Clock::time_point start = Clock::now();
      BuildSimStack(options.seed, sizes, nullptr);
      setups.push_back(Seconds(start, Clock::now()) * HostSpeed());
    }
    const dssp::sim::SimResult& t = runs[0].result.tenants[0];
    auto& m = report.metrics;
    m["ops_per_s"] = RateAtReference(windows);
    m["query_p50_us"] = Us(query_ns, 0.50);
    m["query_p99_us"] = Us(query_ns, 0.99);
    m["hit_rate"] = t.cache_hit_rate;
    m["setup_s"] = Median(setups);
    m["peak_rss_mb"] = PeakRssMb();
    report.notes.push_back(std::to_string(runs.size()) + " simulations, " +
                           SimSignature(runs[0].result));
    report.notes.push_back(
        std::to_string(windows.size()) + " windows, as measured " +
        std::to_string(RawMedian(windows, &Window::ops_per_s)) +
        " ops/s at host speed " +
        std::to_string(RawMedian(windows, &Window::speed)));
    return report;
  }

  SimRun untraced = RunSimOnce(options.seed, sizes, nullptr, report);
  untraced.ops.clear();
  Tracer tracer(StoreEvery(Workload::kSimScaleout));
  SimRun traced = RunSimOnce(options.seed, sizes, &tracer, report);
  if (SimSignature(traced.result) != SimSignature(untraced.result) ||
      !(traced.delta == untraced.delta)) {
    report.Fail("traced simulation differs from untraced: " +
                SimSignature(traced.result) + " vs " +
                SimSignature(untraced.result));
  }
  const TraceSummary summary = Summarize(traced.spans, traced.totals);
  LayerMetrics(summary, /*cluster=*/true, traced.sim_s, traced.delta, report);
  auto& m = report.metrics;
  const double events = static_cast<double>(untraced.result.events_executed);
  m["cluster.fallback_ops"] =
      static_cast<double>(traced.result.fallback_ops);
  m["sim.events"] = events;
  m["sim.events_per_s"] = Ratio(events, untraced.sim_s);
  // The router seam holds the cluster's work; channel spans are the misses'
  // trips home, which run outside it.
  m["sim.stack_share"] = Ratio(
      static_cast<double>(
          summary.totals[static_cast<size_t>(SpanKind::kCacheLookup)]
              .total_ns +
          summary.totals[static_cast<size_t>(SpanKind::kCacheStore)]
              .total_ns +
          summary.totals[static_cast<size_t>(SpanKind::kCacheOnUpdate)]
              .total_ns +
          summary.totals[static_cast<size_t>(SpanKind::kChannelRoundTrip)]
              .total_ns) /
          1e9,
      traced.sim_s);
  // Virtual seconds: the simulator's page response time, which repeats
  // exactly for a seed.
  m["sim.page_p90_s"] = traced.result.tenants[0].p90_response_s;
  m["update_p50_us"] = 0;
  m["update_p99_us"] = 0;
  m["failed_op_ratio"] = Ratio(static_cast<double>(report.failed),
                               static_cast<double>(report.attempted));
  m["trace.overhead"] = Ratio(RateAtReference(untraced.windows),
                              RateAtReference(traced.windows));
  WriteSpansIfAsked(options, traced.spans, report);
  return report;
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : {Workload::kBrowseHot, Workload::kShopTenants,
                     Workload::kSimScaleout}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kBrowseHot: return "browse_hot";
    case Workload::kShopTenants: return "shop_tenants";
    case Workload::kSimScaleout: return "sim_scaleout";
  }
  return "?";
}

Report RunWorkload(const RunOptions& options) {
  return options.workload == Workload::kSimScaleout ? RunSim(options)
                                                    : RunRealStack(options);
}

std::vector<std::string> OpStream(Workload workload, uint64_t seed,
                                  const Sizes& sizes, int pages) {
  std::vector<std::string> lines;
  if (workload == Workload::kSimScaleout) {
    Report ignored;
    const SimRun run = RunSimOnce(seed, sizes, nullptr, ignored);
    for (const DbOp& op : run.ops) lines.push_back(FormatOp(0, op));
    return lines;
  }
  Samples ignored;
  auto stack = BuildRealStack(workload, seed, sizes, nullptr,
                              /*warm=*/false, ignored);
  for (int i = 0; i < pages; ++i) {
    size_t tenant = 0;
    const Page page = workload == Workload::kBrowseHot
                          ? stack->pool[static_cast<size_t>(i) %
                                        stack->pool.size()]
                          : NextShopPage(*stack, tenant);
    for (const DbOp& op : page) lines.push_back(FormatOp(tenant, op));
  }
  return lines;
}

}  // namespace perfbench
