// The benchmark's metric catalog and its one-line JSON result.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Printed by every untraced run, on every workload. BENCHMARK.json lists the
// same names and units (checked by perfbench_test).
inline constexpr MetricSpec kEndToEnd[] = {
    {"ops_per_s", "1/s"},
    {"query_p50_us", "us"},
    {"query_p99_us", "us"},
    {"hit_rate", "ratio"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Printed by every traced run, on every workload; a layer that a workload
// does not reach reads 0.
inline constexpr MetricSpec kPerLayer[] = {
    {"app.hit_self_us", "us"},
    {"app.miss_self_us", "us"},
    {"app.update_self_us", "us"},
    {"app.busy_share", "ratio"},
    {"app.level_share.view", "ratio"},
    {"app.level_share.stmt", "ratio"},
    {"app.level_share.template", "ratio"},
    {"app.level_share.blind", "ratio"},
    {"node.lookup_us", "us"},
    {"node.store_us", "us"},
    {"node.on_update_us", "us"},
    {"node.busy_share", "ratio"},
    {"node.insert_evictions", "count"},
    {"node.invalidated_per_update", "count"},
    {"channel.dispatch_us", "us"},
    {"channel.busy_share", "ratio"},
    {"backend.query_us", "us"},
    {"backend.update_us", "us"},
    {"backend.busy_share", "ratio"},
    {"backend.program_query_ratio", "ratio"},
    {"backend.stmt_cache_hit_rate", "ratio"},
    {"cluster.lookup_us", "us"},
    {"cluster.on_update_us", "us"},
    {"cluster.fallback_ops", "count"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.stack_share", "ratio"},
    {"sim.page_p90_s", "s"},
    {"update_p50_us", "us"},
    {"update_p99_us", "us"},
    {"failed_op_ratio", "ratio"},
    {"trace.overhead", "ratio"},
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  // Notes for the log (standard error), never part of the result line.
  std::vector<std::string> notes;

  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("FAILED CHECK: " + why);
  }
};

// The catalog a run prints: end-to-end when untraced, per-layer when traced.
std::span<const MetricSpec> CatalogFor(bool trace);

// Renders the result line. Every metric of the catalog must be present in
// `report.metrics`; a missing one is a benchmark bug and aborts.
std::string RenderJson(const Report& report, bool trace);

// Nearest-rank percentile (q in (0, 1]) of `samples`, reordering them.
// 0 when empty.
double Percentile(std::vector<uint32_t>& samples, double q);
double Median(std::vector<double> values);

// Peak resident set size of this process, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
