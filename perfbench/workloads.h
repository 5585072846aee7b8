// The benchmark's three workloads. Each builds its stack from the seed, runs
// a closed loop, checks its answers against the home database, and fills a
// Report with the metrics of report.h.
//
//   browse_hot    bookstore browse pages (home, product detail, search, new
//                 products, best sellers) on a warmed, unbounded cache; one
//                 client thread. Exercises the hit path.
//   shop_tenants  auction, bboard and bookstore as three tenants of one
//                 DsspNode, full interaction mixes (about 10% updates),
//                 capped caches, hardened wire; one client thread
//                 round-robins pages over the tenants. Exercises misses,
//                 invalidation, eviction and the home engine.
//   sim_scaleout  bookstore on a 4-member ClusterRouter (replication 2,
//                 batched bus) driven by sim::RunClusterSimulation with
//                 Poisson arrivals; one member is killed and rejoined.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "report.h"

namespace perfbench {

enum class Workload { kBrowseHot, kShopTenants, kSimScaleout };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

// How big one run is. The defaults are the benchmark; tests shrink them.
struct Sizes {
  double scale = 4;  // Database scale passed to Application::Setup.
  int setups = 5;    // Untraced runs set up this often; setup_s is the median.
  int browse_pages = 20000;  // browse_hot page pool, all warmed before timing.
  int shop_warmup_pages = 3000;
  size_t shop_cache_capacity = 1500;  // Entries per tenant.
  double sim_scale = 2;  // sim_scaleout's database scale.
  int sim_clients = 20000;
  double sim_duration_s = 10;  // Virtual seconds per simulation.
  int sim_min_runs = 3;        // Untraced simulations per run, at least.
  int sim_setups = 61;         // sim_scaleout set-ups per run, at least.
  int checkpoint_ops = 2000;   // shop_tenants counter snapshot interval.
};

struct RunOptions {
  Workload workload = Workload::kBrowseHot;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  // Traced runs write their spans here if set.
  Sizes sizes;
};

Report RunWorkload(const RunOptions& options);

// The client operation stream of a workload, one line per operation
// ("<tenant> <Q|U> <template> <params...>"): the first `pages` pages a run
// with `seed` issues, or for sim_scaleout the operations of one simulation.
std::vector<std::string> OpStream(Workload workload, uint64_t seed,
                                  const Sizes& sizes, int pages);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
