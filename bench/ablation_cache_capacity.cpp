// Ablation: a cost-effective DSSP caches data from many applications, so
// each tenant gets a bounded slice of memory. How does the per-application
// entry budget affect hit rate and responsiveness? Sweeps the LRU capacity
// of the bookstore's cache at a fixed user population under full exposure.

#include <cstdio>

#include "bench/bench_util.h"

int main() {
  dssp::sim::SimConfig config = dssp::bench::BenchSimConfig();
  const int users = 400;
  std::printf(
      "Ablation — per-tenant cache capacity (bookstore, %d users, MVIS, "
      "duration=%.0fs)\n\n",
      users, config.duration_s);
  std::printf("%10s %10s %10s %12s %12s\n", "capacity", "hit rate",
              "p90 (s)", "evictions", "final size");
  std::printf("%s\n", std::string(60, '-').c_str());

  for (size_t capacity : {size_t{50}, size_t{200}, size_t{1000},
                          size_t{5000}, size_t{0}}) {
    auto system = dssp::bench::BuildSystem("bookstore",
                                           dssp::bench::BenchScale(), 17);
    system->node.SetCacheCapacity("bookstore", capacity);
    auto generator = system->workload->NewSession(23);
    auto result =
        dssp::sim::RunSimulation(*system->app, *generator, users, config);
    DSSP_CHECK(result.ok());
    char cap_label[32];
    if (capacity == 0) {
      std::snprintf(cap_label, sizeof(cap_label), "unlimited");
    } else {
      std::snprintf(cap_label, sizeof(cap_label), "%zu", capacity);
    }
    std::printf("%10s %10.3f %10.3f %12llu %12zu\n", cap_label,
                result->cache_hit_rate, result->p90_response_s,
                static_cast<unsigned long long>(
                    system->node.GetCacheCounters("bookstore")
                        .total_evictions()),
                system->node.CacheSize("bookstore"));
  }

  std::printf(
      "\nInterpretation: the working set is modest — a few thousand entries "
      "capture\nnearly the unlimited-cache hit rate, so a shared DSSP can "
      "pack many tenants\nper node (the paper's cost-effectiveness "
      "premise).\n");
  return 0;
}
