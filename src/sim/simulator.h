#ifndef DSSP_SIM_SIMULATOR_H_
#define DSSP_SIM_SIMULATOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "dssp/app.h"
#include "sim/config.h"
#include "sim/workload.h"

namespace dssp::sim {

// Aggregate outcome of one simulated run.
struct SimResult {
  int num_clients = 0;
  size_t pages_completed = 0;
  size_t db_ops = 0;
  double mean_response_s = 0;
  double p50_response_s = 0;
  double p90_response_s = 0;
  double p99_response_s = 0;
  double max_response_s = 0;
  double cache_hit_rate = 0;
  uint64_t entries_invalidated = 0;
  uint64_t home_queries = 0;
  uint64_t home_updates = 0;

  // Wire-path outcomes (all zero when the tenant runs the perfect direct
  // wire). Failed ops exhausted the retry budget and returned no result;
  // stale serves answered from the bounded-staleness store instead.
  uint64_t wire_retries = 0;
  uint64_t wire_timeouts = 0;
  uint64_t stale_serves = 0;
  uint64_t failed_ops = 0;

  bool MeetsSlo(const SimConfig& config) const {
    return p90_response_s <= config.response_time_limit_s;
  }

  std::string ToString() const;
};

// One application sharing the simulated DSSP node: its (finalized,
// populated) service stack, its page generator, and its client population.
// Each tenant gets its own simulated home server; all tenants share the
// DSSP node's worker pool (the paper's Figure 1 topology: one provider,
// many home servers).
struct Tenant {
  service::ScalableApp* app = nullptr;
  SessionGenerator* generator = nullptr;
  int num_clients = 0;
};

// Runs `num_clients` simulated users against `app` (already finalized and
// populated) for `config.duration_s` virtual seconds, starting from a cold
// DSSP cache. Each client alternates page requests (whose DB operations
// come from `generator`) with exponential think times.
//
// Database operations execute atomically at their virtual service instant;
// network latency, bandwidth, and FIFO queueing at the home server and the
// DSSP node are then charged to the page's response time. This serializes
// the system (the race-handling of a real deployment's non-transactional
// invalidation protocol is not modeled), which is the standard fidelity
// level for cache-scalability studies.
StatusOr<SimResult> RunSimulation(service::ScalableApp& app,
                                  SessionGenerator& generator,
                                  int num_clients, const SimConfig& config);

// Multi-tenant variant: all tenants' clients share the DSSP node (and its
// worker pool); each tenant's misses and updates queue at its own home
// server. Returns one SimResult per tenant, in input order. Both entry
// points run RunClusterSimulation's loop with no router.
StatusOr<std::vector<SimResult>> RunMultiTenantSimulation(
    std::vector<Tenant> tenants, const SimConfig& config);

}  // namespace dssp::sim

#endif  // DSSP_SIM_SIMULATOR_H_
