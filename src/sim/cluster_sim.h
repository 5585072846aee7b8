#ifndef DSSP_SIM_CLUSTER_SIM_H_
#define DSSP_SIM_CLUSTER_SIM_H_

#include <cstdint>
#include <vector>

#include "backend/host.h"
#include "cluster/router.h"
#include "common/status.h"
#include "sim/config.h"
#include "sim/simulator.h"

namespace dssp::sim {

// Shape of the home tier: how many physical backend hosts serve the N
// tenants, and how each host's connection pool is provisioned. Tenants are
// assigned to hosts round-robin (tenant t -> host t % num_hosts), and each
// host's pool is the simulated resource home work queues on — so home-server
// capacity (pool size, lease latency) is a first-class knob.
//
// The default (num_hosts = 0, pool_size = 0) gives every tenant a private
// host whose pool has config.home_workers connections and zero lease
// overhead — the topology RunSimulation and RunMultiTenantSimulation use.
struct HomeTopology {
  int num_hosts = 0;          // 0 = one host per tenant.
  int pool_size = 0;          // Connections per host; 0 = config.home_workers.
  double lease_latency_s = 0; // Per-lease checkout overhead (simulated).
  double lease_deadline_s = 0;  // Queued waits past this count as timeouts.
};

// Optional mid-run failover chaos: kill one member at a virtual instant and
// (optionally) rejoin it later. Negative times disable each step. Kill and
// rejoin are scheduled as first-class simulation events, so they fire at
// their exact virtual time even when the event queue is quiet.
struct ClusterScenario {
  double kill_at_s = -1;
  int kill_node = 0;
  double rejoin_at_s = -1;
  // A rejoin whose drain fails (e.g. injected bus faults) is retried this
  // much later, until it succeeds or the run ends.
  double rejoin_retry_s = 0.25;
};

// RunClusterSimulation outcome: the familiar per-tenant results plus
// cluster-level routing and failover accounting.
struct ClusterSimResult {
  std::vector<SimResult> tenants;

  // Pages completing inside the measured window (after warmup), all
  // tenants; the scale-out ablation's throughput metric.
  size_t pages_measured = 0;
  double measured_duration_s = 0;
  double throughput_pages_per_s = 0;

  // DB ops charged to each member's worker pool by the router's RouteInfo.
  std::vector<uint64_t> node_ops;
  uint64_t fallback_ops = 0;  // Served by a non-preferred replica.
  uint64_t unrouted_ops = 0;  // No servable owner: fell through to home.

  // Failover bookkeeping (meaningful when the scenario fired).
  bool kill_fired = false;
  bool rejoin_fired = false;
  uint64_t rejoin_replayed = 0;  // Invalidation notices drained at rejoin.
  double kill_fired_at_s = -1;    // Exact virtual kill instant.
  double rejoin_fired_at_s = -1;  // Exact virtual rejoin instant.

  // Events the loop handed to its handler, the stopping one included.
  uint64_t events_executed = 0;

  // Home-tier accounting (per HomeTopology). Backpressure proof: every op
  // completes — saturation shows up as queued leases and wait time, never as
  // failed client ops.
  std::vector<uint64_t> host_ops;   // Home ops charged to each host's pool.
  uint64_t pool_leases_queued = 0;  // Ops that waited for a free connection.
  uint64_t pool_lease_timeouts = 0;  // Waits past topology.lease_deadline_s.
  double pool_wait_s_total = 0;      // Simulated seconds spent queued.
  double pool_wait_s_max = 0;        // Worst single queued wait.
};

// The multi-tenant discrete-event simulation, re-pointed at a cluster: the
// single shared DSSP worker pool becomes one FIFO pool per member node, and
// each operation's service time is charged to the member that actually
// handled it (the router records the route thread-locally per operation).
// It is the same loop RunMultiTenantSimulation runs without a router — one
// (time, seq) event heap executed on the calling thread — so a 1-node
// cluster reproduces the single-node numbers bit for bit.
//
// Each tenant's home backend executes on the run's host pools and is put
// back on the host it had before the call on return.
//
// Every tenant's ScalableApp must already be constructed over `router` as
// its CacheBackend and finalized/populated.
StatusOr<ClusterSimResult> RunClusterSimulation(
    cluster::ClusterRouter& router, std::vector<Tenant> tenants,
    const SimConfig& config, const ClusterScenario& scenario = {},
    const HomeTopology& topology = {});

}  // namespace dssp::sim

#endif  // DSSP_SIM_CLUSTER_SIM_H_
