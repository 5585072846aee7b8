// Large-population failover demo: tens of thousands of closed-loop clients
// multiplexed over the simulator's event heap, with one cluster member
// killed mid-run and rejoined later — under a *batched* invalidation bus.
// While the member is down, the bus queues every notice it misses; the
// rejoin drains that backlog in coalesced multi-notice frames, so the
// catch-up costs a handful of wire round trips instead of one per missed
// update. Watch the bus's `frames` and `notices replayed` in the output.
//
//   ./million_clients_demo [clients]   (default 50000)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "cluster/router.h"
#include "crypto/keyring.h"
#include "dssp/app.h"
#include "sim/cluster_sim.h"
#include "workloads/application.h"

int main(int argc, char** argv) {
  const int clients = argc > 1 ? std::atoi(argv[1]) : 50000;
  DSSP_CHECK(clients > 0);

  dssp::cluster::ClusterOptions options;
  options.num_nodes = 4;
  options.replication = 2;
  options.bus.max_batch = 64;  // Coalesce fan-out and rejoin replay.

  std::printf(
      "Building a %d-node cluster (replication %zu, batch %zu) for %d "
      "clients...\n",
      options.num_nodes, options.replication, options.bus.max_batch,
      clients);
  dssp::cluster::ClusterRouter router(options);
  dssp::service::ScalableApp app(
      "bookstore", &router,
      dssp::crypto::KeyRing::FromPassphrase("million-demo"));
  auto workload = dssp::workloads::MakeApplication("bookstore");
  DSSP_CHECK_OK(workload->Setup(app, /*scale=*/0.25, /*seed=*/7));
  DSSP_CHECK_OK(app.Finalize());
  auto generator = workload->NewSession(11);

  dssp::sim::SimConfig config;
  config.duration_s = 12.0;
  config.warmup_s = 3.0;
  config.think_time_mean_s = 7.0;
  config.exponential_arrivals = true;
  config.dssp_workers = std::max(8, clients / 2000);
  config.dssp_lookup_s = 0.0002;
  config.home_workers = std::max(16, clients / 500);
  config.home_query_base_s = 0.0005;
  config.home_query_per_row_s = 0.0;
  config.home_update_base_s = 0.0005;
  config.seed = 3;

  // Kill one member a third of the way in; rejoin at two thirds. Both are
  // first-class events: they fire at exactly these virtual instants.
  dssp::sim::ClusterScenario scenario;
  scenario.kill_node = 1;
  scenario.kill_at_s = config.duration_s / 3.0;
  scenario.rejoin_at_s = 2.0 * config.duration_s / 3.0;

  std::printf(
      "Running %.0fs of traffic; killing node %d at t=%.1fs, rejoining at "
      "t=%.1fs...\n\n",
      config.duration_s, scenario.kill_node, scenario.kill_at_s,
      scenario.rejoin_at_s);

  auto result = dssp::sim::RunClusterSimulation(
      router, {dssp::sim::Tenant{&app, generator.get(), clients}}, config,
      scenario);
  DSSP_CHECK_OK(result.status());
  const dssp::sim::SimResult& tenant = result->tenants[0];

  std::printf("Run summary:\n  %s\n\n", tenant.ToString().c_str());
  std::printf("Events executed: %llu\n",
              static_cast<unsigned long long>(result->events_executed));
  std::printf("Failover:\n");
  std::printf("  kill fired at:     t=%.3fs\n", result->kill_fired_at_s);
  std::printf("  rejoin fired at:   t=%.3fs\n", result->rejoin_fired_at_s);
  std::printf("  notices replayed:  %llu\n",
              static_cast<unsigned long long>(result->rejoin_replayed));
  std::printf("  failed client ops: %llu\n\n",
              static_cast<unsigned long long>(tenant.failed_ops));

  const dssp::cluster::BusStats bus = router.bus().stats();
  std::printf(
      "Invalidation bus: %llu published, %llu delivered in %llu frames, "
      "%llu dropped, %llu unreachable\n",
      static_cast<unsigned long long>(bus.published),
      static_cast<unsigned long long>(bus.delivered_notices),
      static_cast<unsigned long long>(bus.batches_sent),
      static_cast<unsigned long long>(bus.dropped_frames),
      static_cast<unsigned long long>(bus.unreachable_failures));
  return 0;
}
