// Cluster simulator tests: a 1-node cluster reproducing the single-node
// entry points' numbers exactly, golden numbers for a kill/rejoin run,
// tenants handed back to their own home pools, and the kill/rejoin scenario
// completing with zero failed client operations.

#include "sim/cluster_sim.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "common/random.h"
#include "crypto/keyring.h"
#include "dssp/app.h"
#include "dssp/node.h"
#include "sim/simulator.h"
#include "workloads/application.h"

namespace dssp::sim {
namespace {

struct System {
  std::unique_ptr<service::ScalableApp> app;
  std::unique_ptr<workloads::Application> workload;
  std::unique_ptr<SessionGenerator> generator;
};

System BuildBookstore(service::CacheBackend* backend) {
  System system;
  system.app = std::make_unique<service::ScalableApp>(
      "bookstore", backend, crypto::KeyRing::FromPassphrase("sim-test"));
  system.workload = workloads::MakeApplication("bookstore");
  EXPECT_TRUE(system.workload->Setup(*system.app, /*scale=*/0.2,
                                     /*seed=*/5)
                  .ok());
  EXPECT_TRUE(system.app->Finalize().ok());
  system.generator = system.workload->NewSession(/*seed=*/9);
  return system;
}

SimConfig TestConfig() {
  SimConfig config;
  config.duration_s = 40.0;
  config.think_time_mean_s = 1.0;
  config.dssp_workers = 2;
  config.seed = 31;
  return config;
}

TEST(ClusterSimTest, OneNodeClusterReproducesSingleNodeNumbers) {
  cluster::ClusterOptions options;
  options.num_nodes = 1;
  cluster::ClusterRouter router(options);
  System clustered = BuildBookstore(&router);

  service::DsspNode node;
  System single = BuildBookstore(&node);

  const SimConfig config = TestConfig();
  auto cluster_result = RunClusterSimulation(
      router, {Tenant{clustered.app.get(), clustered.generator.get(), 40}},
      config);
  ASSERT_TRUE(cluster_result.ok());
  auto single_result = RunMultiTenantSimulation(
      {Tenant{single.app.get(), single.generator.get(), 40}}, config);
  ASSERT_TRUE(single_result.ok());

  const SimResult& a = cluster_result->tenants[0];
  const SimResult& b = (*single_result)[0];
  EXPECT_EQ(a.pages_completed, b.pages_completed);
  EXPECT_EQ(a.db_ops, b.db_ops);
  EXPECT_EQ(a.cache_hit_rate, b.cache_hit_rate);
  EXPECT_EQ(a.entries_invalidated, b.entries_invalidated);
  EXPECT_EQ(a.home_queries, b.home_queries);
  EXPECT_EQ(a.home_updates, b.home_updates);
  EXPECT_DOUBLE_EQ(a.mean_response_s, b.mean_response_s);
  EXPECT_DOUBLE_EQ(a.p90_response_s, b.p90_response_s);
  EXPECT_EQ(a.failed_ops, 0u);

  // All ops were charged to the only member; none fell through unrouted
  // except home-only operations, which both paths treat identically.
  ASSERT_EQ(cluster_result->node_ops.size(), 1u);
  EXPECT_GT(cluster_result->node_ops[0], 0u);
  EXPECT_EQ(cluster_result->fallback_ops, 0u);
}

TEST(ClusterSimTest, KillAndRejoinCompletesWithZeroFailedOps) {
  cluster::ClusterOptions options;
  options.num_nodes = 4;
  options.replication = 2;
  cluster::ClusterRouter router(options);
  System system = BuildBookstore(&router);

  const SimConfig config = TestConfig();
  ClusterScenario scenario;
  scenario.kill_node = 1;
  scenario.kill_at_s = config.duration_s / 3.0;
  scenario.rejoin_at_s = 2.0 * config.duration_s / 3.0;

  auto result = RunClusterSimulation(
      router, {Tenant{system.app.get(), system.generator.get(), 60}}, config,
      scenario);
  ASSERT_TRUE(result.ok());

  EXPECT_TRUE(result->kill_fired);
  EXPECT_TRUE(result->rejoin_fired);
  EXPECT_EQ(result->tenants[0].failed_ops, 0u);
  EXPECT_GT(result->tenants[0].pages_completed, 0u);

  // The killed member went down and came back; the others kept serving.
  const auto counters = router.membership().counters(scenario.kill_node);
  EXPECT_EQ(counters.down_transitions, 1u);
  EXPECT_EQ(counters.rejoins, 1u);
  EXPECT_EQ(router.membership().health(scenario.kill_node),
            cluster::NodeHealth::kAlive);
  ASSERT_EQ(result->node_ops.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_GT(result->node_ops[i], 0u) << "node " << i;
  }
}

// ToString() plus the full-precision mean and percentiles and the cluster
// counters: any change to the loop's arithmetic or event order shows here.
std::string Fingerprint(const ClusterSimResult& result) {
  const SimResult& t = result.tenants[0];
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                " mean=%.17g p50=%.17g p90=%.17g p99=%.17g fallback=%llu "
                "unrouted=%llu events=%llu replayed=%llu node_ops=",
                t.mean_response_s, t.p50_response_s, t.p90_response_s,
                t.p99_response_s,
                static_cast<unsigned long long>(result.fallback_ops),
                static_cast<unsigned long long>(result.unrouted_ops),
                static_cast<unsigned long long>(result.events_executed),
                static_cast<unsigned long long>(result.rejoin_replayed));
  std::string out = t.ToString() + buf;
  for (size_t i = 0; i < result.node_ops.size(); ++i) {
    out += (i == 0 ? "" : ",") + std::to_string(result.node_ops[i]);
  }
  return out;
}

// Recorded from the sharded-executor implementation this loop replaced.
TEST(ClusterSimGolden, FourMembersWithKillAndRejoin) {
  cluster::ClusterOptions options;
  options.num_nodes = 4;
  options.replication = 2;
  cluster::ClusterRouter router(options);
  System system = BuildBookstore(&router);

  const SimConfig config = TestConfig();
  ClusterScenario scenario;
  scenario.kill_node = 1;
  scenario.kill_at_s = config.duration_s / 3.0;
  scenario.rejoin_at_s = 2.0 * config.duration_s / 3.0;
  auto result = RunClusterSimulation(
      router, {Tenant{system.app.get(), system.generator.get(), 60}}, config,
      scenario);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Fingerprint(*result),
            "clients=60 pages=1885 ops=3796 mean=0.285s p50=0.232s "
            "p90=0.684s p99=1.603s hit_rate=0.449 invalidated=1231 "
            "home_q=1863 home_u=416 mean=0.28481341668738824 "
            "p50=0.23173946499684794 p90=0.68391164728142928 "
            "p99=1.6032453906900417 fallback=51 unrouted=0 events=5684 "
            "replayed=131 node_ops=1037,655,1185,919");
}

// The run's home hosts die with it; each tenant must come back on the pool
// it had before, so querying it and reading Stats() afterwards is safe.
TEST(ClusterSimTest, TenantsReturnToTheirOwnPoolAfterTheRun) {
  cluster::ClusterOptions options;
  options.num_nodes = 2;
  cluster::ClusterRouter router(options);
  System clustered = BuildBookstore(&router);
  service::DsspNode node;
  System single = BuildBookstore(&node);

  SimConfig config = TestConfig();
  config.duration_s = 10.0;
  ASSERT_TRUE(RunClusterSimulation(
                  router,
                  {Tenant{clustered.app.get(), clustered.generator.get(), 10}},
                  config)
                  .ok());
  ASSERT_TRUE(RunMultiTenantSimulation(
                  {Tenant{single.app.get(), single.generator.get(), 10}},
                  config)
                  .ok());

  for (System* system : {&clustered, &single}) {
    backend::InMemoryBackend& home = system->app->home();
    EXPECT_EQ(home.host(), nullptr);
    // Fresh traffic after the run: the misses and updates lease from the
    // backend's own pool, which Stats() reads back.
    const uint64_t granted_before = home.Stats().pool.leases_granted;
    Rng rng(5);
    uint64_t home_ops = 0;
    for (int page = 0; page < 5; ++page) {
      for (const DbOp& op : system->generator->NextPage(rng)) {
        service::AccessStats stats;
        if (op.is_update) {
          EXPECT_TRUE(
              system->app->Update(op.template_id, op.params, &stats).ok());
        } else {
          EXPECT_TRUE(
              system->app->Query(op.template_id, op.params, &stats).ok());
        }
        if (!stats.cache_hit || stats.is_update) ++home_ops;
      }
    }
    EXPECT_GT(home_ops, 0u);
    EXPECT_EQ(home.Stats().pool.leases_granted, granted_before + home_ops);
  }
}

// Equality across every field two runs of the same workload must agree on.
void ExpectSameSimResult(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.pages_completed, b.pages_completed);
  EXPECT_EQ(a.db_ops, b.db_ops);
  EXPECT_EQ(a.cache_hit_rate, b.cache_hit_rate);
  EXPECT_EQ(a.entries_invalidated, b.entries_invalidated);
  EXPECT_EQ(a.home_queries, b.home_queries);
  EXPECT_EQ(a.home_updates, b.home_updates);
  EXPECT_EQ(a.failed_ops, b.failed_ops);
  EXPECT_DOUBLE_EQ(a.mean_response_s, b.mean_response_s);
  EXPECT_DOUBLE_EQ(a.p50_response_s, b.p50_response_s);
  EXPECT_DOUBLE_EQ(a.p90_response_s, b.p90_response_s);
  EXPECT_DOUBLE_EQ(a.p99_response_s, b.p99_response_s);
  EXPECT_DOUBLE_EQ(a.max_response_s, b.max_response_s);
}

TEST(ClusterSimTest, ExponentialArrivalsReproduceSingleNodeNumbers) {
  cluster::ClusterOptions options;
  options.num_nodes = 1;
  cluster::ClusterRouter router(options);
  System clustered = BuildBookstore(&router);

  service::DsspNode node;
  System single = BuildBookstore(&node);

  SimConfig config = TestConfig();
  config.exponential_arrivals = true;
  auto cluster_result = RunClusterSimulation(
      router, {Tenant{clustered.app.get(), clustered.generator.get(), 40}},
      config);
  ASSERT_TRUE(cluster_result.ok());
  auto single_result = RunMultiTenantSimulation(
      {Tenant{single.app.get(), single.generator.get(), 40}}, config);
  ASSERT_TRUE(single_result.ok());
  ExpectSameSimResult(cluster_result->tenants[0], (*single_result)[0]);
}

TEST(ClusterSimTest, BatchedBusReproducesUnbatchedResultsAtEqualLag) {
  auto run = [](size_t max_batch) {
    cluster::ClusterOptions options;
    options.num_nodes = 3;
    options.bus.bus_lag = 8;  // Equal staleness bound on both sides.
    options.bus.max_batch = max_batch;
    cluster::ClusterRouter router(options);
    System system = BuildBookstore(&router);
    SimConfig config = TestConfig();
    config.duration_s = 25.0;
    auto result = RunClusterSimulation(
        router, {Tenant{system.app.get(), system.generator.get(), 30}},
        config);
    EXPECT_TRUE(result.ok());
    const auto stats = router.bus().stats();
    EXPECT_GT(stats.batches_sent, 0u);
    if (max_batch > 1) {
      // Coalescing actually happened.
      EXPECT_LT(stats.batches_sent, stats.delivered_notices);
    } else {
      // One notice per frame.
      EXPECT_EQ(stats.batches_sent,
                stats.delivered_notices + stats.dropped_frames);
    }
    EXPECT_EQ(stats.dropped_frames, 0u);
    return *result;
  };

  const ClusterSimResult unbatched = run(1);
  const ClusterSimResult batched = run(32);
  // Identical invalidation sets and timing: max_batch only changes how
  // many notices share a frame, and bus_lag counts notices either way.
  ExpectSameSimResult(unbatched.tenants[0], batched.tenants[0]);
  EXPECT_EQ(unbatched.node_ops, batched.node_ops);
  EXPECT_EQ(unbatched.pages_measured, batched.pages_measured);
}

TEST(ClusterSimTest, ScenarioFiresAtExactVirtualTime) {
  cluster::ClusterOptions options;
  options.num_nodes = 4;
  options.replication = 2;
  cluster::ClusterRouter router(options);
  System system = BuildBookstore(&router);

  // A deliberately quiet tail: two clients with think times far longer than
  // the run leave the event queue empty around the scenario instants. A
  // lazy check (fire on the next popped client event) would apply the kill
  // late or never; first-class events fire exactly on time.
  SimConfig config = TestConfig();
  config.duration_s = 30.0;
  config.think_time_mean_s = 500.0;
  ClusterScenario scenario;
  scenario.kill_node = 2;
  scenario.kill_at_s = 11.03125;
  scenario.rejoin_at_s = 23.015625;

  auto result = RunClusterSimulation(
      router, {Tenant{system.app.get(), system.generator.get(), 2}}, config,
      scenario);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->kill_fired);
  EXPECT_TRUE(result->rejoin_fired);
  EXPECT_DOUBLE_EQ(result->kill_fired_at_s, scenario.kill_at_s);
  EXPECT_DOUBLE_EQ(result->rejoin_fired_at_s, scenario.rejoin_at_s);
  EXPECT_EQ(router.membership().health(2), cluster::NodeHealth::kAlive);
}

System BuildSystem(const char* name, service::CacheBackend* backend) {
  System system;
  system.app = std::make_unique<service::ScalableApp>(
      name, backend, crypto::KeyRing::FromPassphrase("sim-test"));
  system.workload = workloads::MakeApplication(name);
  EXPECT_TRUE(system.workload->Setup(*system.app, /*scale=*/0.2,
                                     /*seed=*/5)
                  .ok());
  EXPECT_TRUE(system.app->Finalize().ok());
  system.generator = system.workload->NewSession(/*seed=*/9);
  return system;
}

TEST(ClusterSimTopology, ExplicitDefaultsReproduceLegacyNumbersExactly) {
  auto run = [](const HomeTopology& topology) {
    cluster::ClusterOptions options;
    options.num_nodes = 2;
    cluster::ClusterRouter router(options);
    System system = BuildBookstore(&router);
    auto result = RunClusterSimulation(
        router, {Tenant{system.app.get(), system.generator.get(), 40}},
        TestConfig(), /*scenario=*/{}, topology);
    EXPECT_TRUE(result.ok());
    return *result;
  };

  // Spelling out the documented defaults (one host per tenant, pool sized
  // to config.home_workers, no lease overhead) must be bit-identical to
  // not passing a topology at all.
  HomeTopology spelled_out;
  spelled_out.num_hosts = 1;  // One tenant.
  spelled_out.pool_size = TestConfig().home_workers;
  const ClusterSimResult implicit = run(HomeTopology{});
  const ClusterSimResult explicit_run = run(spelled_out);
  ExpectSameSimResult(implicit.tenants[0], explicit_run.tenants[0]);
  EXPECT_EQ(implicit.node_ops, explicit_run.node_ops);
  EXPECT_EQ(implicit.host_ops, explicit_run.host_ops);
  EXPECT_EQ(implicit.pool_leases_queued, explicit_run.pool_leases_queued);
  EXPECT_DOUBLE_EQ(implicit.pool_wait_s_total, explicit_run.pool_wait_s_total);
}

TEST(ClusterSimTopology, SharedHostSaturationQueuesWithoutFailures) {
  cluster::ClusterOptions options;
  options.num_nodes = 2;
  cluster::ClusterRouter router(options);
  System bookstore = BuildSystem("bookstore", &router);
  System auction = BuildSystem("auction", &router);

  // Two tenants funneled onto ONE host with ONE connection, and home
  // queries slowed 10x: the shared pool must saturate. Saturation shows up
  // as queued leases and wait time — backpressure — never as failed ops.
  SimConfig config = TestConfig();
  config.home_query_base_s = 0.100;
  HomeTopology topology;
  topology.num_hosts = 1;
  topology.pool_size = 1;

  auto result = RunClusterSimulation(
      router,
      {Tenant{bookstore.app.get(), bookstore.generator.get(), 30},
       Tenant{auction.app.get(), auction.generator.get(), 30}},
      config, /*scenario=*/{}, topology);
  ASSERT_TRUE(result.ok());

  EXPECT_GT(result->pool_leases_queued, 0u);
  EXPECT_GT(result->pool_wait_s_total, 0.0);
  EXPECT_GT(result->pool_wait_s_max, 0.0);
  EXPECT_EQ(result->pool_lease_timeouts, 0u);  // No deadline configured.
  for (const SimResult& tenant : result->tenants) {
    EXPECT_EQ(tenant.failed_ops, 0u);
    EXPECT_GT(tenant.pages_completed, 0u);
  }

  // Every home op from both tenants lands on the single host's pool.
  ASSERT_EQ(result->host_ops.size(), 1u);
  uint64_t home_ops = 0;
  for (const SimResult& tenant : result->tenants) {
    home_ops += tenant.home_queries + tenant.home_updates;
  }
  EXPECT_EQ(result->host_ops[0], home_ops);
  EXPECT_GT(home_ops, 0u);

  // Each tenant prepared only its own templates, once, at registration;
  // the shared host's connections executed those programs.
  for (const System* system : {&bookstore, &auction}) {
    const backend::HomeBackendStats home = system->app->home().Stats();
    EXPECT_EQ(home.statements.misses, system->app->templates().num_queries());
    EXPECT_GT(home.statements.hits, 0u);
    EXPECT_EQ(home.statements.hits, home.program_queries);
  }
}

TEST(ClusterSimTopology, LeaseDeadlineCountsTimeoutsButServesEveryOp) {
  cluster::ClusterOptions options;
  options.num_nodes = 2;
  cluster::ClusterRouter router(options);
  System bookstore = BuildSystem("bookstore", &router);
  System auction = BuildSystem("auction", &router);

  SimConfig config = TestConfig();
  config.home_query_base_s = 0.100;
  HomeTopology topology;
  topology.num_hosts = 1;
  topology.pool_size = 1;
  topology.lease_deadline_s = 0.010;  // Far below the saturated wait.

  auto result = RunClusterSimulation(
      router,
      {Tenant{bookstore.app.get(), bookstore.generator.get(), 30},
       Tenant{auction.app.get(), auction.generator.get(), 30}},
      config, /*scenario=*/{}, topology);
  ASSERT_TRUE(result.ok());

  // Deadline overruns are counted for the operator, but the lease is still
  // granted in arrival order — slow, visible, and lossless.
  EXPECT_GT(result->pool_lease_timeouts, 0u);
  EXPECT_LE(result->pool_lease_timeouts, result->pool_leases_queued);
  for (const SimResult& tenant : result->tenants) {
    EXPECT_EQ(tenant.failed_ops, 0u);
  }
}

TEST(ClusterSimTopology, LeaseLatencySlowsHomeOpsDeterministically) {
  auto run = [](double lease_latency_s) {
    cluster::ClusterOptions options;
    options.num_nodes = 2;
    cluster::ClusterRouter router(options);
    System system = BuildBookstore(&router);
    HomeTopology topology;
    topology.lease_latency_s = lease_latency_s;
    auto result = RunClusterSimulation(
        router, {Tenant{system.app.get(), system.generator.get(), 40}},
        TestConfig(), /*scenario=*/{}, topology);
    EXPECT_TRUE(result.ok());
    return *result;
  };

  const ClusterSimResult fast = run(0.0);
  const ClusterSimResult slow = run(0.050);
  // 50 ms of per-lease checkout overhead on a WAN-bound workload: strictly
  // slower pages, same zero-loss accounting, and reproducibly so.
  EXPECT_GT(slow.tenants[0].mean_response_s, fast.tenants[0].mean_response_s);
  EXPECT_EQ(slow.tenants[0].failed_ops, 0u);
  const ClusterSimResult again = run(0.050);
  ExpectSameSimResult(slow.tenants[0], again.tenants[0]);
}

TEST(ClusterSimTest, ScenarioDefaultsAreInert) {
  cluster::ClusterOptions options;
  options.num_nodes = 2;
  cluster::ClusterRouter router(options);
  System system = BuildBookstore(&router);

  SimConfig config = TestConfig();
  config.duration_s = 20.0;
  auto result = RunClusterSimulation(
      router, {Tenant{system.app.get(), system.generator.get(), 20}}, config);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->kill_fired);
  EXPECT_FALSE(result->rejoin_fired);
  EXPECT_EQ(result->rejoin_replayed, 0u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(router.membership().health(i), cluster::NodeHealth::kAlive);
  }
}

}  // namespace
}  // namespace dssp::sim
