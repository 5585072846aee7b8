#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "crypto/keyring.h"
#include "sim/search.h"
#include "sim/simulator.h"
#include "workloads/application.h"

namespace dssp::sim {
namespace {

// ----- Simulator on the real toystore app -----

struct SimHarness {
  SimHarness() : app("toystore", &node, crypto::KeyRing::FromPassphrase("k")) {
    workload = workloads::MakeApplication("toystore");
    DSSP_CHECK_OK(workload->Setup(app, 1.0, 3));
    DSSP_CHECK_OK(app.Finalize());
    generator = workload->NewSession(1);
  }

  service::DsspNode node;
  service::ScalableApp app;
  std::unique_ptr<workloads::Application> workload;
  std::unique_ptr<SessionGenerator> generator;
};

SimConfig FastConfig() {
  SimConfig config;
  config.duration_s = 60.0;
  return config;
}

TEST(SimulatorTest, ProducesPlausibleMetrics) {
  SimHarness h;
  auto result = RunSimulation(h.app, *h.generator, 20, FastConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_clients, 20);
  EXPECT_GT(result->pages_completed, 50u);
  EXPECT_GT(result->db_ops, result->pages_completed / 2);
  EXPECT_GT(result->mean_response_s, 0.0);
  EXPECT_GE(result->p90_response_s, result->mean_response_s * 0.5);
  EXPECT_GE(result->max_response_s, result->p90_response_s);
  EXPECT_GT(result->cache_hit_rate, 0.0);
  EXPECT_LT(result->cache_hit_rate, 1.0);
  EXPECT_FALSE(result->ToString().empty());
}

TEST(SimulatorTest, DeterministicForFixedSeed) {
  SimHarness h1;
  SimHarness h2;
  const SimConfig config = FastConfig();
  auto r1 = RunSimulation(h1.app, *h1.generator, 15, config);
  auto r2 = RunSimulation(h2.app, *h2.generator, 15, config);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->pages_completed, r2->pages_completed);
  EXPECT_EQ(r1->db_ops, r2->db_ops);
  EXPECT_DOUBLE_EQ(r1->p90_response_s, r2->p90_response_s);
  EXPECT_DOUBLE_EQ(r1->cache_hit_rate, r2->cache_hit_rate);
}

TEST(SimulatorTest, MoreClientsMoreWork) {
  SimHarness h1;
  SimHarness h2;
  const SimConfig config = FastConfig();
  auto small = RunSimulation(h1.app, *h1.generator, 5, config);
  auto large = RunSimulation(h2.app, *h2.generator, 50, config);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large->pages_completed, small->pages_completed * 3);
}

TEST(SimulatorTest, SaturationRaisesResponseTimes) {
  SimHarness h1;
  SimHarness h2;
  SimConfig config = FastConfig();
  // Make the home server very slow so saturation appears at low user
  // counts even with warm caches.
  config.home_query_base_s = 0.2;
  config.home_update_base_s = 0.2;
  config.home_workers = 1;
  auto light = RunSimulation(h1.app, *h1.generator, 3, config);
  auto heavy = RunSimulation(h2.app, *h2.generator, 300, config);
  ASSERT_TRUE(light.ok());
  ASSERT_TRUE(heavy.ok());
  EXPECT_GT(heavy->p90_response_s, light->p90_response_s * 2);
}

// ----- Golden numbers -----
//
// Recorded from the dedicated single-node loop that RunSimulation and
// RunMultiTenantSimulation ran before they became wrappers over the
// cluster loop. ToString() rounds to milliseconds, so the mean and the
// percentiles are pinned again at full precision.

std::string Fingerprint(const SimResult& r) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                " mean=%.17g p50=%.17g p90=%.17g p99=%.17g", r.mean_response_s,
                r.p50_response_s, r.p90_response_s, r.p99_response_s);
  return r.ToString() + buf;
}

TEST(SimulatorGolden, UniformStaggerArrivals) {
  SimHarness h;
  auto result = RunSimulation(h.app, *h.generator, 20, FastConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Fingerprint(*result),
            "clients=20 pages=174 ops=252 mean=0.276s p50=0.221s "
            "p90=0.442s p99=0.442s hit_rate=0.171 invalidated=12 "
            "home_q=174 home_u=42 mean=0.27642021556847285 "
            "p50=0.22130947096056364 p90=0.44157044735331202 "
            "p99=0.44157044735331202");
}

TEST(SimulatorGolden, ExponentialArrivals) {
  SimHarness h;
  SimConfig config = FastConfig();
  config.exponential_arrivals = true;
  auto result = RunSimulation(h.app, *h.generator, 20, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Fingerprint(*result),
            "clients=20 pages=178 ops=266 mean=0.279s p50=0.221s "
            "p90=0.442s p99=0.452s hit_rate=0.189 invalidated=12 "
            "home_q=185 home_u=38 mean=0.27934044409098824 "
            "p50=0.22130947096056364 p90=0.44157044735331202 "
            "p99=0.4518559443749226");
}

TEST(SimulatorGolden, TwoTenantsShareOneNode) {
  SimHarness h;
  service::ScalableApp bookstore("bookstore", &h.node,
                                 crypto::KeyRing::FromPassphrase("b"));
  auto workload = workloads::MakeApplication("bookstore");
  ASSERT_TRUE(workload->Setup(bookstore, /*scale=*/0.2, /*seed=*/5).ok());
  ASSERT_TRUE(bookstore.Finalize().ok());
  auto generator = workload->NewSession(/*seed=*/9);

  SimConfig config = FastConfig();
  config.dssp_workers = 1;  // One shared CPU: the tenants contend for it.
  auto results = RunMultiTenantSimulation(
      {Tenant{&h.app, h.generator.get(), 15},
       Tenant{&bookstore, generator.get(), 25}},
      config);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);
  EXPECT_EQ(Fingerprint((*results)[0]),
            "clients=15 pages=133 ops=200 mean=0.298s p50=0.221s "
            "p90=0.442s p99=0.452s hit_rate=0.127 invalidated=3 "
            "home_q=151 home_u=27 mean=0.29762153152914755 "
            "p50=0.22130947096056364 p90=0.44157044735331202 "
            "p99=0.4518559443749226");
  EXPECT_EQ(Fingerprint((*results)[1]),
            "clients=25 pages=196 ops=379 mean=0.361s p50=0.232s "
            "p90=0.653s p99=1.558s hit_rate=0.189 invalidated=27 "
            "home_q=270 home_u=46 mean=0.36148822148570264 "
            "p50=0.23173946499684794 p90=0.65313055264747288 "
            "p99=1.5579048678591718");
}

TEST(SimulatorTest, SloPredicate) {
  SimConfig config;
  SimResult result;
  result.p90_response_s = 1.9;
  EXPECT_TRUE(result.MeetsSlo(config));
  result.p90_response_s = 2.1;
  EXPECT_FALSE(result.MeetsSlo(config));
}

// ----- Scalability search (with a synthetic probe). -----

TEST(SearchTest, FindsThresholdOfSyntheticSystem) {
  // Synthetic system: meets the SLO iff users <= 730.
  const SimConfig config;
  const ProbeFn probe = [&](int users) -> StatusOr<SimResult> {
    SimResult r;
    r.num_clients = users;
    r.p90_response_s = users <= 730 ? 1.0 : 3.0;
    return r;
  };
  auto result = FindMaxUsers(probe, config, 10, 20000, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->max_users, 720);
  EXPECT_LE(result->max_users, 730);
  EXPECT_FALSE(result->probes.empty());
}

TEST(SearchTest, AllPassingReturnsLastRampPoint) {
  const SimConfig config;
  const ProbeFn probe = [&](int users) -> StatusOr<SimResult> {
    SimResult r;
    r.num_clients = users;
    r.p90_response_s = 0.5;
    return r;
  };
  auto result = FindMaxUsers(probe, config, 10, 1000, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->max_users, 640);  // Last doubling <= 1000.
}

TEST(SearchTest, SurvivesColdCacheFailuresAtLowUserCounts) {
  // Cold-cache-bound systems can fail at low user counts and pass at
  // higher ones; the ramp must keep going past early failures.
  const SimConfig config;
  const ProbeFn probe = [&](int users) -> StatusOr<SimResult> {
    SimResult r;
    r.num_clients = users;
    r.p90_response_s = (users >= 50 && users <= 730) ? 1.0 : 3.0;
    return r;
  };
  auto result = FindMaxUsers(probe, config, 10, 20000, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->max_users, 720);
  EXPECT_LE(result->max_users, 730);
}

TEST(SearchTest, NothingPassingReturnsZero) {
  const SimConfig config;
  const ProbeFn probe = [&](int users) -> StatusOr<SimResult> {
    SimResult r;
    r.num_clients = users;
    r.p90_response_s = 10.0;
    return r;
  };
  auto result = FindMaxUsers(probe, config, 10, 1000, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->max_users, 0);
}

TEST(SearchTest, ProbeErrorsPropagate) {
  const SimConfig config;
  const ProbeFn probe = [&](int) -> StatusOr<SimResult> {
    return InvalidArgumentError("boom");
  };
  auto result = FindMaxUsers(probe, config);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace dssp::sim
