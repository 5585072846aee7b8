// Million-client event-driven simulation + invalidation-batching ablation.
//
// Part 1 — client scale. The simulator multiplexes the closed-loop client
// population over one (time, seq) event heap on the calling thread, so its
// footprint is one SimEvent per in-flight client instead of one thread per
// client. This run drives the default 10^6 bookstore clients against a
// 4-node cluster and fails (DSSP_CHECK) unless the run completes with the
// p90 actually evaluated over measured pages. The CI release lane
// smoke-runs it at --clients 10000.
//
// Part 2 — bus batching. A standalone InvalidationBus fan-out under an
// update storm, measured against a wire whose dominant cost is per-FRAME
// (seal/unseal, retry bookkeeping, one WAN round trip) with a small
// per-notice tail. At an equal staleness bound (bus_lag, which counts
// notices under both framings), the batched bus coalesces each drain into
// ceil(lag/max_batch) frames where the unbatched bus pays one frame per
// notice. The gate: batched sustained update rate must be >= 10x the
// unbatched rate at equal bus_lag, or the process exits non-zero.
//
// Flags:
//   --clients N   closed-loop client count for part 1 (default 1000000)
//   --json <path> write both parts as machine-readable JSON

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/bus.h"
#include "cluster/router.h"
#include "dssp/node.h"
#include "sim/cluster_sim.h"

namespace {

using dssp::cluster::BusOptions;
using dssp::cluster::ClusterOptions;
using dssp::cluster::ClusterRouter;
using dssp::cluster::InvalidationBus;
using dssp::cluster::NodeChannel;

constexpr const char* kApp = "bookstore";

double WallSeconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ----- Part 1: the million-client run. -----

struct ScaleOutcome {
  dssp::sim::ClusterSimResult result;
  int clients = 0;
  double wall_s = 0;
};

ScaleOutcome RunClientScale(int clients) {
  ClusterOptions options;
  options.num_nodes = 4;
  options.replication = 2;
  auto router = std::make_unique<ClusterRouter>(options);
  auto app = std::make_unique<dssp::service::ScalableApp>(
      kApp, router.get(),
      dssp::crypto::KeyRing::FromPassphrase("bench-million"));
  auto workload = dssp::workloads::MakeApplication(kApp);
  DSSP_CHECK_OK(workload->Setup(*app, /*scale=*/0.25, /*seed=*/0xC11E));
  DSSP_CHECK_OK(app->Finalize());
  auto generator = workload->NewSession(23);

  // A short virtual window: the point is population size, not run length.
  // Poisson arrivals spread the whole population over ~one think time, so
  // every client has fired by mid-run; capacity scales with the population
  // so the queues model contention without melting down.
  dssp::sim::SimConfig config;
  config.duration_s = 10.0;
  config.warmup_s = 3.0;
  config.think_time_mean_s = 7.0;
  config.exponential_arrivals = true;
  config.dssp_workers = std::max(8, clients / 2000);
  config.dssp_lookup_s = 0.0002;
  config.home_workers = std::max(16, clients / 500);
  config.home_query_base_s = 0.0005;
  config.home_query_per_row_s = 0.0;
  config.home_update_base_s = 0.0005;
  config.seed = 97;

  const auto start = std::chrono::steady_clock::now();
  auto result = dssp::sim::RunClusterSimulation(
      *router,
      {dssp::sim::Tenant{app.get(), generator.get(), clients}}, config);
  DSSP_CHECK(result.ok());

  ScaleOutcome outcome;
  outcome.result = std::move(*result);
  outcome.clients = clients;
  outcome.wall_s = WallSeconds(start);

  // The acceptance gate: the run finished and the p90 was evaluated over
  // real measured pages (an empty measurement window would report 0.0 and
  // "pass" any latency bar vacuously).
  DSSP_CHECK(outcome.result.pages_measured > 0);
  DSSP_CHECK(outcome.result.tenants[0].p90_response_s > 0.0);
  return outcome;
}

// ----- Part 2: batched vs unbatched fan-out under an update storm. -----

// Wire decorator with the ablation's cost model: every frame pays a fixed
// per-call price (seal/unseal, retry bookkeeping, one WAN round trip) plus
// a small per-notice tail for the bytes themselves. Deterministic, so the
// measured rates are exact, not sampled.
class MeteredChannel : public dssp::service::Channel {
 public:
  static constexpr double kPerCallS = 0.010;     // One WAN round trip.
  static constexpr double kPerNoticeS = 0.0001;  // Serialized bytes.

  explicit MeteredChannel(dssp::service::Channel* inner) : inner_(inner) {}

  dssp::service::ChannelOutcome RoundTrip(std::string_view frame) override {
    ++calls_;
    return inner_->RoundTrip(frame);
  }

  uint64_t calls() const { return calls_; }
  double SimulatedSeconds(uint64_t notices) const {
    return static_cast<double>(calls_) * kPerCallS +
           static_cast<double>(notices) * kPerNoticeS;
  }

 private:
  dssp::service::Channel* inner_;
  uint64_t calls_ = 0;
};

struct StormOutcome {
  uint64_t notices = 0;
  uint64_t wire_calls = 0;
  uint64_t batches_sent = 0;
  double simulated_s = 0;
  double rate_per_s = 0;
  double wall_s = 0;
};

StormOutcome RunUpdateStorm(size_t max_batch, size_t bus_lag,
                            uint64_t notices, int members) {
  BusOptions options;
  options.bus_lag = bus_lag;
  options.max_batch = max_batch;
  InvalidationBus bus(options);

  std::vector<std::unique_ptr<dssp::service::DsspNode>> nodes;
  std::vector<std::unique_ptr<NodeChannel>> endpoints;
  std::vector<std::unique_ptr<MeteredChannel>> wires;
  for (int i = 0; i < members; ++i) {
    nodes.push_back(std::make_unique<dssp::service::DsspNode>());
    endpoints.push_back(std::make_unique<NodeChannel>(*nodes.back()));
    wires.push_back(std::make_unique<MeteredChannel>(endpoints.back().get()));
    bus.AddMember(i, wires.back().get());
  }

  // The storm: back-to-back exposure-gated notices, the bus draining each
  // member whenever its backlog exceeds the (equal) staleness bound.
  dssp::service::UpdateNotice notice;  // Blind: the cheapest legal notice.
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < notices; ++i) bus.Publish(kApp, notice);
  for (int i = 0; i < members; ++i) DSSP_CHECK(bus.Flush(i).ok());

  StormOutcome outcome;
  outcome.wall_s = WallSeconds(start);
  const dssp::cluster::BusStats stats = bus.stats();
  DSSP_CHECK(stats.delivered_notices ==
             notices * static_cast<uint64_t>(members));
  DSSP_CHECK(stats.dropped_frames == 0 && stats.unreachable_failures == 0);
  outcome.notices = stats.delivered_notices;
  outcome.batches_sent = stats.batches_sent;
  for (const auto& wire : wires) outcome.wire_calls += wire->calls();
  for (const auto& wire : wires) {
    outcome.simulated_s += wire->SimulatedSeconds(notices);
  }
  outcome.rate_per_s =
      static_cast<double>(outcome.notices) / outcome.simulated_s;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const char* clients_flag = dssp::bench::FlagValue(argc, argv, "--clients");
  const char* json_path = dssp::bench::FlagValue(argc, argv, "--json");
  const int clients = clients_flag != nullptr ? std::atoi(clients_flag)
                                              : 1000000;
  DSSP_CHECK(clients > 0);

  // ----- Part 1. -----
  std::printf("Million-client run — %s, %d clients, 4 nodes, %.0fs virtual\n",
              kApp, clients, 10.0);
  const ScaleOutcome scale = RunClientScale(clients);
  const dssp::sim::SimResult& tenant = scale.result.tenants[0];
  const double events_per_s =
      scale.wall_s > 0
          ? static_cast<double>(scale.result.events_executed) / scale.wall_s
          : 0.0;
  std::printf(
      "  completed in %.1fs wall: %llu events (%.0f events/s wall)\n",
      scale.wall_s,
      static_cast<unsigned long long>(scale.result.events_executed),
      events_per_s);
  std::printf(
      "  pages measured=%zu throughput=%.1f pages/s p90=%.3fs "
      "hit_rate=%.3f failed=%llu\n\n",
      scale.result.pages_measured, scale.result.throughput_pages_per_s,
      tenant.p90_response_s, tenant.cache_hit_rate,
      static_cast<unsigned long long>(tenant.failed_ops));

  // ----- Part 2. -----
  constexpr size_t kLag = 64;
  constexpr uint64_t kNotices = 4096;
  constexpr int kMembers = 4;
  std::printf(
      "Batching ablation — %llu notices x %d members, bus_lag=%zu "
      "(equal both modes)\n",
      static_cast<unsigned long long>(kNotices), kMembers, kLag);
  const StormOutcome unbatched = RunUpdateStorm(/*max_batch=*/1, kLag,
                                                kNotices, kMembers);
  const StormOutcome batched = RunUpdateStorm(/*max_batch=*/kLag, kLag,
                                              kNotices, kMembers);
  const double speedup = batched.rate_per_s / unbatched.rate_per_s;
  std::printf("  %-10s %12s %12s %14s %14s\n", "mode", "frames", "batches",
              "sim wire (s)", "updates/s");
  std::printf("  %-10s %12llu %12llu %14.3f %14.0f\n", "unbatched",
              static_cast<unsigned long long>(unbatched.wire_calls),
              static_cast<unsigned long long>(unbatched.batches_sent),
              unbatched.simulated_s, unbatched.rate_per_s);
  std::printf("  %-10s %12llu %12llu %14.3f %14.0f\n", "batched",
              static_cast<unsigned long long>(batched.wire_calls),
              static_cast<unsigned long long>(batched.batches_sent),
              batched.simulated_s, batched.rate_per_s);
  std::printf(
      "  batching speedup: %.1fx sustained update rate "
      "(wall: %.3fs vs %.3fs)\n",
      speedup, unbatched.wall_s, batched.wall_s);

  // The acceptance gate: at an equal staleness bound, coalescing must buy
  // at least an order of magnitude of sustained update rate.
  DSSP_CHECK(speedup >= 10.0);

  if (json_path != nullptr) {
    dssp::bench::JsonObject doc;
    doc.Set("experiment", "million_clients");
    doc.Set("clients", scale.clients);
    doc.Set("nodes", 4);
    doc.Set("wall_s", scale.wall_s);
    doc.Set("events_executed", scale.result.events_executed);
    doc.Set("events_per_s_wall", events_per_s);
    doc.Set("pages_measured",
            static_cast<uint64_t>(scale.result.pages_measured));
    doc.Set("throughput_pages_per_s", scale.result.throughput_pages_per_s);
    doc.Set("p90_s", tenant.p90_response_s);
    doc.Set("hit_rate", tenant.cache_hit_rate);
    doc.Set("failed_ops", tenant.failed_ops);
    dssp::bench::JsonObject storm;
    storm.Set("bus_lag", static_cast<uint64_t>(kLag));
    storm.Set("notices", kNotices * static_cast<uint64_t>(kMembers));
    storm.Set("unbatched_frames", unbatched.wire_calls);
    storm.Set("batched_frames", batched.wire_calls);
    storm.Set("batches_sent", batched.batches_sent);
    storm.Set("unbatched_updates_per_s", unbatched.rate_per_s);
    storm.Set("batched_updates_per_s", batched.rate_per_s);
    storm.Set("batching_speedup", speedup);
    doc.SetRaw("batching", storm.ToString());
    dssp::bench::WriteJsonFile(json_path, doc);
  }
  return 0;
}
