#include "sim/simulator.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "common/queueing.h"
#include "common/random.h"
#include "sim/cluster_sim.h"
#include "sim/event_queue.h"
#include "sim/histogram.h"

namespace dssp::sim {

std::string SimResult::ToString() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "clients=%d pages=%zu ops=%zu mean=%.3fs p50=%.3fs "
                "p90=%.3fs p99=%.3fs hit_rate=%.3f invalidated=%llu "
                "home_q=%llu home_u=%llu",
                num_clients, pages_completed, db_ops, mean_response_s,
                p50_response_s, p90_response_s, p99_response_s,
                cache_hit_rate,
                static_cast<unsigned long long>(entries_invalidated),
                static_cast<unsigned long long>(home_queries),
                static_cast<unsigned long long>(home_updates));
  return buf;
}

namespace {

struct ClientState {
  size_t tenant = 0;
  bool in_page = false;
  double page_start = 0;
  std::vector<DbOp> ops;
  size_t op_index = 0;
};

struct TenantState {
  Tenant spec;
  size_t host = 0;  // Index into the home-tier host array.
  LatencyHistogram response_times;
  SimResult result;
  uint64_t hits = 0;
  uint64_t lookups = 0;

  explicit TenantState(const Tenant& tenant) : spec(tenant) {
    result.num_clients = tenant.num_clients;
  }
};

// Puts every tenant's home backend back on the host it had before the run.
// The run's hosts die with it; a backend left attached to one would read a
// freed pool on its next query or Stats().
class HostRestorer {
 public:
  HostRestorer() = default;
  HostRestorer(const HostRestorer&) = delete;
  HostRestorer& operator=(const HostRestorer&) = delete;
  ~HostRestorer() {
    // Reverse order: a backend listed twice ends on its original host.
    for (auto it = saved_.rbegin(); it != saved_.rend(); ++it) {
      it->first->AttachHost(it->second);
    }
  }

  void Save(backend::InMemoryBackend* tenant) {
    saved_.emplace_back(tenant, tenant->host());
  }

 private:
  std::vector<std::pair<backend::InMemoryBackend*, backend::BackendHost*>>
      saved_;
};

// The one simulation loop. `router` is null for the single-node entry
// points: every op is then charged to member 0 and no route is read.
StatusOr<ClusterSimResult> Simulate(cluster::ClusterRouter* router,
                                    const std::vector<Tenant>& tenants,
                                    const SimConfig& config,
                                    const ClusterScenario& scenario,
                                    const HomeTopology& topology) {
  DSSP_CHECK(!tenants.empty());
  DSSP_CHECK(topology.num_hosts >= 0 && topology.pool_size >= 0);
  const int num_nodes = router != nullptr ? router->num_nodes() : 1;
  if (scenario.kill_at_s >= 0) {
    DSSP_CHECK(scenario.kill_node >= 0 && scenario.kill_node < num_nodes);
    DSSP_CHECK(scenario.rejoin_retry_s > 0);
  }
  Rng rng(config.seed);

  // One FIFO worker pool per member node — the scale-out resource.
  std::vector<QueueingResource> node_cpus;
  node_cpus.reserve(num_nodes);
  for (int i = 0; i < num_nodes; ++i) {
    node_cpus.emplace_back(config.dssp_workers);
  }

  ClusterSimResult cluster_result;
  cluster_result.node_ops.assign(static_cast<size_t>(num_nodes), 0);

  // The home tier: M backend hosts, each a bounded connection pool shared by
  // its assigned tenants (round-robin). The defaults give every tenant a
  // private host with config.home_workers connections.
  const size_t num_hosts = topology.num_hosts > 0
                               ? static_cast<size_t>(topology.num_hosts)
                               : tenants.size();
  backend::PoolOptions pool_options;
  pool_options.size =
      topology.pool_size > 0 ? topology.pool_size : config.home_workers;
  pool_options.lease_latency_s = topology.lease_latency_s;
  pool_options.lease_deadline_s = topology.lease_deadline_s;
  std::vector<std::unique_ptr<backend::BackendHost>> hosts;
  hosts.reserve(num_hosts);
  for (size_t h = 0; h < num_hosts; ++h) {
    hosts.push_back(std::make_unique<backend::BackendHost>(pool_options));
  }
  cluster_result.host_ops.assign(num_hosts, 0);
  HostRestorer restorer;  // Declared after `hosts`, so it runs first.

  std::vector<std::unique_ptr<TenantState>> states;
  std::vector<ClientState> clients;
  for (size_t t = 0; t < tenants.size(); ++t) {
    DSSP_CHECK(tenants[t].app != nullptr && tenants[t].generator != nullptr &&
               tenants[t].num_clients > 0);
    states.push_back(std::make_unique<TenantState>(tenants[t]));
    states.back()->host = t % num_hosts;
    // The functional layer joins the host too: co-hosted tenants execute on
    // the same pooled connections, not just the same timing resource.
    restorer.Save(&tenants[t].app->home());
    hosts[states.back()->host]->AttachTenant(&tenants[t].app->home());
    for (int c = 0; c < tenants[t].num_clients; ++c) {
      ClientState client;
      client.tenant = t;
      clients.push_back(std::move(client));
    }
  }

  EventQueue events;

  // The chaos scenario is a first-class event: scheduled before the client
  // arrivals so its seq (the equal-time tie-break) makes it fire ahead of
  // any client event landing on the same virtual instant. The rejoin is
  // scheduled when the kill fires, so `rejoin_at_s < kill_at_s` degenerates
  // to "rejoin immediately after the kill".
  if (scenario.kill_at_s >= 0) {
    events.Schedule(scenario.kill_at_s, scenario.kill_node,
                    SimEventKind::kKill);
  }

  if (config.exponential_arrivals) {
    // Poisson arrivals at the steady-state aggregate rate N / think_mean:
    // exponential inter-arrival gaps, one draw per client (same rng stream
    // length as the legacy stagger).
    const double gap_mean =
        config.think_time_mean_s / static_cast<double>(clients.size());
    double arrival = 0;
    for (size_t c = 0; c < clients.size(); ++c) {
      arrival += rng.NextExponential(gap_mean);
      events.Schedule(arrival, static_cast<int32_t>(c));
    }
  } else {
    // Legacy: stagger initial arrivals uniformly over one think time.
    for (size_t c = 0; c < clients.size(); ++c) {
      events.Schedule(rng.NextDouble() * config.think_time_mean_s,
                      static_cast<int32_t>(c));
    }
  }

  const double client_bw = config.client_bandwidth_bps / 8.0;  // bytes/s
  const double wan_bw = config.wan_bandwidth_bps / 8.0;

  Status error = Status::Ok();
  events.Run([&](const SimEvent& event) -> bool {
    const double now = event.time;
    if (now > config.duration_s) return false;

    if (event.kind == SimEventKind::kKill) {
      router->KillNode(event.client);
      cluster_result.kill_fired = true;
      cluster_result.kill_fired_at_s = now;
      if (scenario.rejoin_at_s >= 0) {
        events.Schedule(std::max(scenario.rejoin_at_s, now), event.client,
                        SimEventKind::kRejoin);
      }
      return true;
    }
    if (event.kind == SimEventKind::kRejoin) {
      // The drain can fail when the bus wire carries injected faults; retry
      // at a fixed virtual interval until it goes through or the run ends.
      auto replayed = router->ReviveNode(event.client);
      if (replayed.ok()) {
        cluster_result.rejoin_fired = true;
        cluster_result.rejoin_fired_at_s = now;
        cluster_result.rejoin_replayed = *replayed;
      } else {
        events.Schedule(now + scenario.rejoin_retry_s, event.client,
                        SimEventKind::kRejoin);
      }
      return true;
    }

    ClientState& client = clients[static_cast<size_t>(event.client)];
    TenantState& tenant = *states[client.tenant];
    if (!client.in_page) {
      client.in_page = true;
      client.page_start = now;
      client.ops = tenant.spec.generator->NextPage(rng);
      client.op_index = 0;
    }

    if (client.op_index >= client.ops.size()) {
      // Page complete. Warmup pages serve traffic but are not measured.
      if (now >= config.warmup_s) {
        tenant.response_times.Record(now - client.page_start);
        ++cluster_result.pages_measured;
      }
      ++tenant.result.pages_completed;
      client.in_page = false;
      const double think = rng.NextExponential(config.think_time_mean_s);
      events.Schedule(now + think, event.client);
      return true;
    }

    // Execute the next DB operation of this page. The cache/database effect
    // happens atomically now; delays are charged to the page afterwards.
    const DbOp& op = client.ops[client.op_index++];
    service::AccessStats stats;
    bool op_failed = false;
    if (op.is_update) {
      auto effect = tenant.spec.app->Update(op.template_id, op.params, &stats);
      if (effect.ok()) {
        ++tenant.result.home_updates;
      } else if (effect.status().code() == StatusCode::kUnavailable ||
                 effect.status().code() == StatusCode::kDeadlineExceeded) {
        // Degraded wire: the op ran out of retry budget. Charge its wire
        // time and keep the run going (a saturated WAN is a result, not a
        // simulator failure).
        op_failed = true;
      } else {
        error = effect.status();
        return false;
      }
    } else {
      auto ignored = tenant.spec.app->Query(op.template_id, op.params, &stats);
      if (!ignored.ok()) {
        if (ignored.status().code() != StatusCode::kUnavailable &&
            ignored.status().code() != StatusCode::kDeadlineExceeded) {
          error = ignored.status();
          return false;
        }
        op_failed = true;
      }
      ++tenant.lookups;
      if (stats.cache_hit) ++tenant.hits;
      if (!stats.cache_hit && !stats.served_stale && !op_failed) {
        ++tenant.result.home_queries;
      }
    }
    ++tenant.result.db_ops;
    tenant.result.entries_invalidated += stats.entries_invalidated;
    tenant.result.wire_retries += stats.wire_retries;
    tenant.result.wire_timeouts += stats.wire_timeouts;
    if (stats.served_stale) ++tenant.result.stale_serves;
    if (op_failed) ++tenant.result.failed_ops;

    // Which member did the cache work? The router recorded it while the op
    // executed above (thread-local, so this event loop reads its own op).
    int charge_node = 0;
    if (router != nullptr) {
      const cluster::RouteInfo route =
          cluster::ClusterRouter::ConsumeLastRoute();
      charge_node = route.node;
      if (charge_node < 0) {
        // No servable owner: the router still hashed and probed. Charge a
        // deterministic stand-in pool so the op is not free.
        charge_node = event.client % num_nodes;
        ++cluster_result.unrouted_ops;
      } else if (route.replica_fallback) {
        ++cluster_result.fallback_ops;
      }
    }
    ++cluster_result.node_ops[static_cast<size_t>(charge_node)];

    // Client -> DSSP cluster.
    const double at_dssp =
        now + config.client_latency_s +
        static_cast<double>(stats.request_bytes) / client_bw;
    // Per-member processing: only the routed member's pool is occupied —
    // this is where adding nodes buys throughput.
    const double dssp_service =
        config.dssp_lookup_s + static_cast<double>(stats.entries_invalidated) *
                                   config.dssp_per_invalidation_s;
    double dssp_done = node_cpus[static_cast<size_t>(charge_node)]
                           .Schedule(at_dssp, dssp_service)
                           .done;

    // Misses and updates make a WAN round trip through the tenant's home
    // host. Ops the wire never completed (failed or served stale) skip the
    // home service stop: their cost is the wire delay below.
    if ((!stats.cache_hit || stats.is_update) && !stats.served_stale &&
        !op_failed) {
      const double at_home =
          dssp_done + config.wan_latency_s +
          static_cast<double>(stats.wan_request_bytes) / wan_bw;
      const double home_service =
          stats.is_update
              ? config.home_update_base_s
              : config.home_query_base_s +
                    static_cast<double>(stats.result_rows) *
                        config.home_query_per_row_s;
      // Home time queues on the tenant's host pool: with shared hosts,
      // co-tenants contend and saturation becomes queued leases (never
      // failed ops — backpressure).
      const backend::ConnectionPool::Admission admission =
          hosts[tenant.host]->pool().Admit(at_home, home_service);
      ++cluster_result.host_ops[tenant.host];
      dssp_done = admission.done + config.wan_latency_s +
                  static_cast<double>(stats.wan_response_bytes) / wan_bw;
    }
    // Retry latency: injected wire faults, per-attempt timeouts, and
    // backoff waits (0 on the perfect wire).
    dssp_done += stats.wire_delay_s;

    // DSSP -> client.
    const double at_client =
        dssp_done + config.client_latency_s +
        static_cast<double>(stats.response_bytes) / client_bw;
    events.Schedule(at_client, event.client);
    return true;
  });
  if (!error.ok()) return error;

  for (const auto& state : states) {
    SimResult result = state->result;
    const LatencyHistogram& h = state->response_times;
    if (!h.empty()) {
      result.mean_response_s = h.Mean();
      result.p50_response_s = h.Percentile(0.50);
      result.p90_response_s = h.Percentile(config.percentile);
      result.p99_response_s = h.Percentile(0.99);
      result.max_response_s = h.Max();
    } else {
      // No page finished inside the measured window: the system is
      // hopelessly saturated.
      result.mean_response_s = config.duration_s;
      result.p50_response_s = config.duration_s;
      result.p90_response_s = config.duration_s;
      result.p99_response_s = config.duration_s;
      result.max_response_s = config.duration_s;
    }
    result.cache_hit_rate =
        state->lookups == 0 ? 0.0
                            : static_cast<double>(state->hits) /
                                  static_cast<double>(state->lookups);
    cluster_result.tenants.push_back(result);
  }

  cluster_result.measured_duration_s = config.duration_s - config.warmup_s;
  cluster_result.throughput_pages_per_s =
      cluster_result.measured_duration_s <= 0
          ? 0.0
          : static_cast<double>(cluster_result.pages_measured) /
                cluster_result.measured_duration_s;
  cluster_result.events_executed = events.events_executed();
  for (const auto& host : hosts) {
    const backend::PoolStats pool = host->pool().Stats();
    cluster_result.pool_leases_queued += pool.leases_queued;
    cluster_result.pool_lease_timeouts += pool.lease_timeouts;
    cluster_result.pool_wait_s_total += pool.total_wait_s;
    cluster_result.pool_wait_s_max =
        std::max(cluster_result.pool_wait_s_max, pool.max_wait_s);
  }
  return cluster_result;
}

}  // namespace

StatusOr<ClusterSimResult> RunClusterSimulation(
    cluster::ClusterRouter& router, std::vector<Tenant> tenants,
    const SimConfig& config, const ClusterScenario& scenario,
    const HomeTopology& topology) {
  return Simulate(&router, tenants, config, scenario, topology);
}

StatusOr<std::vector<SimResult>> RunMultiTenantSimulation(
    std::vector<Tenant> tenants, const SimConfig& config) {
  DSSP_ASSIGN_OR_RETURN(
      ClusterSimResult result,
      Simulate(/*router=*/nullptr, tenants, config, ClusterScenario{},
               HomeTopology{}));
  return std::move(result.tenants);
}

StatusOr<SimResult> RunSimulation(service::ScalableApp& app,
                                  SessionGenerator& generator,
                                  int num_clients, const SimConfig& config) {
  DSSP_ASSIGN_OR_RETURN(
      std::vector<SimResult> results,
      RunMultiTenantSimulation({Tenant{&app, &generator, num_clients}},
                               config));
  DSSP_CHECK(results.size() == 1);
  return results[0];
}

}  // namespace dssp::sim
