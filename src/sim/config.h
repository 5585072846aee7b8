#ifndef DSSP_SIM_CONFIG_H_
#define DSSP_SIM_CONFIG_H_

#include <cstdint>

namespace dssp::sim {

// Timing model of the paper's Emulab deployment (Section 5.2):
//  - home server <-> DSSP: high-latency, low-bandwidth WAN duplex link
//    (100 ms, 2 Mbps);
//  - client <-> DSSP: low-latency, high-bandwidth link (5 ms, 20 Mbps);
//  - clients issue a page request, wait, then think for an exponentially
//    distributed time with mean 7 s;
//  - each run lasts ten minutes from a cold cache;
//  - scalability = max concurrent users with 90% of page responses under
//    two seconds.
struct SimConfig {
  // Links.
  double client_latency_s = 0.005;
  double client_bandwidth_bps = 20e6;
  double wan_latency_s = 0.100;
  double wan_bandwidth_bps = 2e6;

  // DSSP node: a small pool of workers; per-op costs.
  int dssp_workers = 8;
  double dssp_lookup_s = 0.0002;
  double dssp_per_invalidation_s = 0.00002;

  // Home server: the bottleneck resource, a FIFO worker pool. Service
  // times model the paper's commodity P-III 850 MHz MySQL4 home server.
  int home_workers = 1;
  double home_query_base_s = 0.010;
  double home_query_per_row_s = 0.00005;
  double home_update_base_s = 0.008;

  // Client behaviour.
  double think_time_mean_s = 7.0;

  // Run shape. Pages completing before `warmup_s` are excluded from the
  // response-time statistics (the paper's ten-minute cold-cache runs
  // amortize warmup; shorter runs should skip it explicitly).
  double duration_s = 600.0;
  double warmup_s = 0.0;
  uint64_t seed = 42;

  // SLO used for the scalability metric.
  double response_time_limit_s = 2.0;
  double percentile = 0.90;

  // Initial-arrival model. The legacy default staggers each client's first
  // page uniformly over one think time, which biases warmup-window
  // percentiles (a uniform ramp, not the Poisson arrivals the steady-state
  // think model implies). true draws exponential inter-arrivals with mean
  // think_time_mean_s / num_clients instead. Kept opt-in so the published
  // figure runs stay bit-identical under the legacy seed.
  bool exponential_arrivals = false;
};

}  // namespace dssp::sim

#endif  // DSSP_SIM_CONFIG_H_
