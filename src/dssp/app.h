#ifndef DSSP_DSSP_APP_H_
#define DSSP_DSSP_APP_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/exposure.h"
#include "backend/in_memory_backend.h"
#include "common/status.h"
#include "dssp/channel.h"
#include "dssp/node.h"
#include "dssp/retry.h"
#include "engine/query_result.h"

namespace dssp::service {

// Wire/access accounting for one query or update, consumed by the
// simulator's timing model.
struct AccessStats {
  bool is_update = false;
  bool cache_hit = false;
  size_t request_bytes = 0;       // Client -> DSSP.
  size_t response_bytes = 0;      // DSSP -> client.
  size_t wan_request_bytes = 0;   // DSSP -> home (0 on cache hits).
  size_t wan_response_bytes = 0;  // Home -> DSSP (0 on cache hits).
  size_t result_rows = 0;
  size_t rows_affected = 0;
  size_t entries_invalidated = 0;

  // Wire-path accounting (all zero/false on cache hits and on the perfect
  // direct path with no retries).
  uint32_t wire_attempts = 0;  // Request frames put on the WAN.
  uint32_t wire_retries = 0;
  uint32_t wire_timeouts = 0;  // Attempts lost to drops.
  uint32_t corrupt_frames_dropped = 0;
  bool served_stale = false;   // Degraded-mode serve from the stale store.
  double wire_delay_s = 0;     // Simulated injected delay+timeouts+backoff.
};

// Cumulative per-application wire counters (sums of the AccessStats wire
// fields over all calls), snapshot from relaxed atomics.
struct WireCounters {
  uint64_t attempts = 0;
  uint64_t retries = 0;
  uint64_t timeouts = 0;
  uint64_t corrupt_frames_dropped = 0;
  uint64_t stale_serves = 0;
  uint64_t failures = 0;  // Ops that exhausted the retry budget.
};

// Configuration of the hardened wire path (see SetWirePolicy).
struct WirePolicy {
  RetryPolicy retry;
  // Degraded mode: when the home server is unreachable, a query may serve a
  // recently invalidated cache entry at most this many observed updates
  // stale (k-staleness); 0 disables stale serving. Requires
  // DsspNode::SetStaleRetention > 0 for the entries to be retained at all.
  uint64_t stale_serve_bound = 0;
  uint64_t seed = 0xD55C11E7;  // Backoff jitter + update nonces.
};

// A Web application running against a shared DSSP: owns the home server
// (master database + keys) and the client-side logic that encrypts
// statements, computes exposure-dependent cache keys, and decrypts results.
// The `dssp` backend may be a single DsspNode or a cluster::ClusterRouter
// fronting many; the application cannot tell the difference.
//
// Usage:
//   ScalableApp app("bookstore", &dssp, crypto::KeyRing::FromPassphrase(...));
//   app.home().database().CreateTable(...);          // schema
//   app.home().AddQueryTemplate("SELECT ...");        // templates
//   app.Finalize();                                   // register with DSSP
//   app.SetExposure(assignment);                      // security config
//   app.Query("Q1", {Value(5)});                      // serve traffic
class ScalableApp {
 public:
  ScalableApp(std::string app_id, CacheBackend* dssp, crypto::KeyRing keyring);

  backend::InMemoryBackend& home() { return home_; }
  const backend::InMemoryBackend& home() const { return home_; }
  const std::string& app_id() const { return home_.app_id(); }
  const templates::TemplateSet& templates() const {
    return home_.templates();
  }

  // Registers the application with the DSSP. Call after schema and
  // templates are final. Exposure defaults to full exposure.
  Status Finalize();

  // Sets the per-template exposure levels (sizes must match the template
  // sets). Clears the cache: entries keyed under the old levels would be
  // unreachable and unsound to keep.
  Status SetExposure(analysis::ExposureAssignment exposure);
  const analysis::ExposureAssignment& exposure() const { return exposure_; }

  // Executes a query template instance through the DSSP path.
  StatusOr<engine::QueryResult> Query(std::string_view template_id,
                                      const std::vector<sql::Value>& params,
                                      AccessStats* stats = nullptr);

  // Executes an update template instance: routed to the home server, then
  // the DSSP invalidates using the exposure-gated update notice.
  StatusOr<engine::UpdateEffect> Update(std::string_view template_id,
                                        const std::vector<sql::Value>& params,
                                        AccessStats* stats = nullptr);

  // ----- Wire path configuration (Figure 2's DSSP <-> home WAN). -----

  // Replaces the transport to the home server; defaults to the in-process
  // DirectChannel (perfect wire, today's exact behavior). Inject a
  // FaultInjectingChannel wrapped around `DirectChannel(home())` to exercise
  // degraded operation.
  void SetChannel(std::unique_ptr<Channel> channel);
  Channel& channel() { return *channel_; }

  // Enables the hardened wire client: frames are integrity-sealed, updates
  // carry dedup nonces, lost/corrupt frames are retried with bounded
  // exponential backoff under a per-request deadline, and (when
  // `policy.stale_serve_bound` > 0) queries fall back to bounded-staleness
  // cache entries while the home is unreachable. When a wire-failed update
  // may have reached the home server, its exposure-gated invalidation
  // notice is still delivered (conservative: the cache must not outlive an
  // update that might have been applied).
  //
  // Without this call the wire path is byte-for-byte the legacy one: no
  // envelope, no nonce, one attempt.
  void SetWirePolicy(const WirePolicy& policy);
  bool wire_hardened() const { return client_ != nullptr; }

  // Snapshot of the cumulative wire counters.
  WireCounters wire_counters() const;

 private:
  // Exposure-dependent cache key (Section 2.2, footnote 3), rendered from
  // the template's text codec: no statement is bound at any level.
  std::string LookupKey(const templates::QueryTemplate& tmpl,
                        analysis::ExposureLevel level,
                        const std::vector<sql::Value>& params) const;

  // Sends one request frame over the configured wire path, retrying when
  // hardened. Returns the (unsealed) response frame and fills the wire
  // fields of `s`.
  StatusOr<std::string> WireCall(const std::string& request_frame,
                                 AccessStats& s);

  struct AtomicWireCounters {
    std::atomic<uint64_t> attempts{0};
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> timeouts{0};
    std::atomic<uint64_t> corrupt_frames_dropped{0};
    std::atomic<uint64_t> stale_serves{0};
    std::atomic<uint64_t> failures{0};
  };

  backend::InMemoryBackend home_;
  CacheBackend* dssp_;
  analysis::ExposureAssignment exposure_;
  bool finalized_ = false;

  std::unique_ptr<Channel> channel_;         // Never null.
  std::unique_ptr<RetryingClient> client_;   // Null on the legacy path.
  WirePolicy wire_policy_;
  std::atomic<uint64_t> next_nonce_{1};
  mutable AtomicWireCounters wire_counters_;
};

}  // namespace dssp::service

#endif  // DSSP_DSSP_APP_H_
