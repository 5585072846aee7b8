#ifndef DSSP_BACKEND_HOME_BACKEND_H_
#define DSSP_BACKEND_HOME_BACKEND_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "engine/database.h"

namespace dssp::backend {

// ---------------------------------------------------------------------------
// The home-database seam of the DSSP architecture.
//
// The paper's DSSP fronts the home organization's database over a narrow
// wire protocol (Figure 2): encrypted statements go in, (possibly encrypted)
// result blobs come out. Everything the provider side knows about the home
// tier goes through this interface — connection leasing, query execution,
// update application, and catalog/statistics queries —
// so a real DBMS, a remote replica, or the in-process reference engine
// (InMemoryBackend) are interchangeable behind it.
//
// The interface is deliberately narrow: it is the set of operations the
// DSSP<->home protocol can express, not the engine's full surface. Anything
// engine-specific (direct Database access, template registration, key
// material) lives on the concrete backend.
// ---------------------------------------------------------------------------

// Prepared-program counters. Each compilable query template is prepared
// (compiled to its QueryProgram) exactly once, at registration, and every
// pooled connection executes that one immutable program.
struct StatementCacheStats {
  uint64_t hits = 0;    // Executions served by a prepared program.
  uint64_t misses = 0;  // Prepares: one per compilable template.
  size_t entries = 0;   // Prepared programs held.

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

// Connection-pool counters. The pool is bounded; exhaustion queues callers
// FIFO (backpressure) instead of failing them, so `lease_timeouts` counts
// deadline overruns observed while queued — an overload health signal — not
// dropped requests.
struct PoolStats {
  uint64_t leases_granted = 0;
  uint64_t leases_queued = 0;    // Granted only after waiting for a free conn.
  uint64_t lease_timeouts = 0;   // Waits that overran the lease deadline.
  uint64_t probes_sent = 0;      // Health probes put on the probe channel.
  uint64_t probe_failures = 0;   // Probes lost/damaged by the wire.
  uint64_t connections_recycled = 0;  // Closed+reopened after a failed probe.
  double total_wait_s = 0;       // Simulated seconds spent queued (Admit).
  double max_wait_s = 0;         // Worst single queued wait.
  size_t size = 0;               // Bounded pool size.
  bool suspect = false;          // Health-probe verdict (see PoolOptions).
};

// One table's metadata/statistics snapshot (what a real DSSP would fetch
// from information_schema + ANALYZE output).
struct TableMetadata {
  std::string table;
  std::vector<std::string> columns;
  std::string primary_key;   // Comma-joined; empty when the table has none.
  size_t row_count = 0;
  double computed_at_s = 0;  // Backend clock when the statistics pass ran.
};

// Point-in-time snapshot of every backend counter. Relaxed-atomic sources:
// each counter is individually monotone but the snapshot is not one global
// instant (quiesce writers for exact cross-counter arithmetic).
struct HomeBackendStats {
  // Engine-level traffic.
  uint64_t queries_executed = 0;
  uint64_t updates_applied = 0;
  uint64_t duplicates_suppressed = 0;

  // Compiled-program execution split: queries served by a QueryProgram vs.
  // by the reference interpreter (template unmatched or uncompilable).
  uint64_t program_queries = 0;
  uint64_t interpreter_fallback_queries = 0;

  size_t tables_total = 0;  // Tables in the catalog.

  StatementCacheStats statements;
  PoolStats pool;
};

class HomeBackend {
 public:
  virtual ~HomeBackend() = default;

  virtual const std::string& app_id() const = 0;

  // Wire entry points (what service::DispatchFrame calls). `ciphertext` is a
  // statement encrypted under the application's statement cipher; the
  // backend decrypts, leases a connection, executes (a query through its
  // template's prepared program when one matches), and (for queries)
  // returns the serialized result, encrypted under the result cipher unless
  // `plaintext_result`.
  //
  // A nonzero update `nonce` enables at-most-once semantics: a retried or
  // transport-duplicated update frame returns the stored effect instead of
  // applying twice.
  virtual StatusOr<std::string> HandleQuery(std::string_view ciphertext,
                                            bool plaintext_result) = 0;
  virtual StatusOr<engine::UpdateEffect> HandleUpdate(
      std::string_view ciphertext, uint64_t nonce = 0) = 0;

  // Health-probe target: Ok when the backend can serve. The pool's probe
  // machinery calls this through the (fault-injectable) probe channel.
  virtual Status Ping() = 0;

  // --- Catalog / statistics queries -------------------------------------
  // Each DescribeTable call computes a fresh snapshot, so it is never stale.
  virtual std::vector<std::string> TableNames() const = 0;
  virtual StatusOr<TableMetadata> DescribeTable(std::string_view table) = 0;

  // Advances the backend's virtual clock (what DescribeTable stamps into
  // `computed_at_s`). Monotone: moving backwards is ignored.
  virtual void Tick(double now_s) = 0;

  virtual HomeBackendStats Stats() const = 0;
};

}  // namespace dssp::backend

#endif  // DSSP_BACKEND_HOME_BACKEND_H_
