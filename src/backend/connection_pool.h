#ifndef DSSP_BACKEND_CONNECTION_POOL_H_
#define DSSP_BACKEND_CONNECTION_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "backend/home_backend.h"
#include "common/mutex.h"
#include "common/queueing.h"
#include "common/status.h"

namespace dssp::backend {

// Pluggable health probe: one round trip over whatever wire the deployment
// uses. The Channel-based implementation (service::ChannelHealthProber)
// seals a probe frame and sends it through the PR-2 fault machinery, so a
// seeded FaultProfile produces reproducible probe losses.
class HealthProber {
 public:
  virtual ~HealthProber() = default;
  virtual bool Probe() = 0;  // true = the probe round trip came back intact.
};

struct PoolOptions {
  int size = 8;  // Bounded number of connections.

  // Virtual-time admission (Admit): a queued wait longer than this counts a
  // lease timeout — the overload signal — while the request still drains
  // FIFO (backpressure, never a drop). 0 = no deadline.
  double lease_deadline_s = 0;

  // Simulated per-lease overhead charged on every admission (the cost of
  // checking out a connection from a real pool).
  double lease_latency_s = 0;

  // Health probing: probe a connection every `probe_every` leases (0 = off).
  // `suspect_after` consecutive failures mark the pool suspect; any success
  // resets the count. A failed probe recycles the connection.
  uint64_t probe_every = 0;
  int suspect_after = 3;

  // Rejects non-positive size / suspect_after and negative times.
  Status Validate() const;
};

// One pooled home-database connection, leased exclusively. It holds no
// per-connection state beyond its lease cadence: every connection executes
// the backend's shared prepared programs.
class PooledConnection {
 public:
  explicit PooledConnection(int id) : id_(id) {}

  int id() const { return id_; }

 private:
  friend class ConnectionPool;
  int id_;
  uint64_t leases_ = 0;  // Owned by the pool's mutex (probe cadence).
};

// A bounded, health-checked pool of home-database connections with two
// admission paths over one shared state:
//
//  - Acquire(): the synchronous path HandleQuery/HandleUpdate take. FIFO
//    ticketed blocking — pool exhaustion queues the caller (backpressure)
//    and never fails the operation.
//  - Admit(arrival, service): the virtual-time path the simulator charges
//    home work through. Jobs go to the first earliest-free connection via
//    the pool's QueueingResource, each holding it for lease_latency_s +
//    service.
//
// Health: every probe_every leases a connection's wire is probed through
// the configured HealthProber; a failure recycles the connection and
// suspect_after consecutive failures mark the pool suspect. Suspicion is
// advisory — the pool keeps serving (the home database is the sole source
// of truth; refusing work would lose updates).
class ConnectionPool {
 public:
  explicit ConnectionPool(PoolOptions options);

  // RAII lease over one connection. Move-only; releasing returns the
  // connection to the free stack (LIFO: uncontended traffic always runs on
  // connection 0).
  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), conn_(other.conn_) {
      other.pool_ = nullptr;
      other.conn_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    PooledConnection* operator->() { return conn_; }
    PooledConnection& operator*() { return *conn_; }
    PooledConnection* get() { return conn_; }

   private:
    friend class ConnectionPool;
    Lease(ConnectionPool* pool, PooledConnection* conn)
        : pool_(pool), conn_(conn) {}
    ConnectionPool* pool_;
    PooledConnection* conn_;
  };

  // Blocks (FIFO) until a connection is free. Never fails: exhaustion is
  // backpressure, not an error.
  Lease Acquire();

  // Virtual-time admission of a job arriving at `arrival` needing
  // `service_s` seconds of connection time.
  struct Admission {
    double done = 0;        // Completion instant.
    double wait_s = 0;      // Time spent queued for a free connection.
    bool queued = false;    // wait_s > 0.
    bool timed_out = false; // wait_s exceeded options.lease_deadline_s.
    int connection = 0;     // Which connection served it.
  };
  Admission Admit(double arrival, double service_s);

  // Probes ride this; nullptr (default) = probes always succeed in-process.
  void SetProber(HealthProber* prober);

  // Health verdict from the probe machinery.
  bool suspect() const;

  PoolStats Stats() const;

  const PoolOptions& options() const { return options_; }
  int size() const { return static_cast<int>(connections_.size()); }

 private:
  // Runs a health probe for `conn` if its lease cadence says so. Called
  // with `mu_` held; the probe round trip itself happens under the lock —
  // probes are rare (every probe_every leases) and the in-process wire is
  // synchronous, so holding the lock keeps the recycle atomic with the
  // verdict.
  void MaybeProbe(PooledConnection& conn) DSSP_REQUIRES(mu_);

  PoolOptions options_;
  std::vector<std::unique_ptr<PooledConnection>> connections_;

  mutable Mutex mu_;
  CondVar cv_;
  // Virtual-time busy horizon of each connection (Admit only).
  QueueingResource admit_queue_ DSSP_GUARDED_BY(mu_);
  std::vector<PooledConnection*> free_ DSSP_GUARDED_BY(mu_);  // LIFO stack.
  uint64_t next_ticket_ DSSP_GUARDED_BY(mu_) = 0;
  uint64_t serving_ticket_ DSSP_GUARDED_BY(mu_) = 0;
  HealthProber* prober_ DSSP_GUARDED_BY(mu_) = nullptr;
  int consecutive_probe_failures_ DSSP_GUARDED_BY(mu_) = 0;
  bool suspect_ DSSP_GUARDED_BY(mu_) = false;

  // Counters (PoolStats sources), guarded by mu_.
  uint64_t leases_granted_ DSSP_GUARDED_BY(mu_) = 0;
  uint64_t leases_queued_ DSSP_GUARDED_BY(mu_) = 0;
  uint64_t lease_timeouts_ DSSP_GUARDED_BY(mu_) = 0;
  uint64_t probes_sent_ DSSP_GUARDED_BY(mu_) = 0;
  uint64_t probe_failures_ DSSP_GUARDED_BY(mu_) = 0;
  uint64_t connections_recycled_ DSSP_GUARDED_BY(mu_) = 0;
  double total_wait_s_ DSSP_GUARDED_BY(mu_) = 0;
  double max_wait_s_ DSSP_GUARDED_BY(mu_) = 0;
};

}  // namespace dssp::backend

#endif  // DSSP_BACKEND_CONNECTION_POOL_H_
