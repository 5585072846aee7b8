#include "backend/connection_pool.h"

#include <algorithm>

namespace dssp::backend {

Status PoolOptions::Validate() const {
  if (size <= 0) return InvalidArgumentError("pool size must be positive");
  if (suspect_after <= 0) {
    return InvalidArgumentError("suspect_after must be positive");
  }
  // Negated comparisons also reject NaN.
  if (!(lease_deadline_s >= 0)) {
    return InvalidArgumentError("lease_deadline_s must be >= 0");
  }
  if (!(lease_latency_s >= 0)) {
    return InvalidArgumentError("lease_latency_s must be >= 0");
  }
  return Status::Ok();
}

// The queue is sized before Validate() runs; the clamp lets Validate report
// a bad size instead of QueueingResource's bare check.
ConnectionPool::ConnectionPool(PoolOptions options)
    : options_(options), admit_queue_(std::max(options.size, 1)) {
  DSSP_CHECK_OK(options_.Validate());
  connections_.reserve(static_cast<size_t>(options_.size));
  for (int i = 0; i < options_.size; ++i) {
    connections_.push_back(std::make_unique<PooledConnection>(i));
  }
  // LIFO stack with connection 0 on top: the uncontended synchronous path
  // always runs on connection 0.
  MutexLock lock(mu_);
  for (int i = options_.size - 1; i >= 0; --i) {
    free_.push_back(connections_[static_cast<size_t>(i)].get());
  }
}

ConnectionPool::Lease::~Lease() {
  if (pool_ == nullptr) return;
  MutexLock lock(pool_->mu_);
  pool_->free_.push_back(conn_);
  pool_->cv_.NotifyAll();
}

void ConnectionPool::MaybeProbe(PooledConnection& conn) {
  ++conn.leases_;
  if (options_.probe_every == 0 || conn.leases_ % options_.probe_every != 0) {
    return;
  }
  ++probes_sent_;
  const bool healthy = prober_ == nullptr || prober_->Probe();
  if (healthy) {
    consecutive_probe_failures_ = 0;
    return;
  }
  ++probe_failures_;
  ++connections_recycled_;
  if (++consecutive_probe_failures_ >= options_.suspect_after) {
    suspect_ = true;
  }
}

ConnectionPool::Lease ConnectionPool::Acquire() {
  MutexLock lock(mu_);
  const uint64_t ticket = next_ticket_++;
  bool waited = false;
  while (ticket != serving_ticket_ || free_.empty()) {
    waited = true;
    cv_.Wait(lock);
  }
  ++serving_ticket_;
  PooledConnection* conn = free_.back();
  free_.pop_back();
  ++leases_granted_;
  if (waited) ++leases_queued_;
  MaybeProbe(*conn);
  // Wake the next ticket holder (it may already have a free connection).
  cv_.NotifyAll();
  return Lease(this, conn);
}

ConnectionPool::Admission ConnectionPool::Admit(double arrival,
                                                double service_s) {
  MutexLock lock(mu_);
  const QueueingResource::Slot slot =
      admit_queue_.Schedule(arrival, options_.lease_latency_s + service_s);
  Admission admission;
  admission.done = slot.done;
  admission.connection = static_cast<int>(slot.worker);
  admission.wait_s = slot.start - arrival;
  admission.queued = admission.wait_s > 0;

  ++leases_granted_;
  if (admission.queued) {
    ++leases_queued_;
    total_wait_s_ += admission.wait_s;
    max_wait_s_ = std::max(max_wait_s_, admission.wait_s);
    if (options_.lease_deadline_s > 0 &&
        admission.wait_s > options_.lease_deadline_s) {
      admission.timed_out = true;
      ++lease_timeouts_;
    }
  }
  MaybeProbe(*connections_[slot.worker]);
  return admission;
}

void ConnectionPool::SetProber(HealthProber* prober) {
  MutexLock lock(mu_);
  prober_ = prober;
}

bool ConnectionPool::suspect() const {
  MutexLock lock(mu_);
  return suspect_;
}

PoolStats ConnectionPool::Stats() const {
  MutexLock lock(mu_);
  PoolStats out;
  out.leases_granted = leases_granted_;
  out.leases_queued = leases_queued_;
  out.lease_timeouts = lease_timeouts_;
  out.probes_sent = probes_sent_;
  out.probe_failures = probe_failures_;
  out.connections_recycled = connections_recycled_;
  out.total_wait_s = total_wait_s_;
  out.max_wait_s = max_wait_s_;
  out.size = connections_.size();
  out.suspect = suspect_;
  return out;
}

}  // namespace dssp::backend
