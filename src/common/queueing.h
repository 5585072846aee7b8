#ifndef DSSP_COMMON_QUEUEING_H_
#define DSSP_COMMON_QUEUEING_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/macros.h"

namespace dssp {

// A FIFO worker pool in virtual time: each job goes to the first
// earliest-free worker. The one queueing model of the stack — the
// simulator's DSSP node CPUs and backend::ConnectionPool::Admit's home
// connections both schedule through it.
class QueueingResource {
 public:
  // Where and when one job runs.
  struct Slot {
    size_t worker = 0;  // Index of the serving worker.
    double start = 0;   // Service begins: max(arrival, worker free).
    double done = 0;    // start + service.
  };

  explicit QueueingResource(int workers) : busy_until_(workers, 0.0) {
    DSSP_CHECK(workers > 0);
  }

  // Enqueues a job arriving at `arrival` needing `service` seconds and
  // advances the chosen worker's clock to its completion.
  Slot Schedule(double arrival, double service) {
    const auto it = std::min_element(busy_until_.begin(), busy_until_.end());
    Slot slot;
    slot.worker = static_cast<size_t>(it - busy_until_.begin());
    slot.start = std::max(arrival, *it);
    slot.done = slot.start + service;
    *it = slot.done;
    return slot;
  }

  // Total queueing delay a job arriving now would see before starting.
  double CurrentBacklog(double now) const {
    const double earliest =
        *std::min_element(busy_until_.begin(), busy_until_.end());
    return std::max(0.0, earliest - now);
  }

  void Reset() {
    for (double& b : busy_until_) b = 0.0;
  }

 private:
  std::vector<double> busy_until_;
};

}  // namespace dssp

#endif  // DSSP_COMMON_QUEUEING_H_
