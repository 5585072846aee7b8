#ifndef DSSP_SIM_EVENT_QUEUE_H_
#define DSSP_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "common/macros.h"

namespace dssp::sim {

// What a simulation event means to its handler. Client events drive the
// closed-loop page model; kill/rejoin are the chaos-scenario events, made
// first-class so they fire at their exact virtual time instead of
// piggybacking on whichever client event happens to pop next.
enum class SimEventKind : uint8_t {
  kClient = 0,
  kKill = 1,
  kRejoin = 2,
};

struct SimEvent {
  double time = 0;
  uint64_t seq = 0;  // Schedule order; tie-break for determinism.
  int32_t client = -1;  // Client index, or the node for kill/rejoin.
  SimEventKind kind = SimEventKind::kClient;

  // Min-heap order: the earliest time first, equal times in schedule order.
  bool operator>(const SimEvent& other) const {
    return time > other.time || (time == other.time && seq > other.seq);
  }
};

// The simulator's event loop: one binary heap ordered by (time, seq),
// executed serially on the calling thread. Handlers may Schedule follow-up
// events at or after the event being handled; scheduling into the past is a
// checked error, so virtual time never goes backwards.
class EventQueue {
 public:
  void Schedule(double time, int32_t client,
                SimEventKind kind = SimEventKind::kClient) {
    DSSP_CHECK(time >= now_);
    heap_.push(SimEvent{time, next_seq_++, client, kind});
  }

  // Hands events to `handler` in (time, seq) order until the queue drains
  // or the handler returns false; a stop discards every pending event.
  template <typename Handler>
  void Run(Handler&& handler) {
    while (!heap_.empty()) {
      const SimEvent event = heap_.top();
      heap_.pop();
      now_ = event.time;
      ++events_executed_;
      if (!handler(event)) {
        heap_ = {};
        return;
      }
    }
  }

  uint64_t events_executed() const { return events_executed_; }

 private:
  std::priority_queue<SimEvent, std::vector<SimEvent>, std::greater<>> heap_;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  double now_ = -std::numeric_limits<double>::infinity();
};

}  // namespace dssp::sim

#endif  // DSSP_SIM_EVENT_QUEUE_H_
