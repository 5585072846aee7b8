// Event loop tests for the simulator's EventQueue: (time, seq) execution
// order, follow-up events scheduled from a handler, stop semantics, and the
// check that virtual time never goes backwards.

#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "common/random.h"

namespace dssp::sim {
namespace {

TEST(EventQueueTest, EqualTimeEventsExecuteInScheduleOrder) {
  EventQueue events;
  // Same instant for every client: only seq can order them.
  for (int32_t c = 0; c < 21; ++c) events.Schedule(1.0, c);
  events.Schedule(0.5, 99, SimEventKind::kKill);

  std::vector<SimEvent> order;
  events.Run([&](const SimEvent& event) {
    order.push_back(event);
    return true;
  });

  ASSERT_EQ(order.size(), 22u);
  EXPECT_EQ(order[0].kind, SimEventKind::kKill);  // Earlier time first.
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_EQ(order[i].seq, i - 1) << "position " << i;
    EXPECT_EQ(order[i].client, static_cast<int32_t>(i - 1));
  }
  EXPECT_EQ(events.events_executed(), 22u);
}

// Reference model: a plain priority queue over (time, seq) with seq
// assigned in push order.
struct RefEvent {
  double time;
  uint64_t seq;
  int32_t client;

  bool operator>(const RefEvent& other) const {
    return time > other.time || (time == other.time && seq > other.seq);
  }
};

TEST(EventQueueTest, ClosedLoopOrderMatchesReferenceHeap) {
  // Each event schedules a follow-up until a fixed horizon; every fifth
  // follow-up has zero delay, so it ties with the event being handled.
  constexpr int kClients = 50;
  constexpr double kHorizon = 10.0;
  auto delay_for = [](uint64_t seq, Rng& think) {
    return (seq % 5 == 0) ? 0.0 : think.NextExponential(0.5);
  };

  EventQueue events;
  Rng rng(1234);
  for (int32_t c = 0; c < kClients; ++c) {
    events.Schedule(rng.NextDouble() * 2.0, c);
  }
  Rng think(99);
  std::vector<SimEvent> order;
  events.Run([&](const SimEvent& event) {
    order.push_back(event);
    const double next = event.time + delay_for(event.seq, think);
    if (next <= kHorizon) events.Schedule(next, event.client);
    return true;
  });

  std::priority_queue<RefEvent, std::vector<RefEvent>, std::greater<>> ref;
  uint64_t seq = 0;
  Rng ref_rng(1234);
  for (int32_t c = 0; c < kClients; ++c) {
    ref.push(RefEvent{ref_rng.NextDouble() * 2.0, seq++, c});
  }
  Rng ref_think(99);
  std::vector<RefEvent> reference;
  while (!ref.empty()) {
    const RefEvent event = ref.top();
    ref.pop();
    reference.push_back(event);
    const double next = event.time + delay_for(event.seq, ref_think);
    if (next <= kHorizon) ref.push(RefEvent{next, seq++, event.client});
  }

  ASSERT_EQ(order.size(), reference.size());
  for (size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(order[i].time, reference[i].time) << "diverged at event " << i;
    ASSERT_EQ(order[i].seq, reference[i].seq) << "diverged at event " << i;
    ASSERT_EQ(order[i].client, reference[i].client)
        << "diverged at event " << i;
  }
  EXPECT_EQ(events.events_executed(), order.size());
}

TEST(EventQueueTest, FollowUpEventsInterleaveWithPendingOnes) {
  EventQueue events;
  events.Schedule(1.0, 0);
  events.Schedule(5.0, 1);

  std::vector<int32_t> clients;
  events.Run([&](const SimEvent& event) {
    clients.push_back(event.client);
    // Scheduled while t=5 is pending: must run before it.
    if (event.seq == 0) events.Schedule(3.0, 2);
    return true;
  });
  EXPECT_EQ(clients, (std::vector<int32_t>{0, 2, 1}));
}

TEST(EventQueueTest, ScenarioEventsTieInScheduleOrder) {
  EventQueue events;
  events.Schedule(2.0, 1, SimEventKind::kKill);
  events.Schedule(2.0, 1, SimEventKind::kRejoin);
  events.Schedule(2.0, 5);

  std::vector<SimEventKind> kinds;
  events.Run([&](const SimEvent& event) {
    kinds.push_back(event.kind);
    return true;
  });
  EXPECT_EQ(kinds, (std::vector<SimEventKind>{SimEventKind::kKill,
                                               SimEventKind::kRejoin,
                                               SimEventKind::kClient}));
}

TEST(EventQueueTest, HandlerStopDiscardsRemainingEvents) {
  EventQueue events;
  for (int32_t c = 0; c < 10; ++c) {
    events.Schedule(static_cast<double>(c), c);
  }
  int handled = 0;
  events.Run([&](const SimEvent& event) {
    ++handled;
    return event.time <= 4.0;  // Stop on the first event past the horizon.
  });
  EXPECT_EQ(handled, 6);  // Events at t=0..4 plus the stopping one at t=5.
  EXPECT_EQ(events.events_executed(), 6u);

  // The queue is reusable after a stop; nothing stale leaks out.
  events.Schedule(100.0, 0);
  int resumed = 0;
  events.Run([&](const SimEvent&) {
    ++resumed;
    return true;
  });
  EXPECT_EQ(resumed, 1);
}

TEST(EventQueueDeathTest, SchedulingIntoThePastIsChecked) {
  EXPECT_DEATH(
      {
        EventQueue events;
        events.Schedule(2.0, 0);
        events.Run([&](const SimEvent& event) {
          events.Schedule(event.time - 1.0, 0);
          return true;
        });
      },
      "time >= now_");
}

}  // namespace
}  // namespace dssp::sim
