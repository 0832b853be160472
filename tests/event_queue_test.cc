#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace flashsim {
namespace {

// Appends each event's arg to a shared order vector and remembers the time
// it fired at.
class RecordingHandler : public EventHandler {
 public:
  explicit RecordingHandler(std::vector<int>* order) : order_(order) {}

  void HandleEvent(SimTime now, uint32_t /*code*/, uint64_t arg) override {
    order_->push_back(static_cast<int>(arg));
    last_now_ = now;
  }

  SimTime last_now() const { return last_now_; }

 private:
  std::vector<int>* order_;
  SimTime last_now_ = -1;
};

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  RecordingHandler handler(&order);
  queue.ScheduleEvent(30, &handler, 0, 3);
  queue.ScheduleEvent(10, &handler, 0, 1);
  queue.ScheduleEvent(20, &handler, 0, 2);
  queue.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesRunInScheduleOrder) {
  EventQueue queue;
  std::vector<int> order;
  RecordingHandler handler(&order);
  for (int i = 0; i < 10; ++i) {
    queue.ScheduleEvent(5, &handler, 0, static_cast<uint64_t>(i));
  }
  queue.RunToCompletion();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueue, HandlerSeesEventTime) {
  EventQueue queue;
  std::vector<int> order;
  RecordingHandler handler(&order);
  queue.ScheduleEvent(123, &handler, 0);
  queue.RunToCompletion();
  EXPECT_EQ(handler.last_now(), 123);
  EXPECT_EQ(queue.Now(), 123);
}

TEST(EventQueue, HandlersCanScheduleMore) {
  struct Chain : EventHandler {
    EventQueue* queue = nullptr;
    int fired = 0;
    void HandleEvent(SimTime now, uint32_t code, uint64_t arg) override {
      ++fired;
      if (fired < 5) {
        queue->ScheduleEvent(now + 10, this, code, arg);
      }
    }
  };
  EventQueue queue;
  Chain chain;
  chain.queue = &queue;
  queue.ScheduleEvent(0, &chain, 0);
  const SimTime end = queue.RunToCompletion();
  EXPECT_EQ(chain.fired, 5);
  EXPECT_EQ(end, 40);
}

TEST(EventQueue, RunUntilLeavesLaterEvents) {
  EventQueue queue;
  std::vector<int> order;
  RecordingHandler handler(&order);
  queue.ScheduleEvent(10, &handler, 0, 1);
  queue.ScheduleEvent(100, &handler, 0, 2);
  queue.RunUntil(50);
  EXPECT_EQ(order.size(), 1u);
  EXPECT_EQ(queue.size(), 1u);
  queue.RunToCompletion();
  EXPECT_EQ(order.size(), 2u);
}

TEST(EventQueue, CountsProcessedEvents) {
  EventQueue queue;
  std::vector<int> order;
  RecordingHandler handler(&order);
  for (int i = 0; i < 7; ++i) {
    queue.ScheduleEvent(i, &handler, 0);
  }
  queue.RunToCompletion();
  EXPECT_EQ(queue.events_processed(), 7u);
}

TEST(EventQueue, ClockTracksNow) {
  struct ClockCheck : EventHandler {
    const SimClock* clock = nullptr;
    SimTime seen = -1;
    void HandleEvent(SimTime /*now*/, uint32_t /*code*/, uint64_t /*arg*/) override {
      seen = clock->now;
    }
  };
  EventQueue queue;
  ClockCheck check;
  check.clock = queue.clock();
  EXPECT_EQ(check.clock->now, 0);
  queue.ScheduleEvent(77, &check, 0);
  queue.RunToCompletion();
  EXPECT_EQ(check.seen, 77);
  EXPECT_EQ(check.clock->now, 77);
}

TEST(EventQueueDeathTest, SchedulingInThePastAborts) {
  struct TimeTraveller : EventHandler {
    EventQueue* queue = nullptr;
    void HandleEvent(SimTime /*now*/, uint32_t /*code*/, uint64_t /*arg*/) override {
      EXPECT_DEATH(queue->ScheduleEvent(50, this, 0, 0), "CHECK failed");
    }
  };
  EventQueue queue;
  TimeTraveller traveller;
  traveller.queue = &queue;
  queue.ScheduleEvent(100, &traveller, 0);
  queue.RunToCompletion();
}

TEST(EventQueue, TypedEventsDispatchCodeAndArg) {
  EventQueue queue;
  struct Capture : EventHandler {
    SimTime now = -1;
    uint32_t code = 0;
    uint64_t arg = 0;
    void HandleEvent(SimTime n, uint32_t c, uint64_t a) override {
      now = n;
      code = c;
      arg = a;
    }
  } capture;
  queue.ScheduleEvent(42, &capture, 7, 0xdeadbeefULL);
  queue.RunToCompletion();
  EXPECT_EQ(capture.now, 42);
  EXPECT_EQ(capture.code, 7u);
  EXPECT_EQ(capture.arg, 0xdeadbeefULL);
  EXPECT_EQ(queue.events_processed(), 1u);
}

// The determinism contract at scale: 10k events all scheduled for the same
// timestamp, from 16 parent handlers that interleave by rescheduling
// themselves at their own fire time, must run in exact FIFO-by-seq order on
// the 4-ary heap. Children alternate between two handlers, so the order is
// the queue's, not one handler's.
TEST(EventQueue, EqualTimeFifoAtScaleFromInterleavedParents) {
  constexpr int kChildren = 10000;
  constexpr int kParents = 16;
  constexpr SimTime kParentTime = 5;
  constexpr SimTime kChildTime = 1000;

  struct Parent : EventHandler {
    EventQueue* queue = nullptr;
    RecordingHandler* children[2] = {nullptr, nullptr};
    int* next_index = nullptr;
    void HandleEvent(SimTime now, uint32_t code, uint64_t arg) override {
      if (*next_index >= kChildren) {
        return;
      }
      const int index = (*next_index)++;
      queue->ScheduleEvent(kChildTime, children[index % 2], 0, static_cast<uint64_t>(index));
      // Rescheduling at the current time goes to the back of the
      // equal-time line, interleaving the parents round-robin.
      queue->ScheduleEvent(now, this, code, arg);
    }
  };

  EventQueue queue;
  std::vector<int> order;
  RecordingHandler even(&order);
  RecordingHandler odd(&order);
  int next_index = 0;
  std::vector<Parent> parents(kParents);
  for (Parent& parent : parents) {
    parent.queue = &queue;
    parent.children[0] = &even;
    parent.children[1] = &odd;
    parent.next_index = &next_index;
    queue.ScheduleEvent(kParentTime, &parent, 0);
  }
  queue.RunToCompletion();

  ASSERT_EQ(order.size(), static_cast<size_t>(kChildren));
  for (int i = 0; i < kChildren; ++i) {
    ASSERT_EQ(order[static_cast<size_t>(i)], i) << "equal-time FIFO broken at " << i;
  }
}

}  // namespace
}  // namespace flashsim
