// Proves the zero-allocation acceptance for the event core: once the heap
// is reserved for the run's concurrency, scheduling and dispatching events
// performs zero heap allocations. The whole binary's global operator
// new/delete are replaced with counting wrappers; tests snapshot the
// counter around a steady-state run and assert a zero delta.
//
// This test gets its own binary so the counting allocator cannot perturb
// the rest of the suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/sim/event_queue.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace flashsim {
namespace {

constexpr int kOutstanding = 64;
constexpr uint64_t kWarmupEvents = 1000;
constexpr uint64_t kSteadyEvents = 100000;

class SelfRescheduler : public EventHandler {
 public:
  SelfRescheduler(EventQueue* queue, uint64_t reschedules)
      : queue_(queue), remaining_(reschedules) {}

  void HandleEvent(SimTime now, uint32_t code, uint64_t /*arg*/) override {
    if (remaining_ > 0) {
      --remaining_;
      queue_->ScheduleEvent(now + 100, this, code);
    }
  }

 private:
  EventQueue* queue_;
  uint64_t remaining_;
};

TEST(EventAllocation, SteadyStateTypedEventsAllocateNothing) {
  EventQueue queue;
  queue.Reserve(kOutstanding);
  SelfRescheduler pump(&queue, kWarmupEvents + kSteadyEvents);
  for (int i = 0; i < kOutstanding; ++i) {
    queue.ScheduleEvent(i, &pump, 0);
  }
  // Warm up: each of the 64 chains advances 100 time units per event, so
  // this deadline processes well over kWarmupEvents events.
  queue.RunUntil(100 * (kWarmupEvents / kOutstanding + 2));
  ASSERT_GT(queue.events_processed(), kWarmupEvents / 2);

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  queue.RunToCompletion();
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_GT(queue.events_processed(), kSteadyEvents);
  EXPECT_EQ(after - before, 0u) << "typed event dispatch hit the allocator";
}

TEST(EventAllocation, ReservedHeapFillsWithoutAllocating) {
  // Reserve sizes the heap for the run's outstanding events up front, so
  // even the first fill to that depth never grows it.
  EventQueue queue;
  queue.Reserve(kOutstanding);
  SelfRescheduler pump(&queue, 0);
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kOutstanding; ++i) {
    queue.ScheduleEvent(kOutstanding - i, &pump, 0);
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(queue.size(), static_cast<size_t>(kOutstanding));
  EXPECT_EQ(after - before, 0u) << "a reserved heap grew while filling";
  queue.RunToCompletion();
  EXPECT_EQ(queue.events_processed(), static_cast<uint64_t>(kOutstanding));
}

}  // namespace
}  // namespace flashsim
