// Discrete-event core: a time-ordered queue, allocation-free on the
// steady-state path.
//
// Every event is typed: a POD record (handler, code, arg) dispatched
// through EventHandler::HandleEvent. The simulator's recurring work —
// operation completions, syncer ticks, background-writer steps — is all
// of this kind; scheduling and dispatching an event never touches the
// heap allocator once the heap has grown to the run's concurrency.
//
// The pending set is a 4-ary implicit min-heap over small trivially
// copyable entries ordered by (time, seq). Events firing at equal times run
// in scheduling order (the monotone sequence number breaks ties), which
// makes runs exactly deterministic regardless of heap internals
// (DESIGN.md §8).
#ifndef FLASHSIM_SRC_SIM_EVENT_QUEUE_H_
#define FLASHSIM_SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/sim/resource.h"
#include "src/sim/sim_time.h"
#include "src/util/assert.h"

namespace flashsim {

// Receiver of typed events. Implementations dispatch on `code` (their own
// enum) with the 64-bit `arg` as payload. The destructor is protected:
// the queue never owns or deletes handlers, it only calls through them.
class EventHandler {
 public:
  virtual void HandleEvent(SimTime now, uint32_t code, uint64_t arg) = 0;

 protected:
  ~EventHandler() = default;
};

// Min-heap of (time, seq) -> typed event record. Single-threaded.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules a typed event: handler->HandleEvent(when, code, arg) fires at
  // absolute time `when` (must be >= current Now()). Never allocates.
  void ScheduleEvent(SimTime when, EventHandler* handler, uint32_t code, uint64_t arg = 0) {
    FLASHSIM_CHECK(when >= now_);
    FLASHSIM_DCHECK(handler != nullptr);
    Push(Entry{when, next_seq_++, handler, arg, code});
  }

  // Runs events until the queue drains. Returns the time of the last event.
  SimTime RunToCompletion();

  // Runs events with time <= deadline; later events stay queued.
  SimTime RunUntil(SimTime deadline);

  // Pre-sizes the heap for `pending` simultaneous events, so a run with a
  // known concurrency bound never grows it mid-trace.
  void Reserve(size_t pending) { heap_.reserve(pending); }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  SimTime Now() const { return now_; }
  uint64_t events_processed() const { return events_processed_; }

  // --- Serial fast-path hooks (DESIGN.md §13) -----------------------------
  //
  // Time of the next event to dispatch. Callers must check !empty() first.
  SimTime HeadTime() const { return heap_[0].when; }

  // Accounts for a typed event that was logically scheduled at `when` and
  // immediately dispatched without ever entering the heap. The serial
  // engine's read fast path uses this when a thread's next completion is
  // provably the global next event: the queue state afterwards — clock,
  // event count, and the monotone seq counter — is exactly what a
  // ScheduleEvent + DispatchHead pair would have left, so every later
  // (time, seq) comparison and events_processed() observation is unchanged.
  void NoteInlineDispatch(SimTime when) {
    FLASHSIM_DCHECK(when >= now_);
    ++next_seq_;  // the skipped ScheduleEvent would have consumed one
    now_ = when;
    clock_.now = when;
    ++events_processed_;
    ++inline_dispatches_;
  }

  // How many events NoteInlineDispatch accounted for (they are included in
  // events_processed()). Not part of Metrics — fast path on vs. off must
  // stay byte-identical there — but tests use it to prove the path fired.
  uint64_t inline_dispatches() const { return inline_dispatches_; }

  // Monotone clock view for resources' interval pruning.
  const SimClock* clock() const { return &clock_; }

 private:
  // Heap entry: trivially copyable, moved by plain assignment during sifts.
  struct Entry {
    SimTime when;
    uint64_t seq;
    EventHandler* handler;
    uint64_t arg;
    uint32_t code;
  };
  static_assert(std::is_trivially_copyable_v<Entry>);

  // (time, seq) total order: earlier time first, then scheduling order.
  static bool Before(const Entry& a, const Entry& b) {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }

  // 4-ary sift-up insert: shallower than a binary heap (log4 n levels) and
  // all four children share at most two cache lines of 40-byte entries.
  void Push(const Entry& e) {
    size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const size_t parent = (i - 1) >> 2;
      if (!Before(e, heap_[parent])) {
        break;
      }
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  // Pops the head event and dispatches it to its handler.
  void DispatchHead();
  void PopTop();

  std::vector<Entry> heap_;
  SimTime now_ = 0;
  SimClock clock_;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  uint64_t inline_dispatches_ = 0;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_SIM_EVENT_QUEUE_H_
