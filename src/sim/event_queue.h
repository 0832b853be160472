// Discrete-event core: a time-ordered queue, allocation-free on the
// steady-state path.
//
// Two event kinds share one (time, seq) total order:
//
//  - Typed events: a POD record (handler, code, arg) dispatched through
//    EventHandler::HandleEvent. The simulator's recurring work — operation
//    completions, syncer ticks, background-writer steps — takes this path;
//    scheduling and dispatching a typed event never touches the heap
//    allocator.
//  - Callback events: arbitrary callables stored in a recycled slot pool.
//    Captures up to kInlineCallbackBytes live inline in the slot; larger
//    ones (up to kOverflowCallbackBytes, enforced at compile time) go to a
//    slab-recycled overflow chunk. Once the pool is warm, scheduling a
//    callback allocates nothing.
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
#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
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

// Min-heap of (time, seq) -> typed record or pooled callback.
// Single-threaded.
class EventQueue {
 public:
  using Callback = std::function<void(SimTime now)>;

  // Captures at most this large are stored inline in a pool slot.
  static constexpr size_t kInlineCallbackBytes = 48;
  // Hard compile-time cap; larger captures use a slab-recycled overflow
  // chunk. Grow deliberately if a new call site legitimately needs more.
  static constexpr size_t kOverflowCallbackBytes = 256;

  EventQueue() = default;
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules fn at absolute time `when` (must be >= current Now(); checked
  // so time-travel bugs fail loudly instead of silently reordering).
  template <typename Fn>
  void ScheduleAt(SimTime when, Fn&& fn) {
    using Decayed = std::decay_t<Fn>;
    static_assert(std::is_invocable_v<Decayed&, SimTime>,
                  "event callbacks must be invocable as fn(SimTime now)");
    static_assert(sizeof(Decayed) <= kOverflowCallbackBytes,
                  "callback captures exceed kOverflowCallbackBytes; shrink "
                  "the capture or use a typed event");
    static_assert(alignof(Decayed) <= alignof(std::max_align_t),
                  "over-aligned callback captures are not supported");
    FLASHSIM_CHECK(when >= now_);
    const uint32_t slot_index = AllocSlot();
    CallbackSlot& slot = SlotAt(slot_index);
    void* obj;
    if constexpr (sizeof(Decayed) <= kInlineCallbackBytes) {
      slot.overflow = false;
      obj = slot.storage;
    } else {
      slot.overflow = true;
      obj = AllocOverflowChunk();
      std::memcpy(slot.storage, &obj, sizeof(void*));
    }
    ::new (obj) Decayed(std::forward<Fn>(fn));
    slot.invoke = &InvokeThunk<Decayed>;
    slot.destroy = &DestroyThunk<Decayed>;
    Push(Entry{when, next_seq_++, nullptr, slot_index, 0});
  }

  // Schedules fn `delay` after the current time.
  template <typename Fn>
  void ScheduleAfter(SimDuration delay, Fn&& fn) {
    ScheduleAt(now_ + delay, std::forward<Fn>(fn));
  }

  // Schedules a typed event: handler->HandleEvent(when, code, arg) fires at
  // absolute time `when` (must be >= current Now()). Never allocates.
  void ScheduleEvent(SimTime when, EventHandler* handler, uint32_t code, uint64_t arg = 0) {
    FLASHSIM_CHECK(when >= now_);
    FLASHSIM_DCHECK(handler != nullptr);
    Push(Entry{when, next_seq_++, handler, arg, code});
  }

  void ScheduleEventAfter(SimDuration delay, EventHandler* handler, uint32_t code,
                          uint64_t arg = 0) {
    ScheduleEvent(now_ + delay, handler, code, arg);
  }

  // Runs events until the queue drains. Returns the time of the last event.
  SimTime RunToCompletion();

  // Runs events with time <= deadline; later events stay queued.
  SimTime RunUntil(SimTime deadline);

  // Pre-sizes the heap and the callback pool for `pending` simultaneous
  // events, so a run with a known concurrency bound never grows either
  // structure mid-trace.
  void Reserve(size_t pending);

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

  // Pool introspection (tests and allocation accounting).
  size_t callback_pool_slots() const { return slabs_.size() * kSlotsPerSlab; }
  size_t overflow_chunks_allocated() const {
    return overflow_slabs_.size() * kOverflowChunksPerSlab;
  }

 private:
  // Heap entry: trivially copyable, moved by plain assignment during sifts.
  // handler == nullptr marks a callback event whose pool slot is in `arg`.
  struct Entry {
    SimTime when;
    uint64_t seq;
    EventHandler* handler;
    uint64_t arg;
    uint32_t code;
  };
  static_assert(std::is_trivially_copyable_v<Entry>);

  // Fixed-size callback storage, recycled through a free list. Slots live
  // in slabs that never move, so references stay valid while the pool
  // grows from inside a running callback.
  struct CallbackSlot {
    void (*invoke)(void* obj, SimTime now);
    void (*destroy)(void* obj);
    uint32_t next_free;
    bool overflow;  // storage holds a chunk pointer, not the object
    alignas(std::max_align_t) unsigned char storage[kInlineCallbackBytes];
  };

  struct OverflowChunk {
    alignas(std::max_align_t) unsigned char bytes[kOverflowCallbackBytes];
  };

  static constexpr size_t kSlotsPerSlab = 64;
  static constexpr size_t kOverflowChunksPerSlab = 8;
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  template <typename T>
  static void InvokeThunk(void* obj, SimTime now) {
    (*static_cast<T*>(obj))(now);
  }
  template <typename T>
  static void DestroyThunk(void* obj) {
    static_cast<T*>(obj)->~T();
  }

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

  // Pops and invokes the head event (typed or callback).
  void DispatchHead();
  void PopTop();
  void InvokeAndRecycle(uint32_t slot_index, SimTime now);
  void DestroyPendingCallbacks();

  CallbackSlot& SlotAt(uint32_t index) {
    return slabs_[index / kSlotsPerSlab][index % kSlotsPerSlab];
  }

  uint32_t AllocSlot() {
    if (free_slot_ == kNoSlot) {
      AddSlab();
    }
    const uint32_t index = free_slot_;
    free_slot_ = SlotAt(index).next_free;
    return index;
  }

  void FreeSlot(uint32_t index) {
    SlotAt(index).next_free = free_slot_;
    free_slot_ = index;
  }

  void AddSlab();
  void* AllocOverflowChunk();
  void FreeOverflowChunk(void* chunk) {
    std::memcpy(chunk, &overflow_free_, sizeof(overflow_free_));
    overflow_free_ = static_cast<OverflowChunk*>(chunk);
  }

  std::vector<Entry> heap_;
  SimTime now_ = 0;
  SimClock clock_;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  uint64_t inline_dispatches_ = 0;

  std::vector<std::unique_ptr<CallbackSlot[]>> slabs_;
  uint32_t free_slot_ = kNoSlot;
  std::vector<std::unique_ptr<OverflowChunk[]>> overflow_slabs_;
  OverflowChunk* overflow_free_ = nullptr;  // intrusive list in chunk bytes
};

// The legacy type-erased callback must take the inline path: nothing in the
// simulator may regress to per-event heap allocation by outgrowing a slot.
static_assert(sizeof(EventQueue::Callback) <= EventQueue::kInlineCallbackBytes,
              "std::function callbacks no longer fit an inline pool slot");

}  // namespace flashsim

#endif  // FLASHSIM_SRC_SIM_EVENT_QUEUE_H_
