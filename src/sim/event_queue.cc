#include "src/sim/event_queue.h"

#include <algorithm>

namespace flashsim {

SimTime EventQueue::RunToCompletion() { return RunUntil(kSimTimeNever); }

SimTime EventQueue::RunUntil(SimTime deadline) {
  while (!heap_.empty() && heap_[0].when <= deadline) {
    DispatchHead();
  }
  return now_;
}

void EventQueue::DispatchHead() {
  // Pop-then-dispatch: the entry is a 40-byte POD copy, so the handler may
  // freely schedule new events.
  const Entry entry = heap_[0];
  PopTop();
  now_ = entry.when;
  clock_.now = entry.when;
  ++events_processed_;
  entry.handler->HandleEvent(entry.when, entry.code, entry.arg);
}

void EventQueue::PopTop() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  size_t i = 0;
  for (;;) {
    const size_t first_child = 4 * i + 1;
    if (first_child >= n) {
      break;
    }
    size_t best = first_child;
    const size_t end = std::min(first_child + 4, n);
    for (size_t c = first_child + 1; c < end; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], last)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

}  // namespace flashsim
