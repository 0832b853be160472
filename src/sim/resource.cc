#include "src/sim/resource.h"

#include <algorithm>
#include <cstddef>

#include "src/util/assert.h"

namespace flashsim {

void Resource::Prune() {
  if (clock_ == nullptr) {
    return;
  }
  // Any future Acquire's start time is >= the current event time, so
  // intervals ending at or before it can never conflict again. Intervals
  // are disjoint and sorted by start, so ends are sorted too and the dead
  // ones form a prefix.
  size_t dead = 0;
  while (dead < intervals_.size() && intervals_[dead].end <= clock_->now) {
    ++dead;
  }
  if (dead > 0) {
    intervals_.erase(intervals_.begin(),
                     intervals_.begin() + static_cast<ptrdiff_t>(dead));
  }
}

SimTime Resource::FindGap(SimTime now, SimDuration service) const {
  SimTime cursor = now;
  auto it = std::upper_bound(intervals_.begin(), intervals_.end(), cursor,
                             [](SimTime t, const Interval& iv) { return t < iv.start; });
  if (it != intervals_.begin()) {
    auto prev = std::prev(it);
    if (prev->end > cursor) {
      cursor = prev->end;
    }
  }
  while (it != intervals_.end() && it->start < cursor + service) {
    cursor = std::max(cursor, it->end);
    ++it;
  }
  return cursor;
}

SimTime Resource::Acquire(SimTime now, SimDuration service) {
  FLASHSIM_DCHECK(service >= 0);
  Prune();
  const SimTime start = FindGap(now, service);
  const SimTime end = start + service;

  // Book [start, end), merging with touching neighbors to keep the set
  // small. Zero-length bookings still count for stats but occupy nothing.
  if (service > 0) {
    auto it = std::upper_bound(intervals_.begin(), intervals_.end(), start,
                               [](SimTime t, const Interval& iv) { return t < iv.start; });
    bool merged = false;
    if (it != intervals_.begin()) {
      auto prev = std::prev(it);
      if (prev->end == start) {
        prev->end = end;
        merged = true;
        // Absorb a touching successor.
        if (it != intervals_.end() && it->start == end) {
          prev->end = it->end;
          intervals_.erase(it);
        }
      }
    }
    if (!merged) {
      if (it != intervals_.end() && it->start == end) {
        // Extend the successor backwards; order by start is preserved.
        it->start = start;
      } else {
        intervals_.insert(it, Interval{start, end});
      }
    }
  }

  busy_time_ += service;
  wait_time_ += start - now;
  ++requests_;
  return end;
}

MultiResource::MultiResource(std::string name, int servers) : name_(std::move(name)) {
  FLASHSIM_CHECK(servers >= 1);
  free_times_.assign(static_cast<size_t>(servers), 0);
}

SimTime MultiResource::Acquire(SimTime now, SimDuration service) {
  FLASHSIM_DCHECK(service >= 0);
  // free_times_ is maintained as a min-heap on next-free time.
  std::pop_heap(free_times_.begin(), free_times_.end(), std::greater<SimTime>());
  SimTime& slot = free_times_.back();
  const SimTime start = std::max(now, slot);
  slot = start + service;
  std::push_heap(free_times_.begin(), free_times_.end(), std::greater<SimTime>());
  busy_time_ += service;
  const SimDuration waited = start - now;
  wait_time_ += waited;
  if (waited > 0) {
    ++queued_requests_;
    max_wait_ = std::max(max_wait_, waited);
  }
  ++requests_;
  return start + service;
}

}  // namespace flashsim
