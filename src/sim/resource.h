// Timeline resources: FIFO servers modeled without per-completion events.
//
// Every thread has at most one outstanding I/O (§5), so an operation's full
// path (request packet, filer service, response packet) can be computed
// when the operation starts by *booking* each stage on its resource at the
// stage's actual start time — possibly milliseconds in the future (a slow
// filer read books its response packet after the 8 ms service). Because
// bookings land in the future, a single next-free scalar would let one
// booking blockade the resource's idle gaps; Resource therefore keeps a set
// of busy intervals and places each request in the first gap at or after
// its request time. This is physically exact for a serial link: the wire is
// genuinely idle between a request packet and its distant response.
//
// Intervals whose end precedes the simulation watermark (the event queue's
// current time) can never conflict with a future request — every booking's
// start time is at or after the event that made it — so they are pruned
// lazily and the interval set stays tiny.
#ifndef FLASHSIM_SRC_SIM_RESOURCE_H_
#define FLASHSIM_SRC_SIM_RESOURCE_H_

#include <string>
#include <vector>

#include "src/sim/sim_time.h"

namespace flashsim {

// Monotone simulation clock shared by the event queue and resources.
struct SimClock {
  SimTime now = 0;
};

// Single-server resource (a network segment direction) with gap-aware
// booking. `clock` may be null (no pruning; fine for short-lived tests).
class Resource {
 public:
  explicit Resource(std::string name, const SimClock* clock = nullptr)
      : name_(std::move(name)), clock_(clock) {}

  // Books `service` time units at the first instant >= now the server is
  // free for that long; returns the completion time.
  SimTime Acquire(SimTime now, SimDuration service);

  SimDuration busy_time() const { return busy_time_; }
  SimDuration wait_time() const { return wait_time_; }
  uint64_t requests() const { return requests_; }
  size_t booked_intervals() const { return intervals_.size(); }
  const std::string& name() const { return name_; }

 private:
  struct Interval {
    SimTime start;
    SimTime end;
  };

  // Start of the first gap >= now that fits `service`.
  SimTime FindGap(SimTime now, SimDuration service) const;
  void Prune();

  std::string name_;
  const SimClock* clock_;
  // Disjoint busy intervals sorted by start. A flat vector rather than a
  // tree: pruning keeps the set tiny (a handful of entries), inserts shift
  // a few PODs, and — unlike per-node tree allocation — the steady state
  // never touches the heap (tests/telemetry_alloc_test.cc counts on this).
  std::vector<Interval> intervals_;
  SimDuration busy_time_ = 0;
  SimDuration wait_time_ = 0;
  uint64_t requests_ = 0;
};

// k-server FIFO resource (the filer's request-processing pool, the flash
// device's internal parallelism). Requests start on the earliest-free
// server; per-server scalar timelines are kept because with many servers a
// future booking occupies only one of them.
class MultiResource {
 public:
  MultiResource(std::string name, int servers);

  SimTime Acquire(SimTime now, SimDuration service);

  SimDuration busy_time() const { return busy_time_; }
  SimDuration wait_time() const { return wait_time_; }
  uint64_t requests() const { return requests_; }
  // Requests that found every server occupied and had to queue, and the
  // longest single wait — the saturation signals behind the §7.7 knee.
  uint64_t queued_requests() const { return queued_requests_; }
  SimDuration max_wait() const { return max_wait_; }
  int servers() const { return static_cast<int>(free_times_.size()); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  // Min-heap of per-server next-free times.
  std::vector<SimTime> free_times_;
  SimDuration busy_time_ = 0;
  SimDuration wait_time_ = 0;
  uint64_t requests_ = 0;
  uint64_t queued_requests_ = 0;
  SimDuration max_wait_ = 0;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_SIM_RESOURCE_H_
