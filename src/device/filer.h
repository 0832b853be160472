// Shared file server ("filer") model.
//
// The paper deliberately does not model the filer's internals (§5): reads
// are "fast" (its cache/read-ahead hit) with probability
// filer_fast_read_rate and "slow" otherwise; writes land in nonvolatile
// buffer memory and are always fast. The filer serves requests with bounded
// concurrency; the network segments, not the filer, are the intended
// contention point.
#ifndef FLASHSIM_SRC_DEVICE_FILER_H_
#define FLASHSIM_SRC_DEVICE_FILER_H_

#include <cstdint>

#include "src/device/timing.h"
#include "src/obs/telemetry.h"
#include "src/sim/resource.h"
#include "src/sim/sim_time.h"
#include "src/util/rng.h"

namespace flashsim {

class Filer {
 public:
  Filer(const TimingModel& timing, uint64_t rng_seed)
      : timing_(&timing), rng_(rng_seed), servers_("filer", timing.filer_concurrency) {}

  // Services one block read; sets *was_fast and returns completion time.
  SimTime Read(SimTime now, bool* was_fast) {
    const bool fast = rng_.NextBool(timing_->filer_fast_read_rate);
    if (was_fast != nullptr) {
      *was_fast = fast;
    }
    fast ? ++fast_reads_ : ++slow_reads_;
    const SimDuration service =
        fast ? timing_->filer_fast_read_ns : timing_->filer_slow_read_ns;
    const SimTime done = servers_.Acquire(now, service);
    if (read_probe_ != nullptr) {
      read_probe_->Record(now, done - service, done);
    }
    return done;
  }

  // Services one block write (buffered, always fast); returns completion.
  SimTime Write(SimTime now) {
    ++writes_;
    const SimTime done = servers_.Acquire(now, timing_->filer_write_ns);
    if (write_probe_ != nullptr) {
      write_probe_->Record(now, done - timing_->filer_write_ns, done);
    }
    return done;
  }

  // Services one coherence control message (directory lookup, invalidation
  // report, reconciled dirty flush; DESIGN.md §15). Occupies the same
  // server pool as data — protocol traffic queues behind reads and writes —
  // but draws no RNG (so enabling a protocol never perturbs the fast/slow
  // read stream) and counts separately from data reads/writes (so the
  // auditor's conservation identities are untouched).
  SimTime ServeControl(SimTime now, SimDuration service) {
    ++control_messages_;
    const SimTime done = servers_.Acquire(now, service);
    if (ctrl_probe_ != nullptr) {
      ctrl_probe_->Record(now, done - service, done);
    }
    return done;
  }

  // Telemetry service points (null = off; not owned). The filer is shared
  // across hosts, so these probes aggregate all hosts' traffic.
  void set_read_probe(obs::DeviceProbe* probe) { read_probe_ = probe; }
  void set_write_probe(obs::DeviceProbe* probe) { write_probe_ = probe; }
  void set_ctrl_probe(obs::DeviceProbe* probe) { ctrl_probe_ = probe; }

  uint64_t fast_reads() const { return fast_reads_; }
  uint64_t slow_reads() const { return slow_reads_; }
  uint64_t reads() const { return fast_reads_ + slow_reads_; }
  uint64_t writes() const { return writes_; }
  uint64_t control_messages() const { return control_messages_; }
  SimDuration busy_time() const { return servers_.busy_time(); }
  SimDuration wait_time() const { return servers_.wait_time(); }
  // Requests that queued behind a full server pool, and the worst such
  // wait; per-shard saturation depth for the sharded backend's metrics.
  uint64_t queued_requests() const { return servers_.queued_requests(); }
  SimDuration max_wait() const { return servers_.max_wait(); }

 private:
  const TimingModel* timing_;
  Rng rng_;
  MultiResource servers_;
  obs::DeviceProbe* read_probe_ = nullptr;
  obs::DeviceProbe* write_probe_ = nullptr;
  obs::DeviceProbe* ctrl_probe_ = nullptr;
  uint64_t fast_reads_ = 0;
  uint64_t slow_reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t control_messages_ = 0;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_DEVICE_FILER_H_
