// RAM buffer-cache access model: a fixed per-block copy cost.
//
// RAM bandwidth (~10 GB/s) is far above any workload here, so the RAM
// "device" is not a contended timeline; each access simply costs
// ram_access_ns on the requesting thread (§7 chose 400 ns per 4 KB block).
#ifndef FLASHSIM_SRC_DEVICE_RAM_DEVICE_H_
#define FLASHSIM_SRC_DEVICE_RAM_DEVICE_H_

#include "src/device/timing.h"
#include "src/obs/telemetry.h"
#include "src/sim/sim_time.h"

namespace flashsim {

class RamDevice {
 public:
  explicit RamDevice(const TimingModel& timing) : timing_(&timing) {}

  SimTime Read(SimTime now) {
    ++accesses_;
    const SimTime done = now + timing_->ram_access_ns;
    if (probe_ != nullptr) {
      probe_->Record(now, now, done);
    }
    return done;
  }
  SimTime Write(SimTime now) {
    ++accesses_;
    const SimTime done = now + timing_->ram_access_ns;
    if (probe_ != nullptr) {
      probe_->Record(now, now, done);
    }
    return done;
  }

  // Telemetry service point (null = off; not owned). RAM is uncontended, so
  // one probe covers both directions.
  void set_probe(obs::DeviceProbe* probe) { probe_ = probe; }

  uint64_t accesses() const { return accesses_; }

 private:
  const TimingModel* timing_;
  obs::DeviceProbe* probe_ = nullptr;
  uint64_t accesses_ = 0;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_DEVICE_RAM_DEVICE_H_
