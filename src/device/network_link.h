// Per-host network segment to the filer.
//
// Each host has a private segment (§3); each segment direction carries one
// packet at a time, and each packet costs a fixed base latency plus a small
// per-bit transfer time (§5). An I/O uses one packet each way: reads send a
// small request and receive a data packet; writes send a data packet and
// receive a small acknowledgement.
#ifndef FLASHSIM_SRC_DEVICE_NETWORK_LINK_H_
#define FLASHSIM_SRC_DEVICE_NETWORK_LINK_H_

#include <cstdint>

#include "src/device/timing.h"
#include "src/obs/telemetry.h"
#include "src/sim/resource.h"
#include "src/sim/sim_time.h"

namespace flashsim {

class NetworkLink {
 public:
  NetworkLink(const TimingModel& timing, uint32_t block_bytes, const SimClock* clock = nullptr)
      : timing_(&timing),
        block_bytes_(block_bytes),
        to_filer_("net.to_filer", clock),
        from_filer_("net.from_filer", clock) {}

  // Header-only packet (read request, write ack).
  SimDuration SmallPacketTime() const { return timing_->net_packet_base_ns; }

  // Packet carrying one block of data.
  SimDuration DataPacketTime() const {
    return timing_->net_packet_base_ns +
           static_cast<SimDuration>(block_bytes_) * 8 * timing_->net_per_bit_ns;
  }

  // Occupies the host->filer direction; returns packet arrival time.
  SimTime SendToFiler(SimTime now, bool carries_data) {
    const SimDuration wire = carries_data ? DataPacketTime() : SmallPacketTime();
    const SimTime done = to_filer_.Acquire(now, wire);
    if (to_filer_probe_ != nullptr) {
      to_filer_probe_->Record(now, done - wire, done);
    }
    return done;
  }

  // Occupies the filer->host direction; returns packet arrival time.
  SimTime SendToHost(SimTime now, bool carries_data) {
    const SimDuration wire = carries_data ? DataPacketTime() : SmallPacketTime();
    const SimTime done = from_filer_.Acquire(now, wire);
    if (from_filer_probe_ != nullptr) {
      from_filer_probe_->Record(now, done - wire, done);
    }
    return done;
  }

  // Telemetry service points, one per direction (null = off; not owned).
  void set_to_filer_probe(obs::DeviceProbe* probe) { to_filer_probe_ = probe; }
  void set_from_filer_probe(obs::DeviceProbe* probe) { from_filer_probe_ = probe; }

  SimDuration busy_time() const { return to_filer_.busy_time() + from_filer_.busy_time(); }
  SimDuration wait_time() const { return to_filer_.wait_time() + from_filer_.wait_time(); }
  uint64_t packets() const { return to_filer_.requests() + from_filer_.requests(); }
  const Resource& to_filer() const { return to_filer_; }
  const Resource& from_filer() const { return from_filer_; }

 private:
  const TimingModel* timing_;
  uint32_t block_bytes_;
  Resource to_filer_;
  Resource from_filer_;
  obs::DeviceProbe* to_filer_probe_ = nullptr;
  obs::DeviceProbe* from_filer_probe_ = nullptr;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_DEVICE_NETWORK_LINK_H_
