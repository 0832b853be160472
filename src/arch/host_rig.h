// One client host, wired once for everything that runs hosts: a RAM
// device, a flash device (FTL-backed when TimingModel::use_ftl is set), the
// host's private network link, that link's StorageService channel to the
// shared backend, a background writer, and the configured cache stack on
// top. The simulator, the differential rig, the coherence test net and the
// stack tests' harness all build their hosts from this one struct;
// coherence wiring across hosts lives in src/consistency/rig_transport.h.
#ifndef FLASHSIM_SRC_ARCH_HOST_RIG_H_
#define FLASHSIM_SRC_ARCH_HOST_RIG_H_

#include <cstdint>
#include <memory>

#include "src/arch/stack_factory.h"
#include "src/backend/storage_backend.h"
#include "src/device/background_writer.h"
#include "src/device/flash_device.h"
#include "src/device/network_link.h"
#include "src/device/ram_device.h"
#include "src/device/timing.h"
#include "src/sim/event_queue.h"

namespace flashsim {

struct HostRig {
  // The devices keep pointers into `timing`, the link reads `queue`'s
  // clock, the writer schedules on `queue`, and the channel borrows
  // `backend`: all three must outlive the rig.
  HostRig(Architecture arch, const StackConfig& stack_config, const TimingModel& timing,
          uint32_t block_bytes, EventQueue& queue, StorageBackend& backend);

  HostRig(const HostRig&) = delete;
  HostRig& operator=(const HostRig&) = delete;

  RamDevice ram_dev;
  FlashDevice flash_dev;
  NetworkLink link;
  std::unique_ptr<StorageService> remote;  // this host's channel to the backend
  BackgroundWriter writer;
  std::unique_ptr<CacheStack> stack;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_ARCH_HOST_RIG_H_
