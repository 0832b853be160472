#include "src/arch/host_rig.h"

namespace flashsim {

HostRig::HostRig(Architecture arch, const StackConfig& stack_config, const TimingModel& timing,
                 uint32_t block_bytes, EventQueue& queue, StorageBackend& backend)
    : ram_dev(timing),
      flash_dev(timing),
      link(timing, block_bytes, queue.clock()),
      remote(backend.Connect(link)),
      writer(queue, *remote, &flash_dev, timing.writeback_window) {
  if (timing.use_ftl && stack_config.flash_blocks > 0) {
    FtlParams ftl_params;
    ftl_params.overprovision = timing.ftl_overprovision;
    ftl_params.pages_per_block = timing.ftl_pages_per_block;
    ftl_params.wear_weight = timing.ftl_wear_weight;
    FtlDeviceTimings ftl_timings;
    ftl_timings.page_read_ns = timing.ftl_page_read_ns;
    ftl_timings.page_program_ns = timing.ftl_page_program_ns;
    ftl_timings.block_erase_ns = timing.ftl_block_erase_ns;
    flash_dev.EnableFtl(stack_config.flash_blocks, ftl_params, ftl_timings);
  }
  stack = MakeCacheStack(arch, stack_config, ram_dev, flash_dev, *remote, writer);
}

}  // namespace flashsim
