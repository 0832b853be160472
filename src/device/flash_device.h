// Flash cache device model.
//
// Default mode treats the flash as a block device behind an opaque flash
// translation layer (§5): single average per-block read/write latencies,
// validated in §6.2. The device services up to flash_concurrency requests
// at once (NCQ-style); all traffic — foreground cache hits, asynchronous
// fills, writeback flushes — shares the device, so heavy background flash
// activity can delay foreground hits.
//
// FTL mode (the paper's §8 future work, see src/ftl/ftl.h) replaces the
// average latencies with per-operation costs derived from a page-mapped
// FTL: out-of-place writes, garbage-collection relocations, and erases.
// Cache evictions call Trim() so a caching-aware FTL can discard dead data
// instead of relocating it (the FlashTier idea).
#ifndef FLASHSIM_SRC_DEVICE_FLASH_DEVICE_H_
#define FLASHSIM_SRC_DEVICE_FLASH_DEVICE_H_

#include <deque>
#include <memory>

#include "src/device/timing.h"
#include "src/ftl/ftl.h"
#include "src/obs/telemetry.h"
#include "src/sim/resource.h"
#include "src/sim/sim_time.h"
#include "src/trace/record.h"
#include "src/util/assert.h"
#include "src/util/flat_hash.h"

namespace flashsim {

// Raw NAND operation timings used in FTL mode. The defaults are chosen so
// that a GC-free device matches Table 1's averages, making average-latency
// and FTL-backed runs directly comparable.
struct FtlDeviceTimings {
  SimDuration page_read_ns = 88 * kMicrosecond;
  SimDuration page_program_ns = 21 * kMicrosecond;
  SimDuration block_erase_ns = 2000 * kMicrosecond;
};

class FlashDevice {
 public:
  explicit FlashDevice(const TimingModel& timing)
      : timing_(&timing), resource_("flash", timing.flash_concurrency) {}

  // Switches to FTL mode. `logical_pages` is the cache capacity in blocks
  // (each cached block occupies one logical page); `ftl_params.logical_pages`
  // is overwritten with it.
  void EnableFtl(uint64_t logical_pages, FtlParams ftl_params, const FtlDeviceTimings& timings);

  // Arms mean-one lognormal noise (sigma > 0) on every service time. Each
  // draw is keyed by (stream_seed, this device's op counter) — a pure
  // function of the host's own history, independent of cross-host dispatch
  // order.
  void EnableNoise(double sigma, uint64_t stream_seed) {
    FLASHSIM_CHECK(sigma > 0.0);
    noise_sigma_ = sigma;
    stream_seed_ = stream_seed;
  }

  // Reads one cached block; returns completion time.
  SimTime Read(SimTime now);

  // Writes one block (persistence doubling applies in average mode; FTL
  // mode charges program + amortized GC work); returns completion time.
  SimTime Write(SimTime now, BlockKey key = 0);

  // Declares a block's contents dead (cache eviction/invalidation). A no-op
  // in average mode; frees the logical page in FTL mode.
  void Trim(BlockKey key);

  bool ftl_enabled() const { return ftl_ != nullptr; }
  const Ftl* ftl() const { return ftl_.get(); }

  // Telemetry service points (null = off; not owned). Probes see every
  // request — foreground hits, fills, and writeback flushes alike.
  void set_read_probe(obs::DeviceProbe* probe) { read_probe_ = probe; }
  void set_write_probe(obs::DeviceProbe* probe) { write_probe_ = probe; }

  uint64_t reads_plus_writes() const { return resource_.requests(); }
  // Load-triggered rehashes of the FTL key->LPN index (0 without FTL;
  // EnableFtl reserves for every logical page).
  uint64_t index_rehashes() const { return key_to_lpn_.growth_rehashes(); }
  SimDuration busy_time() const { return resource_.busy_time(); }
  const MultiResource& resource() const { return resource_; }

  void Reset() { resource_.Reset(); }

 private:
  // Maps a cache block key to its logical page, allocating on first write.
  uint64_t LpnForWrite(BlockKey key);

  SimDuration ServiceTime(const FtlCost& cost) const;

  // Applies the armed lognormal noise to a service time (identity when off).
  SimDuration ApplyNoise(SimDuration service);

  const TimingModel* timing_;
  MultiResource resource_;
  obs::DeviceProbe* read_probe_ = nullptr;
  obs::DeviceProbe* write_probe_ = nullptr;

  // Noise state (inert until EnableNoise).
  double noise_sigma_ = 0.0;
  uint64_t stream_seed_ = 0;
  uint64_t draw_counter_ = 0;

  // FTL mode state.
  std::unique_ptr<Ftl> ftl_;
  FtlDeviceTimings ftl_timings_;
  FlatHashMap<uint64_t> key_to_lpn_;
  std::vector<uint64_t> free_lpns_;  // trimmed or reclaimed pages, LIFO
  std::deque<BlockKey> allocation_order_;  // fallback reclaim when full
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_DEVICE_FLASH_DEVICE_H_
