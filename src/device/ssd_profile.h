// Synthetic consumer-SSD latency profile (substitute for §6.2 / Fig 1).
//
// The paper bought two consumer SSDs and replayed simulator I/O logs to
// check that single average latencies are a sound model. We cannot measure
// hardware here, so this model synthesizes a device with the three
// behaviors the paper observed:
//
//   1. High short-term latency variance that averages out over 10k-100k
//      block groups (lognormal multiplicative noise).
//   2. A single stable average write latency from beginning to end, across
//      all workloads (write-path caching inside the device).
//   3. Read latency that fluctuates and degrades as the device fills and as
//      cumulative write volume grows (a weak monotone relationship).
//
// bench/fig01_ssd_latency replays a cache-shaped workload through this model
// and prints 10k-I/O group averages, reproducing the shape of Fig 1.
#ifndef FLASHSIM_SRC_DEVICE_SSD_PROFILE_H_
#define FLASHSIM_SRC_DEVICE_SSD_PROFILE_H_

#include <cstdint>

#include "src/sim/sim_time.h"
#include "src/util/rng.h"

namespace flashsim {

struct SsdProfileParams {
  uint64_t capacity_blocks = 0;       // device size; reads degrade as it fills
  SimDuration base_read_ns = 88'000;  // latency at an empty, fresh device
  SimDuration base_write_ns = 21'000;
  double read_noise_sigma = 0.45;   // lognormal sigma of per-I/O read noise
  double write_noise_sigma = 0.30;  // writes are noisy too, but mean-stable
  double fill_read_penalty = 0.55;  // max fractional read slowdown when full
  double write_pressure_penalty = 0.25;  // read slowdown per (writes/capacity)
  double write_pressure_cap = 1.0;       // cap on the write-pressure term
};

class SsdProfile {
 public:
  // Noise draws come from one sequential stream seeded by rng_seed.
  SsdProfile(const SsdProfileParams& params, uint64_t rng_seed)
      : params_(params), rng_(rng_seed) {}

  // Returns per-I/O latency; advances internal device state.
  SimDuration ReadLatency();
  SimDuration WriteLatency();

  // Marks a block resident (fills the device); idempotent callers should
  // only invoke on first-touch writes.
  void NoteFill() {
    if (filled_blocks_ < params_.capacity_blocks) {
      ++filled_blocks_;
    }
  }

  double FillFraction() const;
  uint64_t total_reads() const { return total_reads_; }
  uint64_t total_writes() const { return total_writes_; }

 private:
  double LognormalNoise(double sigma);

  SsdProfileParams params_;
  Rng rng_;
  uint64_t filled_blocks_ = 0;
  uint64_t total_reads_ = 0;
  uint64_t total_writes_ = 0;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_DEVICE_SSD_PROFILE_H_
