#include "src/device/ssd_profile.h"

#include <algorithm>
#include <cmath>

#include "src/util/distributions.h"

namespace flashsim {

double SsdProfile::FillFraction() const {
  if (params_.capacity_blocks == 0) {
    return 0.0;
  }
  return static_cast<double>(filled_blocks_) / static_cast<double>(params_.capacity_blocks);
}

double SsdProfile::LognormalNoise(double sigma) {
  // Mean-one lognormal: exp(N(-sigma^2/2, sigma^2)) has expectation 1, so the
  // noise scales variance without shifting the average latency.
  const double z = SampleStandardNormal(rng_);
  return std::exp(sigma * z - 0.5 * sigma * sigma);
}

SimDuration SsdProfile::ReadLatency() {
  ++total_reads_;
  const double fill_term = params_.fill_read_penalty * FillFraction();
  double pressure = 0.0;
  if (params_.capacity_blocks > 0) {
    pressure = static_cast<double>(total_writes_) / static_cast<double>(params_.capacity_blocks);
    pressure = std::min(pressure, params_.write_pressure_cap);
  }
  const double mean_scale = 1.0 + fill_term + params_.write_pressure_penalty * pressure;
  const double latency = static_cast<double>(params_.base_read_ns) * mean_scale *
                         LognormalNoise(params_.read_noise_sigma);
  return static_cast<SimDuration>(latency);
}

SimDuration SsdProfile::WriteLatency() {
  ++total_writes_;
  // Key §6.2 finding: the average write latency is constant for the life of
  // the device, across all workloads; only the variance shows.
  const double latency =
      static_cast<double>(params_.base_write_ns) * LognormalNoise(params_.write_noise_sigma);
  return static_cast<SimDuration>(latency);
}

}  // namespace flashsim
