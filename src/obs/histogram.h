// Telemetry histogram: log-bucketed latency distribution with exact
// integer state.
//
// Reuses LatencyHistogram's bucket geometry (8 linear sub-buckets per
// octave, 512 buckets over the full int64 range) but keeps every
// accumulator — count, sum, min, max, buckets — as an integer, so its JSON
// is a pure function of the recorded values (DESIGN.md §10).
//
// Staged recording (DESIGN.md §13): Record is one store into a fixed
// staging array; values drain into the buckets at capacity or whenever any
// reader needs the state (count, sum, min, max, mean, the quantiles,
// buckets() and ToJson all flush first). Every accumulator is
// order-independent, so the observable state at every read point is
// exactly what adding each value as it came would have produced — staging
// moves the arithmetic off the hot path, it never changes the answer
// (tests/telemetry_test.cc checks it against that longhand).
#ifndef FLASHSIM_SRC_OBS_HISTOGRAM_H_
#define FLASHSIM_SRC_OBS_HISTOGRAM_H_

#include <array>
#include <cstdint>

#include "src/util/json.h"
#include "src/util/stats.h"

namespace flashsim {
namespace obs {

class Histogram {
 public:
  // Staging capacity: 512 bytes of inline storage, sized so a flush
  // amortizes the bucket-index arithmetic without growing the registry's
  // footprint meaningfully. No heap allocation.
  static constexpr uint32_t kBatchCapacity = 64;

  // Records one non-negative duration (negative values clamp to 0, matching
  // LatencyHistogram::Add).
  void Record(int64_t value_ns) {
    staged_[staged_count_++] = value_ns;
    if (staged_count_ == kBatchCapacity) {
      Flush();
    }
  }

  // Drains the staged values. One pass computing batch sum/min/max plus a
  // fused bucket-increment loop — exactly equivalent to adding each value
  // in recording order, because every accumulator here is
  // order-independent (integer sum, min, max, bucket counts). Logically
  // const: staging is a deferral of already-recorded values, not state.
  void Flush() const {
    if (staged_count_ == 0) {
      return;
    }
    const bool was_empty = buckets_.count() == 0;
    const LatencyHistogram::BatchStats stats =
        buckets_.AddBatch(staged_.data(), staged_count_);
    sum_ += stats.sum;
    if (was_empty || stats.min < min_) {
      min_ = stats.min;
    }
    if (was_empty || stats.max > max_) {
      max_ = stats.max;
    }
    staged_count_ = 0;
  }

  uint64_t count() const {
    Flush();
    return buckets_.count();
  }
  int64_t sum() const {
    Flush();
    return sum_;
  }
  int64_t min() const { return count() == 0 ? 0 : min_; }
  int64_t max() const { return count() == 0 ? 0 : max_; }
  double mean() const {
    return count() == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count());
  }

  // Approximate quantiles from the log buckets (worst-case error < 13%).
  int64_t Quantile(double q) const {
    Flush();
    return buckets_.Quantile(q);
  }
  int64_t p50() const { return Quantile(0.50); }
  int64_t p90() const { return Quantile(0.90); }
  int64_t p99() const { return Quantile(0.99); }
  int64_t p999() const { return Quantile(0.999); }

  const LatencyHistogram& buckets() const {
    Flush();
    return buckets_;
  }

  // {"count":..,"sum_ns":..,"min_ns":..,"max_ns":..,"mean_us":..,
  //  "p50_us":..,"p90_us":..,"p99_us":..,"p999_us":..,"buckets":[[i,c],..]}
  JsonValue ToJson() const;

 private:
  // Mutable so Flush stays const-callable from every reader: a flush only
  // materializes state that was already logically recorded.
  mutable LatencyHistogram buckets_;
  mutable int64_t sum_ = 0;
  mutable int64_t min_ = 0;
  mutable int64_t max_ = 0;
  mutable std::array<int64_t, kBatchCapacity> staged_;
  mutable uint32_t staged_count_ = 0;
};

}  // namespace obs
}  // namespace flashsim

#endif  // FLASHSIM_SRC_OBS_HISTOGRAM_H_
