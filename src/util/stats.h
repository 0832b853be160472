// Streaming statistics and latency histograms.
//
// The simulator's governing metric is application-observed latency (§7); we
// track count/mean/min/max exactly (Welford for variance) plus a log-scale
// histogram giving approximate percentiles without storing samples.
#ifndef FLASHSIM_SRC_UTIL_STATS_H_
#define FLASHSIM_SRC_UTIL_STATS_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace flashsim {

// Exact first/second-moment accumulator (Welford's online algorithm).
class StreamingStats {
 public:
  void Add(double x);
  void Reset();

  uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }

  // Raw accumulator state for the harness JSON sink: the stored values
  // without the count==0 masking above.
  double raw_m2() const { return m2_; }
  double raw_min() const { return min_; }
  double raw_max() const { return max_; }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Latency recorder over non-negative integer values (nanoseconds).
//
// Buckets are log2-spaced with 8 linear sub-buckets per octave, giving a
// worst-case quantile error under 13% across the full int64 range while
// using a fixed 512-bucket footprint.
class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 3;  // 8 sub-buckets per octave
  static constexpr int kNumBuckets = 64 << kSubBucketBits;

  void Add(int64_t value_ns);
  // One-pass batch statistics over the clamped (negative -> 0) values,
  // computed alongside the bucket increments in AddBatch.
  struct BatchStats {
    int64_t sum = 0;
    int64_t min = 0;
    int64_t max = 0;
  };
  // Adds n values (n >= 1) in one pass, equivalent to n Add calls in any
  // order (the buckets are pure increments), and returns the batch's
  // clamped sum/min/max — obs::Histogram's staged-flush primitive, inline
  // so everything fuses into a single loop over the staging array.
  BatchStats AddBatch(const int64_t* values, size_t n) {
    BatchStats stats;
    stats.min = values[0] < 0 ? 0 : values[0];
    stats.max = stats.min;
    for (size_t i = 0; i < n; ++i) {
      ++buckets_[static_cast<size_t>(BucketIndex(values[i]))];
      int64_t v = values[i];
      if (v < 0) {
        v = 0;
      }
      stats.sum += v;
      if (v < stats.min) {
        stats.min = v;
      }
      if (v > stats.max) {
        stats.max = v;
      }
    }
    count_ += n;
    return stats;
  }

  uint64_t count() const { return count_; }
  // Approximate quantile (q in [0,1]); returns a representative value from
  // the bucket containing the q-th sample.
  int64_t Quantile(double q) const;
  int64_t p50() const { return Quantile(0.50); }
  int64_t p99() const { return Quantile(0.99); }

  // Direct bucket access for serialization.
  const std::array<uint64_t, kNumBuckets>& buckets() const { return buckets_; }

 private:
  static int BucketIndex(int64_t value) {
    if (value < 0) {
      value = 0;
    }
    const uint64_t v = static_cast<uint64_t>(value);
    if (v < (1u << kSubBucketBits)) {
      return static_cast<int>(v);
    }
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - kSubBucketBits;
    const int sub = static_cast<int>((v >> shift) & ((1u << kSubBucketBits) - 1));
    return ((msb - kSubBucketBits + 1) << kSubBucketBits) + sub;
  }
  static int64_t BucketMidpoint(int index);

  std::array<uint64_t, kNumBuckets> buckets_{};
  uint64_t count_ = 0;
};

// Combined mean + histogram latency tracker, the unit of metric collection.
class LatencyRecorder {
 public:
  void Record(int64_t latency_ns) {
    stats_.Add(static_cast<double>(latency_ns));
    histogram_.Add(latency_ns);
  }

  uint64_t count() const { return stats_.count(); }
  double mean_ns() const { return stats_.mean(); }
  double mean_us() const { return stats_.mean() / 1000.0; }
  int64_t max_ns() const { return static_cast<int64_t>(stats_.max()); }
  int64_t p50_ns() const { return histogram_.p50(); }
  int64_t p99_ns() const { return histogram_.p99(); }
  int64_t quantile_ns(double q) const { return histogram_.Quantile(q); }
  const StreamingStats& stats() const { return stats_; }
  const LatencyHistogram& histogram() const { return histogram_; }

  // "count=… mean=…us p50=…us p99=…us" for logs and reports.
  std::string Summary() const;

 private:
  StreamingStats stats_;
  LatencyHistogram histogram_;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_UTIL_STATS_H_
