#include "src/util/stats.h"

#include <bit>
#include <cmath>
#include <cstdio>

#include "src/util/assert.h"

namespace flashsim {

void StreamingStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    if (x < min_) {
      min_ = x;
    }
    if (x > max_) {
      max_ = x;
    }
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void StreamingStats::Reset() { *this = StreamingStats(); }

double StreamingStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

int64_t LatencyHistogram::BucketMidpoint(int index) {
  if (index < (1 << kSubBucketBits)) {
    return index;
  }
  const int octave = (index >> kSubBucketBits) - 1;
  const int sub = index & ((1 << kSubBucketBits) - 1);
  const int64_t base = (static_cast<int64_t>(1) << (octave + kSubBucketBits)) +
                       (static_cast<int64_t>(sub) << octave);
  const int64_t width = static_cast<int64_t>(1) << octave;
  return base + width / 2;
}

void LatencyHistogram::Add(int64_t value_ns) {
  ++buckets_[static_cast<size_t>(BucketIndex(value_ns))];
  ++count_;
}

int64_t LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  FLASHSIM_CHECK(q >= 0.0 && q <= 1.0);
  const uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      return BucketMidpoint(static_cast<int>(i));
    }
  }
  return BucketMidpoint(kNumBuckets - 1);
}

std::string LatencyRecorder::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "count=%llu mean=%.2fus p50=%.2fus p99=%.2fus max=%.2fus",
                static_cast<unsigned long long>(count()), mean_us(),
                static_cast<double>(p50_ns()) / 1000.0, static_cast<double>(p99_ns()) / 1000.0,
                static_cast<double>(max_ns()) / 1000.0);
  return buf;
}

}  // namespace flashsim
