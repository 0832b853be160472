#include "src/util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/util/rng.h"

namespace flashsim {
namespace {

TEST(StreamingStats, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(StreamingStats, SingleValue) {
  StreamingStats s;
  s.Add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 42.0);
  EXPECT_EQ(s.min(), 42.0);
  EXPECT_EQ(s.max(), 42.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(StreamingStats, KnownMoments) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StreamingStats, ResetClears) {
  StreamingStats s;
  s.Add(5000.0);
  s.Reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(LatencyHistogram, EmptyQuantileIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.Quantile(0.5), 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  LatencyHistogram h;
  for (int i = 0; i < 8; ++i) {
    h.Add(i);
  }
  EXPECT_EQ(h.Quantile(0.0), 0);
  EXPECT_EQ(h.Quantile(1.0), 7);
}

TEST(LatencyHistogram, QuantileWithinRelativeError) {
  LatencyHistogram h;
  Rng rng(4);
  std::vector<int64_t> values;
  for (int i = 0; i < 100000; ++i) {
    const int64_t v = static_cast<int64_t>(rng.NextBounded(10'000'000)) + 1;
    values.push_back(v);
    h.Add(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const int64_t exact = values[static_cast<size_t>(q * (values.size() - 1))];
    const int64_t approx = h.Quantile(q);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                0.15 * static_cast<double>(exact))
        << "q=" << q;
  }
}

TEST(LatencyHistogram, NegativeClampsToZero) {
  LatencyHistogram h;
  h.Add(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Quantile(0.5), 0);
}

TEST(LatencyHistogram, HandlesHugeValues) {
  LatencyHistogram h;
  h.Add(INT64_MAX / 2);
  EXPECT_GT(h.Quantile(0.5), INT64_MAX / 4);
}

TEST(LatencyRecorder, TracksMeanAndQuantiles) {
  LatencyRecorder r;
  for (int i = 1; i <= 1000; ++i) {
    r.Record(i * 1000);  // 1..1000 us
  }
  EXPECT_EQ(r.count(), 1000u);
  EXPECT_NEAR(r.mean_us(), 500.5, 0.001);
  EXPECT_NEAR(static_cast<double>(r.p50_ns()), 500500.0, 0.15 * 500500.0);
  EXPECT_NEAR(static_cast<double>(r.p99_ns()), 990000.0, 0.15 * 990000.0);
  EXPECT_EQ(r.max_ns(), 1000000);
}

TEST(LatencyRecorder, SummaryMentionsCount) {
  LatencyRecorder r;
  r.Record(1000);
  const std::string summary = r.Summary();
  EXPECT_NE(summary.find("count=1"), std::string::npos);
  EXPECT_NE(summary.find("mean="), std::string::npos);
}

}  // namespace
}  // namespace flashsim
