// Telemetry subsystem tests (src/obs/): histogram bucket geometry and
// quantile math, staged recording against its longhand, the sweep
// determinism contract (every point's stats JSON is the same bytes serial
// and under --jobs=4), the sampler's rate derivation, and the stats JSON
// surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/arch/stack_factory.h"
#include "src/core/experiment.h"
#include "src/harness/harness.h"
#include "src/obs/histogram.h"
#include "src/obs/sampler.h"
#include "src/obs/telemetry.h"
#include "src/sim/sim_time.h"

namespace flashsim {
namespace {

// --- Histogram: bucket boundaries -----------------------------------------

TEST(TelemetryHistogram, SmallValuesGetExactBuckets) {
  // Below 2^kSubBucketBits the mapping is the identity: one value per
  // bucket, no approximation.
  obs::Histogram h;
  for (int64_t v = 0; v < 8; ++v) {
    h.Record(v);
  }
  const auto& raw = h.buckets().buckets();
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(raw[i], 1u) << "bucket " << i;
  }
  for (size_t i = 8; i < raw.size(); ++i) {
    EXPECT_EQ(raw[i], 0u) << "bucket " << i;
  }
}

TEST(TelemetryHistogram, OctaveBoundaries) {
  // 8..15 fill the second octave's sub-buckets one-to-one; 16 starts the
  // next octave (index 16); a power of two always lands on its octave base
  // (index (log2(v) - kSubBucketBits + 1) * 8).
  obs::Histogram h;
  h.Record(8);
  h.Record(15);
  h.Record(16);
  h.Record(int64_t{1} << 20);
  const auto& raw = h.buckets().buckets();
  EXPECT_EQ(raw[8], 1u);
  EXPECT_EQ(raw[15], 1u);
  EXPECT_EQ(raw[16], 1u);
  EXPECT_EQ(raw[(20 - 3 + 1) * 8], 1u);
  EXPECT_EQ(h.count(), 4u);
}

TEST(TelemetryHistogram, NegativeValuesClampToZero) {
  obs::Histogram h;
  h.Record(-12345);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.buckets().buckets()[0], 1u);
}

TEST(TelemetryHistogram, TracksSumMinMaxMeanExactly) {
  obs::Histogram h;
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  h.Record(1000);
  h.Record(3000);
  h.Record(500);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 4500);
  EXPECT_EQ(h.min(), 500);
  EXPECT_EQ(h.max(), 3000);
  EXPECT_DOUBLE_EQ(h.mean(), 1500.0);
}

// --- Histogram: quantile math ----------------------------------------------

TEST(TelemetryHistogram, QuantilesExactForSubOctaveValues) {
  // Values below 8 occupy exact buckets whose midpoint is the value itself,
  // so quantiles are exact: 90 fours then 10 sevens.
  obs::Histogram h;
  for (int i = 0; i < 90; ++i) {
    h.Record(4);
  }
  for (int i = 0; i < 10; ++i) {
    h.Record(7);
  }
  EXPECT_EQ(h.p50(), 4);
  EXPECT_EQ(h.Quantile(0.89), 4);
  EXPECT_EQ(h.Quantile(0.95), 7);
  EXPECT_EQ(h.p99(), 7);
}

TEST(TelemetryHistogram, QuantilesWithinLogBucketError) {
  // The log buckets guarantee < 13% relative error; check a realistic
  // latency mix: 900 at 25us, 100 at 1ms.
  obs::Histogram h;
  for (int i = 0; i < 900; ++i) {
    h.Record(25000);
  }
  for (int i = 0; i < 100; ++i) {
    h.Record(1000000);
  }
  EXPECT_NEAR(static_cast<double>(h.p50()), 25000.0, 25000.0 * 0.13);
  EXPECT_NEAR(static_cast<double>(h.p999()), 1000000.0, 1000000.0 * 0.13);
}

// --- Staged recording (DESIGN.md §13) --------------------------------------

// The longhand a staged histogram must agree with: every value added to a
// LatencyHistogram as it comes, with clamped sum/min/max kept beside it.
struct LonghandHistogram {
  void Add(int64_t v) {
    buckets.Add(v);
    v = std::max<int64_t>(v, 0);
    sum += v;
    min = buckets.count() == 1 ? v : std::min(min, v);
    max = buckets.count() == 1 ? v : std::max(max, v);
  }

  LatencyHistogram buckets;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
};

void ExpectMatchesLonghand(const obs::Histogram& h, const LonghandHistogram& want) {
  EXPECT_EQ(h.count(), want.buckets.count());
  EXPECT_EQ(h.sum(), want.sum);
  EXPECT_EQ(h.min(), want.min);
  EXPECT_EQ(h.max(), want.max);
  EXPECT_EQ(h.p50(), want.buckets.Quantile(0.50));
  EXPECT_EQ(h.p999(), want.buckets.Quantile(0.999));
  EXPECT_EQ(h.buckets().buckets(), want.buckets.buckets());
}

TEST(TelemetryHistogram, StagedRecordingMatchesLonghand) {
  // The same value stream, with reads at awkward points — mid batch,
  // exactly at capacity, right after a flush — must answer every getter as
  // the longhand does.
  obs::Histogram staged;
  LonghandHistogram longhand;
  std::mt19937_64 rng(99);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = static_cast<int64_t>(rng() % 3000000) - 50;  // negatives included
    staged.Record(v);
    longhand.Add(v);
    if (i % 97 == 0 || i % 64 == 63 || i % 64 == 0) {
      SCOPED_TRACE(i);
      ExpectMatchesLonghand(staged, longhand);
    }
  }
  ExpectMatchesLonghand(staged, longhand);
}

// --- Sweep determinism: serial vs parallel aggregation ----------------------

std::vector<Sweep::AxisValue> ArchitectureAxisValues() {
  std::vector<Sweep::AxisValue> values;
  for (Architecture arch : kAllArchitectures) {
    values.push_back(
        {ArchitectureName(arch), [arch](ExperimentParams& p) { p.arch = arch; }});
  }
  return values;
}

// Runs the same 6-point sweep with `jobs` workers, telemetry armed on every
// point, and concatenates each run's stats JSON in sweep order.
std::string SweepTelemetryBytes(int jobs) {
  ExperimentParams base;
  base.scale = 4096;
  base.telemetry.histograms = true;
  Sweep sweep(base);
  sweep.AddAxis("arch", ArchitectureAxisValues());
  sweep.AddAxis(
      "ws", std::vector<double>{5, 10},
      [](double ws) { return std::to_string(static_cast<int>(ws)); },
      [](ExperimentParams& p, double ws) { p.working_set_gib = ws; });
  std::string bytes;
  ParallelRunner runner(jobs);
  runner.RunOrdered(
      sweep.Expand(),
      [](const SweepPoint& point) { return RunExperiment(point.params); },
      [&bytes](const SweepPoint&, const ExperimentResult& result) {
        ASSERT_NE(result.telemetry, nullptr);
        bytes += result.telemetry->StatsJson().Dump();
        bytes += '\n';
      });
  return bytes;
}

TEST(TelemetryDeterminism, SerialAndParallelSweepsProduceIdenticalHistograms) {
  const std::string serial = SweepTelemetryBytes(1);
  const std::string parallel = SweepTelemetryBytes(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  // And the bytes actually carry data: every registered service point plus
  // the per-host op histograms appear.
  EXPECT_NE(serial.find("\"h0.op.read\":"), std::string::npos);
  EXPECT_NE(serial.find("\"h0.flash.read\":"), std::string::npos);
  EXPECT_NE(serial.find("\"filer.read\":"), std::string::npos);
}

TEST(TelemetryDeterminism, RepeatedRunsAreByteIdentical) {
  const std::string first = SweepTelemetryBytes(4);
  const std::string second = SweepTelemetryBytes(4);
  EXPECT_EQ(first, second);
}

TEST(TelemetryDeterminism, TelemetryDoesNotChangeSimulationResults) {
  // Arming every collector must not alter simulated behavior: metrics from
  // a telemetry-on run equal the telemetry-off run's bit for bit (the
  // sampler event only reads state).
  ExperimentParams params;
  params.scale = 4096;
  const ExperimentResult off = RunExperiment(params);
  params.telemetry.histograms = true;
  params.telemetry.spans = true;
  params.telemetry.sample_stride_ns = 10 * kMillisecond;
  const ExperimentResult on = RunExperiment(params);
  EXPECT_EQ(MetricsToJson(off.metrics).Dump(), MetricsToJson(on.metrics).Dump());
  ASSERT_NE(on.telemetry, nullptr);
  EXPECT_GT(on.telemetry->trace()->spans_recorded(), 0u);
  EXPECT_EQ(off.telemetry, nullptr);
}

// --- Sampler ----------------------------------------------------------------

TEST(TelemetrySampler, DerivesPerWindowRates) {
  obs::Sampler sampler(1000);
  obs::Sample s1;
  s1.t = 1000;
  s1.ram_hits = 80;
  s1.flash_hits = 10;
  s1.filer_reads = 10;
  s1.dirty_resident = 5;
  sampler.Add(s1);
  obs::Sample s2 = s1;
  s2.t = 2000;
  s2.flash_hits = 40;  // no RAM hits this window
  s2.filer_reads = 30;
  s2.queue_depth = 7;
  sampler.Add(s2);
  const JsonValue rows = sampler.ToJson();
  ASSERT_EQ(rows.size(), 2u);
  // Window 1: 100 reads, 80 from RAM.
  EXPECT_DOUBLE_EQ(rows.at(0).Get("ram_hit_rate")->AsDouble(), 0.8);
  EXPECT_EQ(rows.at(0).Get("read_blocks")->AsUint(), 100u);
  EXPECT_EQ(rows.at(0).Get("dirty_resident")->AsUint(), 5u);
  // Window 2: 50 reads, 0 RAM, 30 flash.
  EXPECT_DOUBLE_EQ(rows.at(1).Get("ram_hit_rate")->AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(rows.at(1).Get("flash_hit_rate")->AsDouble(), 0.6);
  EXPECT_EQ(rows.at(1).Get("queue_depth")->AsUint(), 7u);
}

TEST(TelemetrySampler, SimulationCollectsSamplesOnStride) {
  ExperimentParams params;
  params.scale = 4096;
  params.telemetry.sample_stride_ns = 5 * kMillisecond;
  const ExperimentResult result = RunExperiment(params);
  ASSERT_NE(result.telemetry, nullptr);
  ASSERT_NE(result.telemetry->sampler(), nullptr);
  const auto& samples = result.telemetry->sampler()->samples();
  ASSERT_GT(samples.size(), 2u);
  // Strides are exact sim-time multiples and counters are nondecreasing.
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].t, static_cast<SimTime>(i + 1) * 5 * kMillisecond);
    if (i > 0) {
      EXPECT_GE(samples[i].ram_hits, samples[i - 1].ram_hits);
      EXPECT_GE(samples[i].flash_hits, samples[i - 1].flash_hits);
      EXPECT_GE(samples[i].filer_reads, samples[i - 1].filer_reads);
    }
  }
  // Samples never overshoot the run's cumulative totals.
  EXPECT_LE(samples.back().ram_hits, result.metrics.stack_totals.ram_hits);
}

// --- Stats JSON surface ------------------------------------------------------

TEST(TelemetryStatsJson, CarriesHistogramsSamplesAndSpanCounts) {
  ExperimentParams params;
  params.scale = 4096;
  params.telemetry.histograms = true;
  params.telemetry.spans = true;
  params.telemetry.sample_stride_ns = 10 * kMillisecond;
  const ExperimentResult result = RunExperiment(params);
  ASSERT_NE(result.telemetry, nullptr);
  const JsonValue json = result.telemetry->StatsJson();
  const JsonValue* histograms = json.Get("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* op_read = histograms->Get("h0.op.read");
  ASSERT_NE(op_read, nullptr);
  ASSERT_NE(op_read->Get("count"), nullptr);
  EXPECT_GT(op_read->Get("count")->AsUint(), 0u);
  EXPECT_GE(op_read->Get("p99_us")->AsDouble(), op_read->Get("p50_us")->AsDouble());
  ASSERT_NE(json.Get("samples"), nullptr);
  ASSERT_NE(json.Get("spans"), nullptr);
  EXPECT_GT(json.Get("spans")->Get("recorded")->AsUint(), 0u);
  EXPECT_EQ(json.Get("spans")->Get("dropped")->AsUint(), 0u);
  // The document round-trips through the JSON parser.
  EXPECT_TRUE(JsonValue::Parse(json.Dump(2)).has_value());
}

TEST(TelemetryStatsJson, WriteStatsJsonFileEmitsParseableDocument) {
  ExperimentParams params;
  params.scale = 4096;
  params.telemetry.histograms = true;
  const ExperimentResult result = RunExperiment(params);
  const std::string path = ::testing::TempDir() + "/flashsim_stats.json";
  std::string error;
  ASSERT_TRUE(WriteStatsJsonFile(path, result.metrics, result.telemetry.get(), &error))
      << error;
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto parsed = JsonValue::Parse(buffer.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NE(parsed->Get("metrics"), nullptr);
  EXPECT_NE(parsed->Get("telemetry"), nullptr);
}

}  // namespace
}  // namespace flashsim
