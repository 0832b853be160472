// Flash-noise RNG substreams: a flash latency draw is keyed by (per-host
// stream seed, that device's own op counter) — a pure function of the
// host's own history. Two contracts:
//
//   1. Per-device draw sequences are independent of cross-device
//      interleaving.
//   2. With noise armed, results are bit-stable across sweep jobs ∈ {1, 4}.
//      (The fig02 8-host noisy sweep is also pinned to a committed digest
//      in golden_digest_test.)
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/backend/storage_backend.h"
#include "src/device/flash_device.h"
#include "src/device/timing.h"
#include "src/util/rng.h"

namespace flashsim {
namespace {

TEST(FlashStreamSeed, GoldenRatioSplitContract) {
  // One stream per (base_seed, host), disjoint across hosts and seeds, and
  // the 0xf1a5 domain tag keeps flash streams disjoint from the shard seed
  // family at equal indices.
  std::set<uint64_t> seen;
  for (uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    for (int h = 0; h < 64; ++h) {
      EXPECT_TRUE(seen.insert(FlashStreamSeed(seed, h)).second)
          << "collision at seed=" << seed << " host=" << h;
      EXPECT_NE(FlashStreamSeed(seed, h), ShardSeed(seed, h));
    }
  }
  // Draw keys within one stream are distinct as far as any run reaches.
  std::set<uint64_t> draws;
  const uint64_t stream = FlashStreamSeed(1, 0);
  for (uint64_t i = 0; i < 1 << 16; ++i) {
    EXPECT_TRUE(draws.insert(FlashDrawSeed(stream, i)).second) << "draw collision at " << i;
  }
}

// Issues `count` spaced reads (no queueing) and returns the noisy service
// times. Spacing 1 ms >> any noisy draw of an 88 µs nominal read.
std::vector<SimDuration> ServiceSequence(FlashDevice& dev, int count) {
  std::vector<SimDuration> seq;
  seq.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const SimTime now = static_cast<SimTime>(i) * kMillisecond;
    seq.push_back(dev.Read(now) - now);
  }
  return seq;
}

TEST(FlashSubstream, DrawSequenceIndependentOfInterleaving) {
  const TimingModel timing;
  constexpr double kSigma = 0.3;
  const uint64_t seed_a = FlashStreamSeed(7, 0);
  const uint64_t seed_b = FlashStreamSeed(7, 1);

  // Device A alone.
  FlashDevice alone(timing);
  alone.EnableNoise(kSigma, seed_a);
  const std::vector<SimDuration> reference = ServiceSequence(alone, 64);

  // Device A interleaved op-for-op with device B: A's draws are keyed by
  // A's own counter, so its sequence must not move.
  FlashDevice a(timing);
  FlashDevice b(timing);
  a.EnableNoise(kSigma, seed_a);
  b.EnableNoise(kSigma, seed_b);
  std::vector<SimDuration> interleaved;
  for (int i = 0; i < 64; ++i) {
    const SimTime now = static_cast<SimTime>(i) * kMillisecond;
    interleaved.push_back(a.Read(now) - now);
    b.Read(now);
    if (i % 3 == 0) {
      b.Write(now);  // uneven interleaving: B runs ahead of A
    }
  }
  EXPECT_EQ(reference, interleaved);

  // Distinct streams actually differ (the noise is real).
  FlashDevice other(timing);
  other.EnableNoise(kSigma, seed_b);
  EXPECT_NE(reference, ServiceSequence(other, 64));
}

uint64_t Fnv1a(const std::string& text, uint64_t hash) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

uint64_t DigestSweep(const Sweep& sweep, int jobs,
                     const std::function<std::vector<std::string>(
                         const SweepPoint&, const ExperimentResult&)>& row) {
  uint64_t hash = 14695981039346656037ULL;
  ParallelRunner(jobs).RunOrdered(
      sweep.Expand(), [](const SweepPoint& point) { return RunExperiment(point.params); },
      [&](const SweepPoint& point, const ExperimentResult& result) {
        for (const std::string& cell : row(point, result)) {
          hash = Fnv1a(cell, Fnv1a("|", hash));
        }
      });
  return hash;
}

std::vector<std::string> Fig08Row(const SweepPoint& point, const ExperimentResult& result) {
  const Metrics& m = result.metrics;
  return {point.label(0), point.label(1), Table::Cell(m.mean_read_us(), 2),
          Table::Cell(m.mean_write_us(), 2), Table::Cell(m.stack_totals.sync_ram_evictions),
          Table::Cell(100.0 * m.invalidation_rate(), 1)};
}

// The fig08-style write-ratio axis over an 8-host fleet with noise armed:
// the write-heavy points run sole-holder writes through the serial fast
// path, so the digest also pins noisy draws against inlined MarkDirty
// execution.
TEST(FlashSubstream, NoisyFig08DigestStableAcrossJobs) {
  ExperimentParams base;
  base.scale = 512;
  base.hosts = 8;
  base.threads_per_host = 4;
  base.timing.flash_noise_sigma = 0.25;
  std::vector<Sweep::AxisValue> write_axis;
  for (int write_pct = 0; write_pct <= 100; write_pct += 50) {
    write_axis.push_back({Table::Cell(static_cast<int64_t>(write_pct)),
                          [write_pct](ExperimentParams& p) {
                            p.write_fraction = write_pct / 100.0;
                          }});
  }
  Sweep sweep(base);
  sweep.AddAxis("write_pct", std::move(write_axis))
      .AddAxis("ws_gib", WorkingSetAxis({60.0, 80.0}));
  EXPECT_EQ(DigestSweep(sweep, 4, Fig08Row), DigestSweep(sweep, 1, Fig08Row))
      << "fig08 noisy digest diverged at jobs=4";
}

}  // namespace
}  // namespace flashsim
