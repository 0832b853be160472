// MRC collector (DESIGN.md §14): the Fenwick-tree shadow stack must agree
// with a brute-force Mattson stack-distance computation access-for-access,
// the hit-rate curve must be monotone in cache size, and arming the
// collector in a simulation must not change a single metric bit.
#include <gtest/gtest.h>

#include <cmath>
#include <list>
#include <vector>

#include "src/cache/mrc.h"
#include "src/core/simulation.h"
#include "src/util/rng.h"

namespace flashsim {
namespace {

// O(n) reference: the stack distance is the victim's index in an explicit
// MRU-first list of distinct keys.
class BruteForceStack {
 public:
  uint64_t Access(BlockKey key) {
    uint64_t index = 0;
    for (auto it = stack_.begin(); it != stack_.end(); ++it, ++index) {
      if (*it == key) {
        stack_.erase(it);
        stack_.push_front(key);
        return index;
      }
    }
    stack_.push_front(key);
    return ShadowLru::kColdMiss;
  }

 private:
  std::list<BlockKey> stack_;
};

TEST(ShadowLru, MatchesBruteForceOnRandomStream) {
  ShadowLru shadow;
  BruteForceStack brute;
  Rng rng(17);
  for (int i = 0; i < 50000; ++i) {
    // Mixed locality: half the accesses hit a hot 16-key set.
    const BlockKey key = rng.NextBool(0.5) ? rng.NextBounded(16) : rng.NextBounded(700);
    ASSERT_EQ(shadow.Access(key), brute.Access(key)) << "access " << i << " key " << key;
  }
}

TEST(ShadowLru, MatchesBruteForceAcrossCompaction) {
  // 16 distinct keys, 100k accesses: the time axis dwarfs the key count, so
  // the in-place compaction must fire — and must not perturb any distance.
  ShadowLru shadow;
  BruteForceStack brute;
  Rng rng(29);
  for (int i = 0; i < 100000; ++i) {
    const BlockKey key = rng.NextBounded(16);
    ASSERT_EQ(shadow.Access(key), brute.Access(key)) << "access " << i;
  }
  EXPECT_GT(shadow.compactions(), 0u);
  EXPECT_EQ(shadow.distinct_keys(), 16u);
}

TEST(ShadowLru, SequentialScanNeverReuses) {
  ShadowLru shadow;
  for (BlockKey key = 0; key < 1000; ++key) {
    EXPECT_EQ(shadow.Access(key), ShadowLru::kColdMiss);
  }
  // Second scan: every distance is exactly the scan length minus one.
  for (BlockKey key = 0; key < 1000; ++key) {
    EXPECT_EQ(shadow.Access(key), 999u);
  }
}

TEST(HitRateCurve, CyclicWorkloadHasSharpKnee) {
  // Cycling over 10 keys gives every warm access distance 9: a 10-block
  // cache hits everything, a 9-block cache hits nothing (exact below 64).
  MrcCollector collector;
  for (int round = 0; round < 100; ++round) {
    for (BlockKey key = 0; key < 10; ++key) {
      collector.OnRead(key);
    }
  }
  const HitRateCurve& curve = collector.curve();
  EXPECT_EQ(curve.total_accesses(), 1000u);
  EXPECT_EQ(curve.cold_misses(), 10u);
  EXPECT_DOUBLE_EQ(curve.HitRateAt(9), 0.0);
  EXPECT_DOUBLE_EQ(curve.HitRateAt(10), 990.0 / 1000.0);
  EXPECT_DOUBLE_EQ(curve.HitRateAt(1 << 20), 990.0 / 1000.0);
}

TEST(HitRateCurve, MonotoneNondecreasingInCacheSize) {
  MrcCollector collector;
  Rng rng(41);
  for (int i = 0; i < 80000; ++i) {
    // Zipf-ish mixture spanning the exact and bucketed distance ranges.
    const BlockKey key = rng.NextBool(0.3)   ? rng.NextBounded(8)
                         : rng.NextBool(0.5) ? rng.NextBounded(200)
                                             : rng.NextBounded(5000);
    collector.OnRead(key);
  }
  const std::vector<HitRateCurve::Point> points = collector.curve().Curve();
  ASSERT_GT(points.size(), 8u);
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].cache_blocks, points[i - 1].cache_blocks);
    EXPECT_GE(points[i].hit_rate, points[i - 1].hit_rate)
        << "curve dipped at " << points[i].cache_blocks << " blocks";
  }
  // HitRateAt agrees with the sampled curve at every boundary.
  for (const HitRateCurve::Point& p : points) {
    EXPECT_DOUBLE_EQ(collector.curve().HitRateAt(p.cache_blocks), p.hit_rate);
  }
}

// Simulation integration: collect_mrc populates a per-host collector whose
// access count equals the application read blocks, and — because the shadow
// stack only observes the read stream — the simulation's metrics stay
// bit-identical to a run without the collector.
TEST(MrcCollector, SimulationIntegrationIsByteInvisible) {
  std::vector<TraceRecord> records;
  Rng rng(53);
  for (int i = 0; i < 20000; ++i) {
    TraceRecord r;
    r.op = rng.NextBool(0.25) ? TraceOp::kWrite : TraceOp::kRead;
    r.host = static_cast<uint16_t>(rng.NextBounded(2));
    r.file_id = 1;
    r.block = rng.NextBounded(2048);
    r.block_count = 1;
    records.push_back(r);
  }

  SimConfig config;
  config.ram_bytes = 256ULL * 4096;
  config.flash_bytes = 1024ULL * 4096;
  config.num_hosts = 2;
  config.arch = Architecture::kLookaside;

  SimConfig with_mrc = config;
  with_mrc.collect_mrc = true;

  Simulation plain(config);
  VectorTraceSource plain_source(records);
  const Metrics baseline = plain.Run(plain_source);
  EXPECT_EQ(plain.mrc_collector(0), nullptr);

  Simulation collected(with_mrc);
  VectorTraceSource mrc_source(records);
  const Metrics observed = collected.Run(mrc_source);
  // The collector needs every read on the event path.
  EXPECT_EQ(collected.fast_path_events(), 0u);

  EXPECT_EQ(baseline.read_latency.stats().count(), observed.read_latency.stats().count());
  EXPECT_EQ(baseline.read_latency.stats().mean(), observed.read_latency.stats().mean());
  EXPECT_EQ(baseline.end_time, observed.end_time);
  EXPECT_TRUE(baseline.stack_totals == observed.stack_totals);

  uint64_t observed_reads = 0;
  for (int host = 0; host < 2; ++host) {
    const MrcCollector* collector = collected.mrc_collector(host);
    ASSERT_NE(collector, nullptr);
    observed_reads += collector->curve().total_accesses();
    // A full curve exists and is sane.
    EXPECT_GT(collector->curve().HitRateAt(1 << 20), 0.0);
  }
  const uint64_t read_blocks = observed.measured_read_blocks + [&] {
    uint64_t warm_reads = 0;
    for (const TraceRecord& r : records) {
      if (r.warmup && r.op == TraceOp::kRead) {
        warm_reads += r.block_count;
      }
    }
    return warm_reads;
  }();
  EXPECT_EQ(observed_reads, read_blocks);
}

// Mattson's inclusion property, checked against the simulator rather than
// a second implementation: on one thread of reads into an exact-LRU RAM
// cache and nothing else, a block hits a cache of c blocks exactly when its
// stack distance is below c. So the curve of one collect_mrc pass must give
// every RAM size's hit *count* exactly wherever HitRateCurve is exact
// (distances below 64 are counted one by one, larger ones in power-of-two
// buckets), here at powers of two, each size simulated on its own with the
// read fast path armed.
TEST(MrcCollector, OnePassPredictsRamHitCountsOfSeparateRuns) {
  std::vector<TraceRecord> records;
  Rng rng(71);
  for (int i = 0; i < 30000; ++i) {
    TraceRecord r;
    r.file_id = 1;
    // Hot, warm and cold ranges, so hits keep rising with RAM size.
    r.block = rng.NextBool(0.4)   ? rng.NextBounded(48)
              : rng.NextBool(0.5) ? rng.NextBounded(900)
                                  : rng.NextBounded(6000);
    r.block_count = static_cast<uint32_t>(rng.NextBounded(4)) + 1;
    records.push_back(r);
  }
  auto ram_only = [](uint64_t ram_blocks) {
    SimConfig config;
    config.arch = Architecture::kLookaside;
    config.ram_bytes = ram_blocks * config.block_bytes;
    config.flash_bytes = 0;
    config.num_hosts = 1;
    config.threads_per_host = 1;
    return config;
  };

  SimConfig pass_config = ram_only(16);
  pass_config.collect_mrc = true;
  Simulation pass(pass_config);
  VectorTraceSource pass_source(records);
  const Metrics pass_metrics = pass.Run(pass_source);
  const HitRateCurve& curve = pass.mrc_collector(0)->curve();
  ASSERT_EQ(curve.total_accesses(), pass_metrics.measured_read_blocks);

  auto predicted_hits = [&](uint64_t ram_blocks) {
    return static_cast<uint64_t>(std::llround(curve.HitRateAt(ram_blocks) *
                                              static_cast<double>(curve.total_accesses())));
  };
  auto ram_hits = [](const Metrics& m) {
    return m.read_level_blocks[static_cast<size_t>(HitLevel::kRam)];
  };
  EXPECT_EQ(ram_hits(pass_metrics), predicted_hits(16));

  uint64_t previous_hits = 0;
  for (const uint64_t ram_blocks : {16, 64, 256, 1024, 4096}) {
    Simulation sim(ram_only(ram_blocks));
    VectorTraceSource source(records);
    const Metrics m = sim.Run(source);
    ASSERT_EQ(m.measured_read_blocks, curve.total_accesses());
    EXPECT_EQ(ram_hits(m), predicted_hits(ram_blocks)) << ram_blocks << " RAM blocks";
    EXPECT_GT(ram_hits(m), previous_hits) << "hits did not rise at " << ram_blocks << " RAM blocks";
    previous_hits = ram_hits(m);
  }
}

}  // namespace
}  // namespace flashsim
