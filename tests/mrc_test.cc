// MRC collector (DESIGN.md §14): the Fenwick-tree shadow stack must agree
// with a brute-force Mattson stack-distance computation access-for-access,
// the hit-rate curve must be monotone in cache size, and one pass over a
// trace's read stream must predict the RAM hits of separate simulations.
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

// Mattson's inclusion property, checked against the simulator rather than
// a second implementation: on one thread of reads into an exact-LRU RAM
// cache and nothing else, a block hits a cache of c blocks exactly when its
// stack distance is below c. With one host, one thread and reads only, the
// trace's blocks in record order are the application read stream, so one
// MRC pass over them must give every RAM size's hit *count* exactly
// wherever HitRateCurve is exact (distances below 64 are counted one by
// one, larger ones in power-of-two buckets), here at powers of two, each
// size simulated on its own with the read fast path armed.
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

  MrcCollector collector;
  for (const TraceRecord& r : records) {
    for (uint32_t i = 0; i < r.block_count; ++i) {
      collector.OnRead(MakeBlockKey(r.file_id, r.block + i));
    }
  }
  const HitRateCurve& curve = collector.curve();

  auto predicted_hits = [&](uint64_t ram_blocks) {
    return static_cast<uint64_t>(std::llround(curve.HitRateAt(ram_blocks) *
                                              static_cast<double>(curve.total_accesses())));
  };
  auto ram_hits = [](const Metrics& m) {
    return m.read_level_blocks[static_cast<size_t>(HitLevel::kRam)];
  };

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
