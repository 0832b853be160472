// Unit coverage for the extracted storage backend (src/backend/): router
// stability and distribution across shard counts, the per-shard RNG seed
// split and stream independence, backend construction/routing, and the
// cross-shard conservation sums a full sharded run must satisfy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "src/backend/shard_router.h"
#include "src/backend/storage_backend.h"
#include "src/core/experiment.h"
#include "src/device/filer.h"
#include "src/device/network_link.h"
#include "src/util/rng.h"

namespace flashsim {
namespace {

TEST(ShardRouter, SingleShardMapsEverythingToZero) {
  for (ShardStrategy strategy : {ShardStrategy::kHash, ShardStrategy::kModulo}) {
    ShardRouter router(1, strategy);
    for (BlockKey key = 0; key < 1000; ++key) {
      EXPECT_EQ(router.ShardOf(key), 0);
    }
  }
}

TEST(ShardRouter, StableAcrossRepeatedCalls) {
  ShardRouter router(8);
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const BlockKey key = rng.Next();
    const int first = router.ShardOf(key);
    EXPECT_EQ(router.ShardOf(key), first);
    EXPECT_EQ(router.ShardOf(key), first);
  }
}

TEST(ShardRouter, EveryKeyLandsInRangeAcrossShardCounts) {
  Rng rng(17);
  std::vector<BlockKey> keys;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back(rng.Next());
  }
  for (int count : {1, 2, 3, 8, ShardRouter::kMaxShards}) {
    for (ShardStrategy strategy : {ShardStrategy::kHash, ShardStrategy::kModulo}) {
      ShardRouter router(count, strategy);
      for (BlockKey key : keys) {
        const int shard = router.ShardOf(key);
        ASSERT_GE(shard, 0);
        ASSERT_LT(shard, count);
      }
    }
  }
}

TEST(ShardRouter, ModuloStripesSequentialKeysRoundRobin) {
  ShardRouter router(4, ShardStrategy::kModulo);
  for (BlockKey key = 0; key < 64; ++key) {
    EXPECT_EQ(router.ShardOf(key), static_cast<int>(key % 4));
  }
}

TEST(ShardRouter, HashSpreadsSequentialKeysEvenly) {
  // Sequential block keys are the common trace shape; the hash strategy
  // must not funnel them onto a few shards. Accept ±20% of the ideal split.
  constexpr int kShards = 8;
  constexpr int kKeys = 80000;
  ShardRouter router(kShards, ShardStrategy::kHash);
  std::vector<int> histogram(kShards, 0);
  for (BlockKey key = 0; key < kKeys; ++key) {
    ++histogram[static_cast<size_t>(router.ShardOf(key))];
  }
  const double ideal = static_cast<double>(kKeys) / kShards;
  for (int shard = 0; shard < kShards; ++shard) {
    EXPECT_NEAR(histogram[static_cast<size_t>(shard)], ideal, 0.20 * ideal) << shard;
  }
}

TEST(ShardRouter, StrategyNamesRoundTrip) {
  for (ShardStrategy strategy : {ShardStrategy::kHash, ShardStrategy::kModulo}) {
    const auto parsed = ParseShardStrategy(ShardStrategyName(strategy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, strategy);
  }
  EXPECT_FALSE(ParseShardStrategy("round-robin").has_value());
  EXPECT_FALSE(ParseShardStrategy("").has_value());
}

TEST(ShardSeed, ShardZeroReproducesLegacyFilerSeed) {
  // The determinism contract (DESIGN.md §11): shard 0 draws from exactly
  // the stream the single-filer simulator has always used.
  for (uint64_t seed : {0ULL, 1ULL, 7ULL, 123456789ULL, ~0ULL}) {
    EXPECT_EQ(ShardSeed(seed, 0), Mix64(seed ^ 0xf11e5ULL)) << seed;
  }
}

TEST(ShardSeed, DistinctShardsGetDistinctSeeds) {
  for (uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    std::vector<uint64_t> seeds;
    for (int shard = 0; shard < ShardRouter::kMaxShards; ++shard) {
      seeds.push_back(ShardSeed(seed, shard));
    }
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end()) << seed;
  }
}

TEST(Backend, PerShardRngStreamsAreIndependent) {
  // Two shards of the same backend seed must draw diverging fast/slow
  // sequences; shard 0 must match a legacy-seeded Filer draw for draw
  // whether it is the only filer or one of several — which is what makes
  // a one-filer backend the paper's single shared filer.
  TimingModel timing;
  constexpr uint64_t kSeed = 42;
  StorageBackend one(timing, 1, ShardStrategy::kHash, kSeed);
  StorageBackend two(timing, 2, ShardStrategy::kHash, kSeed);
  Filer legacy(timing, Mix64(kSeed ^ 0xf11e5ULL));
  int divergences = 0;
  for (int i = 0; i < 1000; ++i) {
    bool lone = false;
    bool f0 = false;
    bool f1 = false;
    bool fl = false;
    one.shard(0).Read(0, &lone);
    two.shard(0).Read(0, &f0);
    two.shard(1).Read(0, &f1);
    legacy.Read(0, &fl);
    ASSERT_EQ(lone, fl) << "the one-filer backend diverged from the legacy stream at " << i;
    ASSERT_EQ(f0, fl) << "shard 0 diverged from the legacy stream at draw " << i;
    divergences += (f0 != f1) ? 1 : 0;
  }
  EXPECT_GT(divergences, 0) << "shard 1 mirrors shard 0's stream";
}

TEST(Backend, SingleFilerChannelRoutesEverythingToShardZero) {
  TimingModel timing;
  auto backend = MakeStorageBackend(timing, 1, ShardStrategy::kHash, 1);
  NetworkLink link(timing, 4096);
  auto service = backend->Connect(link);
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->num_shards(), 1);
  for (BlockKey key = 0; key < 100; ++key) {
    EXPECT_EQ(service->ShardOf(key), 0);
  }
  bool fast = false;
  service->Read(0, /*key=*/7, &fast);
  service->Write(0, /*key=*/7);
  EXPECT_EQ(backend->shard(0).reads(), 1u);
  EXPECT_EQ(backend->shard(0).writes(), 1u);
}

TEST(Backend, ShardedChannelRoutesByRouter) {
  TimingModel timing;
  constexpr int kShards = 4;
  auto backend = MakeStorageBackend(timing, kShards, ShardStrategy::kHash, 1);
  NetworkLink link(timing, 4096);
  auto service = backend->Connect(link);
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->num_shards(), kShards);

  std::vector<uint64_t> expected_reads(kShards, 0);
  std::vector<uint64_t> expected_writes(kShards, 0);
  for (BlockKey key = 0; key < 256; ++key) {
    const int shard = backend->router().ShardOf(key);
    EXPECT_EQ(service->ShardOf(key), shard);
    bool fast = false;
    service->Read(0, key, &fast);
    ++expected_reads[static_cast<size_t>(shard)];
    if (key % 3 == 0) {
      service->Write(0, key);
      ++expected_writes[static_cast<size_t>(shard)];
    }
  }
  for (int shard = 0; shard < kShards; ++shard) {
    EXPECT_EQ(backend->shard(shard).reads(), expected_reads[static_cast<size_t>(shard)])
        << shard;
    EXPECT_EQ(backend->shard(shard).writes(), expected_writes[static_cast<size_t>(shard)])
        << shard;
  }
}

TEST(Backend, AggregatesEqualShardSums) {
  TimingModel timing;
  auto backend = MakeStorageBackend(timing, 3, ShardStrategy::kModulo, 9);
  NetworkLink link(timing, 4096);
  auto service = backend->Connect(link);
  for (BlockKey key = 0; key < 300; ++key) {
    bool fast = false;
    service->Read(0, key, &fast);
    service->Write(0, key);
  }
  uint64_t fast_sum = 0;
  uint64_t slow_sum = 0;
  uint64_t write_sum = 0;
  for (int shard = 0; shard < backend->num_shards(); ++shard) {
    fast_sum += backend->shard(shard).fast_reads();
    slow_sum += backend->shard(shard).slow_reads();
    write_sum += backend->shard(shard).writes();
  }
  EXPECT_EQ(backend->fast_reads(), fast_sum);
  EXPECT_EQ(backend->slow_reads(), slow_sum);
  EXPECT_EQ(backend->reads(), fast_sum + slow_sum);
  EXPECT_EQ(backend->writes(), write_sum);
  EXPECT_EQ(backend->reads(), 300u);
  EXPECT_EQ(backend->writes(), 300u);
}

// Full sharded run with the invariant auditor armed: the per-shard metric
// vector and the per-shard routing counters must both sum back to the
// aggregate filer counters. The auditor itself (AuditGlobal /
// AuditCounters) would abort the run on any cross-shard leak.
TEST(Backend, ShardedSimulationConservesAcrossShards) {
  ExperimentParams params;
  params.scale = 4096;
  params.hosts = 2;
  params.num_filers = 4;
  params.audit = true;
  const ExperimentResult result = RunExperiment(params);
  const Metrics& m = result.metrics;

  ASSERT_EQ(m.filer_shards.size(), 4u);
  uint64_t fast_sum = 0;
  uint64_t slow_sum = 0;
  uint64_t write_sum = 0;
  for (const ShardMetrics& shard : m.filer_shards) {
    fast_sum += shard.fast_reads;
    slow_sum += shard.slow_reads;
    write_sum += shard.writes;
  }
  EXPECT_EQ(fast_sum, m.filer_fast_reads);
  EXPECT_EQ(slow_sum, m.filer_slow_reads);
  EXPECT_EQ(write_sum, m.filer_writes);
  EXPECT_GT(m.filer_fast_reads + m.filer_slow_reads, 0u);

  ASSERT_EQ(m.stack_totals.shard_reads.size(), 4u);
  ASSERT_EQ(m.stack_totals.shard_writes.size(), 4u);
  const uint64_t routed_reads = std::accumulate(m.stack_totals.shard_reads.begin(),
                                                m.stack_totals.shard_reads.end(), uint64_t{0});
  const uint64_t routed_writes =
      std::accumulate(m.stack_totals.shard_writes.begin(), m.stack_totals.shard_writes.end(),
                      uint64_t{0});
  EXPECT_EQ(routed_reads, m.stack_totals.filer_reads);
  EXPECT_EQ(routed_writes, m.stack_totals.filer_writebacks);
}

// A 1-shard run through the same experiment path keeps the shard vector
// empty: the single-filer topology reports exactly what it always did.
TEST(Backend, SingleFilerRunKeepsLegacyMetricsShape) {
  ExperimentParams params;
  params.scale = 4096;
  params.num_filers = 1;
  const ExperimentResult result = RunExperiment(params);
  ASSERT_EQ(result.metrics.filer_shards.size(), 1u);
  EXPECT_EQ(result.metrics.filer_shards[0].fast_reads, result.metrics.filer_fast_reads);
  EXPECT_TRUE(result.metrics.stack_totals.shard_reads.empty());
  EXPECT_TRUE(result.metrics.stack_totals.shard_writes.empty());
}

}  // namespace
}  // namespace flashsim
