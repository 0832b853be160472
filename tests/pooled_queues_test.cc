#include "src/util/pooled_queues.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <vector>

#include "src/trace/record.h"
#include "src/util/rng.h"

namespace flashsim {
namespace {

constexpr size_t kChunk = PooledQueues<uint64_t>::kChunkRecords;

// A skewed queue choice: queue 0 takes about half the traffic, queue 1 a
// quarter, and so on, with a uniform tail so every queue sees some.
size_t SkewedQueue(Rng& rng, size_t queues) {
  if (rng.NextBounded(4) == 0) {
    return rng.NextBounded(queues);
  }
  size_t q = 0;
  while (q + 1 < queues && rng.NextBounded(2) == 0) {
    ++q;
  }
  return q;
}

TEST(PooledQueues, StartEmpty) {
  PooledQueues<uint64_t> queues(3);
  for (size_t q = 0; q < 3; ++q) {
    EXPECT_TRUE(queues.empty(q));
  }
  EXPECT_EQ(queues.chunks_carved(), 0u);
}

TEST(PooledQueues, RandomizedSkewedAgainstStdDeque) {
  for (const size_t num_queues : {1u, 7u, 64u}) {
    PooledQueues<uint64_t> ours(num_queues);
    std::vector<std::deque<uint64_t>> reference(num_queues);
    Rng rng(17 + num_queues);
    for (int step = 0; step < 200000; ++step) {
      const size_t q = SkewedQueue(rng, num_queues);
      // Pushes outnumber pops early and pops win late, so queues both
      // build deep backlogs and drain to empty.
      const bool push = rng.NextBounded(100) < (step < 100000 ? 60u : 40u);
      if (push) {
        const uint64_t value = rng.Next();
        ours.push_back(q, value);
        reference[q].push_back(value);
      } else if (!reference[q].empty()) {
        ASSERT_FALSE(ours.empty(q)) << "step " << step;
        ASSERT_EQ(ours.front(q), reference[q].front()) << "step " << step;
        ours.pop_front(q);
        reference[q].pop_front();
      }
      ASSERT_EQ(ours.empty(q), reference[q].empty()) << "step " << step;
    }
    for (size_t q = 0; q < num_queues; ++q) {
      while (!reference[q].empty()) {
        ASSERT_EQ(ours.front(q), reference[q].front());
        ours.pop_front(q);
        reference[q].pop_front();
      }
      EXPECT_TRUE(ours.empty(q));
    }
  }
}

// Simulation::PeekOpFor's contract: the thread's front record stays where
// it is while the source back-fills other threads' backlogs — here far past
// the reservation, so the pool grows new slabs meanwhile.
TEST(PooledQueues, FrontStaysValidAcrossPushesToOtherQueues) {
  PooledQueues<TraceRecord> queues(4);
  queues.Reserve(kChunk);
  TraceRecord first;
  first.file_id = 7;
  first.block = 12345;
  queues.push_back(2, first);
  const TraceRecord* front = &queues.front(2);
  for (uint64_t i = 0; i < 50 * kChunk; ++i) {
    TraceRecord other;
    other.block = i;
    queues.push_back(i % 2, other);
    queues.push_back(3, other);
  }
  EXPECT_EQ(&queues.front(2), front);
  EXPECT_EQ(*front, first);
  EXPECT_GT(queues.chunks_carved(), 50u);
}

TEST(PooledQueues, DrainedQueueKeepsItsChunk) {
  PooledQueues<uint64_t> queues(2);
  for (uint64_t i = 0; i < 10 * kChunk; ++i) {
    queues.push_back(0, i);
    queues.push_back(0, i + 1);
    EXPECT_EQ(queues.front(0), i);
    queues.pop_front(0);
    queues.pop_front(0);
    EXPECT_TRUE(queues.empty(0));
  }
  EXPECT_EQ(queues.chunks_carved(), 1u);
}

// Chunks drained from one queue serve the next, so the pool carves for the
// records queued at once, not for the sum of every queue's own peak.
TEST(PooledQueues, ChunksCarvedStayWithinPeakTotal) {
  constexpr size_t kQueues = 32;
  PooledQueues<uint64_t> queues(kQueues);
  Rng rng(5);
  size_t peak_total = 0;
  uint64_t sum_of_queue_peaks = 0;
  std::vector<size_t> queue_peak(kQueues, 0);
  for (int round = 0; round < 20; ++round) {
    // Each round's fill favours different queues.
    std::vector<size_t> depth(kQueues, 0);
    const size_t shift = rng.NextBounded(kQueues);
    const size_t records = 200 + rng.NextBounded(3000);
    for (size_t i = 0; i < records; ++i) {
      const size_t q = (SkewedQueue(rng, kQueues) + shift) % kQueues;
      queues.push_back(q, i);
      ++depth[q];
      queue_peak[q] = std::max(queue_peak[q], depth[q]);
    }
    peak_total = std::max(peak_total, records);
    for (size_t q = 0; q < kQueues; ++q) {
      for (; depth[q] > 0; --depth[q]) {
        queues.pop_front(q);
      }
      ASSERT_TRUE(queues.empty(q));
    }
  }
  for (const size_t peak : queue_peak) {
    sum_of_queue_peaks += peak;
  }
  const size_t bound = (peak_total + kChunk - 1) / kChunk + kQueues;
  EXPECT_LE(queues.chunks_carved(), bound);
  // The rotating skew is what per-queue rings would pay for.
  EXPECT_GT(sum_of_queue_peaks, 2 * peak_total);
}

// The background writer's shape: one queue that builds a deep backlog in
// bursts and drains between them. Chunks spent at the head serve the tail,
// so the pool carves for the deepest backlog alone: at most one partly
// filled chunk beyond ⌈peak / 64⌉.
TEST(PooledQueues, OneDeepQueueCarvesForItsPeak) {
  PooledQueues<uint64_t> ours(1);
  std::deque<uint64_t> reference;
  Rng rng(29);
  uint64_t next = 0;
  size_t peak = 0;
  bool draining = false;
  while (next < 500000) {
    // Bursts interleaved with drains: the drains lag until the backlog
    // passes 120,000 records, then outpace the bursts until it is nearly
    // empty, so the queue climbs, falls and climbs again.
    const uint64_t burst = 1 + rng.NextBounded(4000);
    for (uint64_t i = 0; i < burst; ++i, ++next) {
      ours.push_back(0, next);
      reference.push_back(next);
    }
    peak = std::max(peak, reference.size());
    if (reference.size() > 120000) {
      draining = true;
    } else if (reference.size() < 1000) {
      draining = false;
    }
    const uint64_t drain = rng.NextBounded(draining ? 8000 : 2000);
    for (uint64_t i = 0; i < drain && !reference.empty(); ++i) {
      ASSERT_EQ(ours.front(0), reference.front()) << "record " << reference.front();
      ours.pop_front(0);
      reference.pop_front();
    }
    ASSERT_EQ(ours.empty(0), reference.empty());
  }
  while (!reference.empty()) {
    ASSERT_EQ(ours.front(0), reference.front());
    ours.pop_front(0);
    reference.pop_front();
  }
  EXPECT_TRUE(ours.empty(0));
  EXPECT_GT(peak, 100000u);
  EXPECT_LE(ours.chunks_carved(), (peak + kChunk - 1) / kChunk + 1);
}

// The writer's 9-byte record (a key and a flag, packed): records straddle
// word boundaries inside a chunk, and every bit of the key and the flag
// must come back.
TEST(PooledQueues, PackedNineByteRecordsRoundTrip) {
  struct [[gnu::packed]] KeyAndFlag {
    BlockKey key;
    bool flag;
  };
  static_assert(sizeof(KeyAndFlag) == 9);
  PooledQueues<KeyAndFlag> queues(1);
  std::deque<KeyAndFlag> reference;
  Rng rng(31);
  const BlockKey edges[] = {0, ~BlockKey{0}, MakeBlockKey(0xFFFFFF, 0), MakeBlockKey(0, 1),
                            uint64_t{1} << 63};
  for (uint64_t i = 0; i < 5 * kChunk; ++i) {
    const BlockKey key = i < std::size(edges) ? edges[i] : rng.Next();
    const KeyAndFlag record{key, rng.NextBounded(2) == 0};
    queues.push_back(0, record);
    reference.push_back(record);
  }
  for (; !reference.empty(); reference.pop_front()) {
    const KeyAndFlag got = queues.front(0);
    // Copies: a reference cannot bind to a packed field.
    ASSERT_EQ(BlockKey{got.key}, BlockKey{reference.front().key});
    ASSERT_EQ(bool{got.flag}, bool{reference.front().flag});
    queues.pop_front(0);
  }
  EXPECT_TRUE(queues.empty(0));
}

}  // namespace
}  // namespace flashsim
