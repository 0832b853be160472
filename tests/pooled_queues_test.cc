#include "src/util/pooled_queues.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
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

}  // namespace
}  // namespace flashsim
