#include "src/consistency/directory.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

namespace flashsim {
namespace {

// Collapses a StaleSet to the one-word bitmask the small-fleet tests
// assert against.
uint64_t MaskOf(const Directory::StaleSet& stale, int num_hosts) {
  uint64_t mask = 0;
  for (int host = 0; host < num_hosts; ++host) {
    if (stale.Contains(host)) {
      mask |= 1ULL << host;
    }
  }
  return mask;
}

TEST(Directory, TracksResidency) {
  Directory dir(4);
  dir.NoteCached(0, 100);
  dir.NoteCached(2, 100);
  EXPECT_TRUE(dir.IsCachedBy(0, 100));
  EXPECT_FALSE(dir.IsCachedBy(1, 100));
  EXPECT_TRUE(dir.IsCachedBy(2, 100));
  EXPECT_EQ(dir.holders(100), 0b101u);
  EXPECT_EQ(dir.holder_count(100), 2);
  dir.NoteDropped(0, 100);
  EXPECT_FALSE(dir.IsCachedBy(0, 100));
  EXPECT_EQ(dir.holders(100), 0b100u);
}

TEST(Directory, DropUnknownBlockIsHarmless) {
  Directory dir(2);
  dir.NoteDropped(1, 42);
  EXPECT_EQ(dir.holders(42), 0u);
}

TEST(Directory, WriteWithNoOtherHoldersNeedsNoInvalidation) {
  Directory dir(2);
  dir.NoteCached(0, 7);
  const Directory::StaleSet stale = dir.OnBlockWrite(0, 7, /*measured=*/true);
  EXPECT_FALSE(stale.any());
  EXPECT_EQ(stale.count(), 0);
  EXPECT_EQ(dir.measured_writes(), 1u);
  EXPECT_EQ(dir.invalidating_writes(), 0u);
  EXPECT_DOUBLE_EQ(dir.invalidation_rate(), 0.0);
}

TEST(Directory, WriteInvalidatesOtherHolders) {
  Directory dir(3);
  dir.NoteCached(0, 7);
  dir.NoteCached(1, 7);
  dir.NoteCached(2, 7);
  const Directory::StaleSet stale = dir.OnBlockWrite(0, 7, /*measured=*/true);
  EXPECT_EQ(MaskOf(stale, 3), 0b110u);
  EXPECT_EQ(stale.count(), 2);
  EXPECT_EQ(dir.invalidating_writes(), 1u);
  EXPECT_EQ(dir.invalidations(), 2u);
  EXPECT_DOUBLE_EQ(dir.invalidation_rate(), 1.0);
}

TEST(Directory, WriteByNonHolderStillInvalidates) {
  Directory dir(2);
  dir.NoteCached(1, 9);
  EXPECT_EQ(MaskOf(dir.OnBlockWrite(0, 9, true), 2), 0b10u);
}

TEST(Directory, WarmupWritesNotCounted) {
  Directory dir(2);
  dir.NoteCached(1, 9);
  const Directory::StaleSet stale = dir.OnBlockWrite(0, 9, /*measured=*/false);
  EXPECT_EQ(MaskOf(stale, 2), 0b10u);  // invalidation still reported for correctness
  EXPECT_EQ(dir.measured_writes(), 0u);
  EXPECT_EQ(dir.invalidating_writes(), 0u);
}

TEST(Directory, RateAveragesOverWrites) {
  Directory dir(2);
  dir.NoteCached(1, 1);
  dir.OnBlockWrite(0, 1, true);  // invalidating
  dir.OnBlockWrite(0, 2, true);  // not
  dir.OnBlockWrite(0, 3, true);  // not
  dir.OnBlockWrite(0, 4, true);  // not
  EXPECT_DOUBLE_EQ(dir.invalidation_rate(), 0.25);
}

TEST(Directory, EmptyDirectoryHoldsNothing) {
  Directory dir(1);
  EXPECT_EQ(dir.holders(5), 0u);
  EXPECT_FALSE(dir.IsCachedBy(0, 5));
  EXPECT_DOUBLE_EQ(dir.invalidation_rate(), 0.0);
}

// Fleet-scale (slot-mode) coverage: > 64 hosts switches the holder sets to
// multiword pool masks; the semantics must not change.

TEST(Directory, WideFleetTracksHostsAcrossWordBoundaries) {
  Directory dir(1024);
  // One holder in each mask word, including the last host.
  for (int host : {0, 63, 64, 127, 700, 1023}) {
    dir.NoteCached(host, 5);
  }
  EXPECT_EQ(dir.holder_count(5), 6);
  EXPECT_TRUE(dir.IsCachedBy(64, 5));
  EXPECT_TRUE(dir.IsCachedBy(1023, 5));
  EXPECT_FALSE(dir.IsCachedBy(65, 5));

  const Directory::StaleSet stale = dir.OnBlockWrite(700, 5, /*measured=*/true);
  EXPECT_EQ(stale.count(), 5);  // everyone but the writer
  EXPECT_TRUE(stale.Contains(1023));
  EXPECT_FALSE(stale.Contains(700));
  EXPECT_EQ(dir.invalidations(), 5u);

  dir.NoteDropped(1023, 5);
  EXPECT_FALSE(dir.IsCachedBy(1023, 5));
  EXPECT_EQ(dir.holder_count(5), 5);
}

TEST(Directory, WideFleetRecyclesSlotsWhenLastCopyDrops) {
  Directory dir(128);
  dir.NoteCached(100, 1);
  dir.NoteDropped(100, 1);
  EXPECT_EQ(dir.holder_count(1), 0);
  // The freed slot must come back zeroed for the next block.
  dir.NoteCached(2, 9);
  EXPECT_EQ(dir.holder_count(9), 1);
  EXPECT_FALSE(dir.IsCachedBy(100, 9));
  EXPECT_FALSE(dir.OnBlockWrite(2, 9, /*measured=*/true).any());
}

// The inline-word -> slot-mode boundary: 63 and 64 hosts keep holder sets
// as a single word stored directly in the index; 65 tips the whole
// directory into pooled multiword masks; kMaxHosts (4096) is the widest
// supported fleet at 64 words per set. Semantics must be identical across
// the boundary, including ForEachHolder's ascending-host iteration order,
// which the coherence protocols' message schedules depend on.
TEST(Directory, HolderIterationIsAscendingAcrossSlotModeBoundary) {
  for (int num_hosts : {63, 64, 65, Directory::kMaxHosts}) {
    Directory dir(num_hosts);
    // Holders straddling word 0, its top bit, and (when they exist) later
    // words, inserted deliberately out of order.
    std::vector<int> holders = {num_hosts - 1, 0, 37, num_hosts / 2};
    for (int host : holders) {
      dir.NoteCached(host, 11);
    }
    std::vector<int> visited;
    dir.ForEachHolder(11, [&](int host) { visited.push_back(host); });
    std::sort(holders.begin(), holders.end());
    holders.erase(std::unique(holders.begin(), holders.end()), holders.end());
    EXPECT_EQ(visited, holders) << num_hosts
                                << " hosts: iteration must be ascending and complete";
    EXPECT_EQ(dir.holder_count(11), static_cast<int>(holders.size()));

    // StaleSet agrees with the iteration on both sides of the boundary.
    const Directory::StaleSet stale = dir.OnBlockWrite(37, 11, /*measured=*/true);
    EXPECT_EQ(stale.count(), static_cast<int>(holders.size()) - 1);
    for (int host : holders) {
      EXPECT_EQ(stale.Contains(host), host != 37) << num_hosts << " hosts, host " << host;
    }
  }
}

// Exactly 64 hosts is the largest inline fleet: host 63 uses the word's top
// bit, and 65 is the smallest slot-mode fleet. Exercise the top-bit host on
// both sides.
TEST(Directory, TopBitHostWorksOnBothSidesOfBoundary) {
  for (int num_hosts : {64, 65}) {
    Directory dir(num_hosts);
    dir.NoteCached(63, 3);
    EXPECT_TRUE(dir.IsCachedBy(63, 3));
    int calls = 0;
    dir.ForEachHolder(3, [&](int host) {
      ++calls;
      EXPECT_EQ(host, 63);
    });
    EXPECT_EQ(calls, 1);
    const Directory::StaleSet stale = dir.OnBlockWrite(0, 3, /*measured=*/true);
    EXPECT_TRUE(stale.Contains(63));
    EXPECT_EQ(stale.count(), 1);
    dir.NoteDropped(63, 3);
    dir.ForEachHolder(3, [&](int) { FAIL() << "holder visited after last drop"; });
  }
}

// Iteration of an absent block visits nothing, in both modes.
TEST(Directory, ForEachHolderOnAbsentBlockVisitsNothing) {
  for (int num_hosts : {64, Directory::kMaxHosts}) {
    Directory dir(num_hosts);
    dir.ForEachHolder(99, [&](int) { FAIL() << "visited a holder of an absent block"; });
  }
}

// Determinism contract at fleet scale: two directories fed the same
// residency in different orders iterate identically — holder order is a
// function of the set, never of insertion history or slot recycling.
TEST(Directory, IterationOrderIndependentOfInsertionHistory) {
  Directory a(Directory::kMaxHosts);
  Directory b(Directory::kMaxHosts);
  const std::vector<int> hosts = {4095, 2048, 64, 63, 1, 0, 129};
  for (int host : hosts) {
    a.NoteCached(host, 7);
  }
  // b sees unrelated churn first (forcing slot recycling), then the same
  // set in reverse.
  b.NoteCached(17, 1);
  b.NoteDropped(17, 1);
  for (auto it = hosts.rbegin(); it != hosts.rend(); ++it) {
    b.NoteCached(*it, 7);
  }
  std::vector<int> order_a;
  std::vector<int> order_b;
  a.ForEachHolder(7, [&](int host) { order_a.push_back(host); });
  b.ForEachHolder(7, [&](int host) { order_b.push_back(host); });
  EXPECT_EQ(order_a, order_b);
  EXPECT_TRUE(std::is_sorted(order_a.begin(), order_a.end()));
}

// Runs one block through every holder-set operation in both modes, beside
// a neighbouring ordinary key.
void CheckKeyInInlineAndSlotMode(BlockKey key) {
  for (const int num_hosts : {8, 64, 65, 200}) {
    Directory dir(num_hosts);
    dir.Reserve(16);
    const int last = num_hosts - 1;
    EXPECT_FALSE(dir.SoleHolder(0, key));
    dir.NoteCached(last, key);
    dir.NoteCached(last, 3);  // a neighbouring ordinary key
    EXPECT_TRUE(dir.SoleHolder(last, key)) << num_hosts;
    EXPECT_FALSE(dir.SoleHolder(0, key));
    dir.NoteCached(0, key);
    EXPECT_FALSE(dir.SoleHolder(last, key));
    EXPECT_EQ(dir.holder_count(key), 2);
    std::vector<int> visited;
    dir.ForEachHolder(key, [&](int host) { visited.push_back(host); });
    EXPECT_EQ(visited, (std::vector<int>{0, last})) << num_hosts;

    const Directory::StaleSet stale = dir.OnBlockWrite(0, key, /*measured=*/true);
    EXPECT_EQ(stale.count(), 1);
    EXPECT_TRUE(stale.Contains(last));
    EXPECT_FALSE(stale.Contains(0));
    EXPECT_EQ(dir.invalidations(), 1u);

    dir.NoteDropped(last, key);
    EXPECT_TRUE(dir.SoleHolder(0, key));
    dir.NoteDropped(0, key);
    EXPECT_EQ(dir.holder_count(key), 0);
    EXPECT_FALSE(dir.IsCachedBy(0, key));
    visited.clear();
    dir.ForEachHolder(key, [&](int host) { visited.push_back(host); });
    EXPECT_TRUE(visited.empty());
    EXPECT_FALSE(dir.OnBlockWrite(0, key, /*measured=*/true).any());
    // The ordinary key was untouched throughout, and a dropped slot-mode
    // entry is recycled for the next block.
    EXPECT_TRUE(dir.SoleHolder(last, 3));
    dir.NoteCached(1, key);
    EXPECT_TRUE(dir.SoleHolder(1, key));
    EXPECT_EQ(dir.index_rehashes(), 0u);
  }
}

// The largest legal BlockKey (file 2^24-1, block 2^40-1) is an ordinary
// key of the holders index; the directory must treat it like any other
// block in both holder-set modes.
TEST(Directory, AllOnesKeyWorksInInlineAndSlotMode) {
  const BlockKey all_ones = MakeBlockKey(kMaxFileId, kMaxBlockInFile);
  ASSERT_EQ(all_ones, ~0ULL);
  CheckKeyInInlineAndSlotMode(all_ones);
}

// Block 0 of file 0 is the key the holders index keeps out of band, since
// 0 marks its empty slots.
TEST(Directory, ZeroKeyWorksInInlineAndSlotMode) {
  const BlockKey zero = MakeBlockKey(0, 0);
  ASSERT_EQ(zero, 0u);
  CheckKeyInInlineAndSlotMode(zero);
}

TEST(DirectoryDeathTest, RejectsOutOfRangeHostCounts) {
  EXPECT_DEATH(Directory dir(Directory::kMaxHosts + 1), "CHECK failed");
  EXPECT_DEATH(Directory dir(0), "CHECK failed");
}

TEST(DirectoryDeathTest, HoldersBitmaskRequiresSmallFleet) {
  Directory dir(65);
  dir.NoteCached(64, 3);
  EXPECT_DEATH(dir.holders(3), "CHECK failed");
}

}  // namespace
}  // namespace flashsim
