#include "src/cache/lru_cache.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/check/oracle.h"
#include "src/util/rng.h"

namespace flashsim {
namespace {

TEST(LruCache, EmptyLookupMisses) {
  LruBlockCache cache("c", 4);
  EXPECT_EQ(cache.Lookup(1), kInvalidSlot);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.capacity(), 4u);
  EXPECT_EQ(cache.LruSlot(), kInvalidSlot);
}

TEST(LruCache, InsertThenLookup) {
  LruBlockCache cache("c", 4);
  std::optional<EvictedBlock> evicted;
  const uint32_t slot = cache.Insert(10, false, &evicted);
  ASSERT_NE(slot, kInvalidSlot);
  EXPECT_FALSE(evicted.has_value());
  EXPECT_EQ(cache.Lookup(10), slot);
  EXPECT_EQ(cache.key_of(slot), 10u);
  EXPECT_EQ(cache.size(), 1u);
  cache.CheckInvariants();
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruBlockCache cache("c", 3);
  std::optional<EvictedBlock> evicted;
  cache.Insert(1, false, &evicted);
  cache.Insert(2, false, &evicted);
  cache.Insert(3, false, &evicted);
  cache.Insert(4, false, &evicted);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->key, 1u);
  EXPECT_EQ(cache.Lookup(1), kInvalidSlot);
  EXPECT_NE(cache.Lookup(4), kInvalidSlot);
  cache.CheckInvariants();
}

TEST(LruCache, TouchProtectsFromEviction) {
  LruBlockCache cache("c", 3);
  std::optional<EvictedBlock> evicted;
  cache.Insert(1, false, &evicted);
  cache.Insert(2, false, &evicted);
  cache.Insert(3, false, &evicted);
  cache.Touch(cache.Lookup(1));  // 2 is now LRU
  cache.Insert(4, false, &evicted);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->key, 2u);
  EXPECT_NE(cache.Lookup(1), kInvalidSlot);
}

TEST(LruCache, DirtyStateTracked) {
  LruBlockCache cache("c", 4);
  std::optional<EvictedBlock> evicted;
  const uint32_t slot = cache.Insert(1, true, &evicted);
  EXPECT_TRUE(cache.dirty(slot));
  EXPECT_EQ(cache.dirty_count(), 1u);
  cache.MarkClean(slot);
  EXPECT_FALSE(cache.dirty(slot));
  EXPECT_EQ(cache.dirty_count(), 0u);
  cache.MarkDirty(slot);
  cache.MarkDirty(slot);  // idempotent
  EXPECT_EQ(cache.dirty_count(), 1u);
  cache.CheckInvariants();
}

TEST(LruCache, EvictionReportsDirtyAndCleansIt) {
  LruBlockCache cache("c", 1);
  std::optional<EvictedBlock> evicted;
  cache.Insert(1, true, &evicted);
  cache.Insert(2, false, &evicted);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_TRUE(evicted->dirty);
  EXPECT_EQ(cache.dirty_count(), 0u);
}

TEST(LruCache, OldestDirtyIsFifo) {
  LruBlockCache cache("c", 8);
  std::optional<EvictedBlock> evicted;
  cache.Insert(1, true, &evicted);
  cache.Insert(2, true, &evicted);
  cache.Insert(3, true, &evicted);
  EXPECT_EQ(cache.key_of(cache.OldestDirty(Medium::kRam)), 1u);
  cache.MarkClean(cache.OldestDirty(Medium::kRam));
  EXPECT_EQ(cache.key_of(cache.OldestDirty(Medium::kRam)), 2u);
  // Re-dirtying moves a block to the tail of the dirty list.
  cache.MarkDirty(cache.Lookup(1));
  cache.MarkClean(cache.OldestDirty(Medium::kRam));  // cleans 2... wait, 2 already clean
  cache.CheckInvariants();
}

TEST(LruCache, RemoveFreesSlotForReuse) {
  LruBlockCache cache("c", 2);
  std::optional<EvictedBlock> evicted;
  cache.Insert(1, false, &evicted);
  cache.Insert(2, false, &evicted);
  EvictedBlock removed;
  EXPECT_TRUE(cache.Remove(1, &removed));
  EXPECT_EQ(removed.key, 1u);
  EXPECT_EQ(cache.size(), 1u);
  cache.Insert(3, false, &evicted);
  EXPECT_FALSE(evicted.has_value());  // reused the freed slot, no eviction
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Remove(99));
  cache.CheckInvariants();
}

TEST(LruCache, RemoveDirtyBlockClearsDirtyList) {
  LruBlockCache cache("c", 4);
  std::optional<EvictedBlock> evicted;
  cache.Insert(1, true, &evicted);
  cache.Insert(2, true, &evicted);
  EXPECT_TRUE(cache.Remove(1));
  EXPECT_EQ(cache.dirty_count(), 1u);
  EXPECT_EQ(cache.key_of(cache.OldestDirty(Medium::kRam)), 2u);
  cache.CheckInvariants();
}

TEST(LruCache, ZeroCapacityIsNoOp) {
  LruBlockCache cache("c", 0);
  std::optional<EvictedBlock> evicted;
  EXPECT_EQ(cache.Insert(1, false, &evicted), kInvalidSlot);
  EXPECT_FALSE(evicted.has_value());
  EXPECT_EQ(cache.Lookup(1), kInvalidSlot);
  EXPECT_EQ(cache.size(), 0u);
  cache.CheckInvariants();
}

TEST(LruCache, MixedMediaSlotAssignment) {
  LruBlockCache cache("c", 2, 3);
  EXPECT_EQ(cache.capacity(), 5u);
  std::optional<EvictedBlock> evicted;
  // Slots fill in index order: 2 RAM then 3 flash.
  for (uint64_t k = 1; k <= 5; ++k) {
    const uint32_t slot = cache.Insert(k, false, &evicted);
    EXPECT_EQ(cache.medium_of(slot), k <= 2 ? Medium::kRam : Medium::kFlash);
  }
}

TEST(LruCache, PerMediumDirtyLists) {
  LruBlockCache cache("c", 2, 2);
  std::optional<EvictedBlock> evicted;
  cache.Insert(1, true, &evicted);   // RAM slot
  cache.Insert(2, false, &evicted);  // RAM slot
  cache.Insert(3, true, &evicted);   // flash slot
  cache.Insert(4, true, &evicted);   // flash slot
  EXPECT_EQ(cache.dirty_count(Medium::kRam), 1u);
  EXPECT_EQ(cache.dirty_count(Medium::kFlash), 2u);
  EXPECT_EQ(cache.key_of(cache.OldestDirty(Medium::kRam)), 1u);
  EXPECT_EQ(cache.key_of(cache.OldestDirty(Medium::kFlash)), 3u);
  int dirty_seen = 0;
  cache.ForEachDirty([&](BlockKey, Medium) { ++dirty_seen; });
  EXPECT_EQ(dirty_seen, 3);
  cache.CheckInvariants();
}

// The per-medium live counts the unified stack reports as its residency
// must match a walk of the chain through fills, evictions (which reuse
// whichever buffer is LRU), removes and the reuse of removed slots.
TEST(LruCache, PerMediumSizesMatchAChainWalk) {
  LruBlockCache cache("c", 16, 48);
  Rng rng(37);
  std::vector<BlockKey> resident;
  uint64_t removes = 0;
  uint64_t evictions = 0;
  for (int step = 0; step < 20000; ++step) {
    const uint64_t op = rng.NextBounded(10);
    if (op < 2 && !resident.empty()) {
      const size_t victim = rng.NextBounded(resident.size());
      ASSERT_TRUE(cache.Remove(resident[victim]));
      resident[victim] = resident.back();
      resident.pop_back();
      ++removes;
    } else if (op < 4 && !resident.empty()) {
      cache.Touch(cache.Lookup(resident[rng.NextBounded(resident.size())]));
    } else {
      const BlockKey key = rng.Next();
      std::optional<EvictedBlock> evicted;
      cache.Insert(key, rng.NextBounded(2) == 0, &evicted, step);
      resident.push_back(key);
      if (evicted.has_value()) {
        resident.erase(std::find(resident.begin(), resident.end(), evicted->key));
        ++evictions;
      }
    }
    uint64_t walked[2] = {0, 0};
    cache.ForEach([&](BlockKey, Medium medium, bool) { ++walked[static_cast<size_t>(medium)]; });
    ASSERT_EQ(cache.size(Medium::kRam), walked[0]) << "step " << step;
    ASSERT_EQ(cache.size(Medium::kFlash), walked[1]) << "step " << step;
    ASSERT_EQ(cache.size(), resident.size()) << "step " << step;
  }
  EXPECT_GT(removes, 1000u);
  EXPECT_GT(evictions, 1000u);
  cache.CheckInvariants();
}

TEST(LruCache, UnifiedPlacementReusesLruBuffer) {
  // §3.3 unified: new blocks land in the least recently used buffer,
  // whichever medium it is.
  LruBlockCache cache("c", 1, 1);
  std::optional<EvictedBlock> evicted;
  const uint32_t ram_slot = cache.Insert(1, false, &evicted);
  const uint32_t flash_slot = cache.Insert(2, false, &evicted);
  EXPECT_EQ(cache.medium_of(ram_slot), Medium::kRam);
  EXPECT_EQ(cache.medium_of(flash_slot), Medium::kFlash);
  cache.Touch(flash_slot);  // RAM block becomes LRU
  const uint32_t reused = cache.Insert(3, false, &evicted);
  EXPECT_EQ(reused, ram_slot);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->key, 1u);
  EXPECT_EQ(evicted->medium, Medium::kRam);
}

TEST(LruCache, ForEachIteratesMruToLru) {
  LruBlockCache cache("c", 3);
  std::optional<EvictedBlock> evicted;
  cache.Insert(1, false, &evicted);
  cache.Insert(2, false, &evicted);
  cache.Insert(3, false, &evicted);
  std::vector<BlockKey> order;
  cache.ForEach([&](BlockKey key, Medium, bool) { order.push_back(key); });
  EXPECT_EQ(order, (std::vector<BlockKey>{3, 2, 1}));
}

// Low 32 bits of the index hash: an entry's tag and, masked, its home.
uint32_t IndexTag(uint64_t key) { return static_cast<uint32_t>(Mix64(key)); }

// The first two keys >= 1 whose index tags are equal and have every bit of
// `low_bits` set, by a deterministic birthday search (a collision is
// expected within ~2^16 qualifying keys). Equal tags share a home in every
// table size; with low_bits = 2^k - 1 that home is the last entry of every
// table of up to 2^k entries.
std::pair<uint64_t, uint64_t> KeysWithEqualTags(uint32_t low_bits = 0) {
  std::unordered_map<uint32_t, uint64_t> seen;
  for (uint64_t key = 1;; ++key) {
    if ((IndexTag(key) & low_bits) != low_bits) {
      continue;
    }
    const auto [it, inserted] = seen.emplace(IndexTag(key), key);
    if (!inserted) {
      return {it->second, key};
    }
  }
}

TEST(LruCache, KeysWithEqualTagsStayDistinct) {
  const auto [a, b] = KeysWithEqualTags();
  ASSERT_NE(a, b);
  ASSERT_EQ(IndexTag(a), IndexTag(b));
  LruBlockCache cache("c", 4);
  std::optional<EvictedBlock> evicted;
  const uint32_t slot_a = cache.Insert(a, false, &evicted);
  EXPECT_EQ(cache.Lookup(b), kInvalidSlot);  // a tag match alone is not a hit
  const uint32_t slot_b = cache.Insert(b, true, &evicted, 7);
  ASSERT_NE(slot_a, slot_b);
  EXPECT_EQ(cache.Lookup(a), slot_a);
  EXPECT_EQ(cache.Lookup(b), slot_b);
  cache.Touch(slot_a);
  EXPECT_EQ(cache.MruSlot(), slot_a);
  EXPECT_EQ(cache.Lookup(b), slot_b);
  cache.CheckInvariants();

  EvictedBlock removed;
  ASSERT_TRUE(cache.Remove(a, &removed));
  EXPECT_EQ(removed.key, a);
  EXPECT_FALSE(removed.dirty);
  EXPECT_EQ(cache.Lookup(a), kInvalidSlot);
  EXPECT_EQ(cache.Lookup(b), slot_b);
  EXPECT_EQ(cache.dirtied_at(slot_b), 7);
  cache.CheckInvariants();
  ASSERT_TRUE(cache.Remove(b, &removed));
  EXPECT_TRUE(removed.dirty);
  EXPECT_EQ(cache.size(), 0u);
  cache.CheckInvariants();
}

TEST(LruCache, EraseAcrossTableWrapKeepsSurvivorsFindable) {
  // A capacity-4 cache's index starts at 8 entries and, holding at most 4
  // blocks, never doubles, so homes are tag & 7. Keys homed at the last
  // entry spill past the end into entries 0, 1, ...; erasing the first of
  // them must shift the wrapped followers back.
  constexpr uint32_t kMask = 7;
  std::vector<uint64_t> last_home;
  uint64_t first_home = 0;
  for (uint64_t key = 1; last_home.size() < 3 || first_home == 0; ++key) {
    const uint32_t home = IndexTag(key) & kMask;
    if (home == kMask && last_home.size() < 3) {
      last_home.push_back(key);
    } else if (home == 0 && first_home == 0) {
      first_home = key;
    }
  }
  // Entries 7, 0, 1, 2 <- last_home[0], last_home[1], first_home, last_home[2].
  const std::vector<uint64_t> keys = {last_home[0], last_home[1], first_home, last_home[2]};
  for (const uint64_t victim : keys) {
    LruBlockCache cache("c", 4);
    std::optional<EvictedBlock> evicted;
    for (const uint64_t key : keys) {
      cache.Insert(key, false, &evicted);
    }
    ASSERT_EQ(cache.index_entries(), kMask + 1);
    cache.CheckInvariants();
    ASSERT_TRUE(cache.Remove(victim));
    for (const uint64_t key : keys) {
      EXPECT_EQ(cache.Lookup(key) != kInvalidSlot, key != victim) << "victim " << victim;
    }
    cache.CheckInvariants();
    // The freed entry is reusable and the table stays consistent.
    cache.Insert(victim, false, &evicted);
    EXPECT_FALSE(evicted.has_value());
    for (const uint64_t key : keys) {
      EXPECT_NE(cache.Lookup(key), kInvalidSlot);
    }
    cache.CheckInvariants();
  }
}

TEST(LruCache, DoublingRehomesAChainThatWrapsPastTheEnd) {
  // a and b share a tag whose low four bits are all set: both home at
  // entry 7 of the starting 8-entry table and at entry 15 of the 16-entry
  // table it doubles into, so one of them wraps past the end in both. The
  // other keys also home at entry 7, so the chain runs 7, 0, 1, 2 when the
  // fifth insert doubles the table.
  const auto [a, b] = KeysWithEqualTags(15);
  ASSERT_EQ(IndexTag(a), IndexTag(b));
  std::vector<uint64_t> keys = {a, b};
  for (uint64_t key = 1; keys.size() < 5; ++key) {
    if ((IndexTag(key) & 7) == 7 && key != a && key != b) {
      keys.push_back(key);
    }
  }
  // Erasing either equal-tag key after the doubling must pull whatever
  // wrapped behind it back across the end.
  for (const uint64_t victim : {a, b}) {
    LruBlockCache cache("c", 64);
    std::optional<EvictedBlock> evicted;
    for (size_t i = 0; i < 4; ++i) {
      cache.Insert(keys[i], i == 1, &evicted, 5);
    }
    ASSERT_EQ(cache.index_entries(), 8u);
    cache.CheckInvariants();
    cache.Insert(keys[4], false, &evicted);
    ASSERT_EQ(cache.index_entries(), 16u);
    for (const uint64_t key : keys) {
      const uint32_t slot = cache.Lookup(key);
      ASSERT_NE(slot, kInvalidSlot) << "key " << key;
      EXPECT_EQ(cache.key_of(slot), key);
    }
    EXPECT_EQ(cache.dirtied_at(cache.Lookup(b)), 5);
    cache.CheckInvariants();
    ASSERT_TRUE(cache.Remove(victim));
    std::vector<BlockKey> expected_order;  // MRU to LRU: insertion order reversed
    for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
      EXPECT_EQ(cache.Lookup(*it) != kInvalidSlot, *it != victim) << "victim " << victim;
      if (*it != victim) {
        expected_order.push_back(*it);
      }
    }
    cache.CheckInvariants();
    // The doubling moved no block in LRU order.
    std::vector<BlockKey> order;
    cache.ForEach([&](BlockKey key, Medium, bool) { order.push_back(key); });
    EXPECT_EQ(order, expected_order);
  }
}

TEST(LruCache, ReusedSlotReportsNewBlocksDirtyState) {
  LruBlockCache cache("c", 2);
  std::optional<EvictedBlock> evicted;
  const uint32_t slot1 = cache.Insert(1, true, &evicted, 10);
  cache.Insert(2, true, &evicted, 20);
  // Full: inserting 3 evicts block 1 (dirty) and reuses its slot.
  const uint32_t slot3 = cache.Insert(3, true, &evicted, 30);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->key, 1u);
  EXPECT_TRUE(evicted->dirty);
  ASSERT_EQ(slot3, slot1);
  EXPECT_EQ(cache.dirtied_at(slot3), 30);
  std::vector<BlockKey> order;
  cache.ForEachDirty([&](BlockKey key, Medium) { order.push_back(key); });
  EXPECT_EQ(order, (std::vector<BlockKey>{2, 3}));
  EXPECT_EQ(cache.key_of(cache.OldestDirty(Medium::kRam)), 2u);

  // Same after a dirty Remove: the freed slot is reused first.
  const uint32_t slot2 = cache.Lookup(2);
  ASSERT_TRUE(cache.Remove(2));
  const uint32_t slot4 = cache.Insert(4, false, &evicted);
  EXPECT_FALSE(evicted.has_value());
  ASSERT_EQ(slot4, slot2);
  EXPECT_FALSE(cache.dirty(slot4));
  cache.MarkDirty(slot4, 40);
  EXPECT_EQ(cache.dirtied_at(slot4), 40);
  order.clear();
  cache.ForEachDirty([&](BlockKey key, Medium) { order.push_back(key); });
  EXPECT_EQ(order, (std::vector<BlockKey>{3, 4}));
  cache.CheckInvariants();
}

// One randomized run of an LruBlockCache against OracleLru, the longhand
// std::map + std::list model that also replicates its slot order, so each
// block's medium is checked too. Each Step draws a key in [1, key_space]
// and an action: access (a hit touches; a miss inserts, dirty on even
// steps), mark dirty, mark clean, or remove. It applies the action to both,
// checks the outcome, and audits the cache now and then. The oracle keeps
// no times, so the run keeps each dirty block's dirtied-at time beside it.
class ReferenceRun {
 public:
  ReferenceRun(uint64_t ram_slots, uint64_t flash_slots, uint64_t key_space, uint64_t seed)
      : cache_("c", ram_slots, flash_slots),
        oracle_(ram_slots, flash_slots),
        key_space_(key_space),
        rng_(seed) {}

  const LruBlockCache& cache() const { return cache_; }
  const OracleLru& oracle() const { return oracle_; }

  void Step(int step) {
    const uint64_t key = rng_.NextBounded(key_space_) + 1;
    const int action = static_cast<int>(rng_.NextBounded(4));
    const SimTime now = step;
    const uint32_t slot = cache_.Lookup(key);
    const bool present = oracle_.Contains(key);
    ASSERT_EQ(slot != kInvalidSlot, present) << "step " << step;
    if (present) {
      ASSERT_EQ(cache_.medium_of(slot), oracle_.MediumOf(key)) << "step " << step;
    }
    switch (action) {
      case 0: {  // access (insert or touch)
        if (present) {
          cache_.Touch(slot);
          oracle_.Touch(key);
        } else {
          const bool dirty = step % 2 == 0;
          std::optional<EvictedBlock> evicted;
          cache_.Insert(key, dirty, &evicted, now);
          std::optional<OracleBlock> victim;
          oracle_.Insert(key, &victim);
          ASSERT_EQ(evicted.has_value(), victim.has_value()) << "step " << step;
          if (victim.has_value()) {
            ASSERT_EQ(evicted->key, victim->key) << "step " << step;
            ASSERT_EQ(evicted->medium, victim->medium) << "step " << step;
            ASSERT_EQ(evicted->dirty, victim->dirty) << "step " << step;
            dirtied_at_.erase(victim->key);
          }
          if (dirty) {
            MarkDirty(key, now);
          }
        }
        break;
      }
      case 1: {  // dirty
        if (present) {
          cache_.MarkDirty(slot, now);
          MarkDirty(key, now);
        }
        break;
      }
      case 2: {  // clean
        if (present) {
          cache_.MarkClean(slot);
          oracle_.MarkClean(key);
          dirtied_at_.erase(key);
        }
        break;
      }
      default: {  // invalidate
        EvictedBlock removed;
        OracleBlock expected;
        ASSERT_EQ(cache_.Remove(key, &removed), present) << "step " << step;
        ASSERT_EQ(oracle_.Remove(key, &expected), present);
        if (present) {
          ASSERT_EQ(removed.key, key);
          ASSERT_EQ(removed.medium, expected.medium);
          ASSERT_EQ(removed.dirty, expected.dirty);
          dirtied_at_.erase(key);
        }
        break;
      }
    }
    // Every step while the cache is small, so that an index which stopped
    // doubling fails its load check before an insert probes a full table.
    if (cache_.size() <= 16 || step % 5000 == 0) {
      cache_.CheckInvariants();
    }
    if (step % 97 == 0) {
      CheckDirtyOrder(step);
    }
  }

  // Sizes and every block's key, medium and dirty bit, MRU to LRU.
  void CheckFinalState() const {
    cache_.CheckInvariants();
    EXPECT_EQ(cache_.size(), oracle_.size());
    EXPECT_EQ(cache_.dirty_count(), oracle_.dirty_count());
    std::vector<OracleBlock> blocks;
    cache_.ForEach([&](BlockKey k, Medium m, bool dirty) { blocks.push_back({k, m, dirty}); });
    EXPECT_EQ(blocks, oracle_.SnapshotLru());
  }

 private:
  // Re-dirtying keeps the first time, as in the cache.
  void MarkDirty(uint64_t key, SimTime now) {
    oracle_.MarkDirty(key);
    dirtied_at_.emplace(key, now);
  }

  // Dirty order and timestamps, oldest first per medium (RAM, then flash).
  void CheckDirtyOrder(int step) const {
    using DirtyList = std::vector<std::pair<uint64_t, SimTime>>;
    DirtyList dirty_now;
    cache_.ForEachDirty([&](BlockKey k, Medium) {
      dirty_now.emplace_back(k, cache_.dirtied_at(cache_.Lookup(k)));
    });
    DirtyList expected;
    for (const Medium medium : {Medium::kRam, Medium::kFlash}) {
      for (const BlockKey k : oracle_.SnapshotDirty(medium)) {
        expected.emplace_back(k, dirtied_at_.at(k));
      }
    }
    ASSERT_EQ(dirty_now, expected) << "step " << step;
  }

  LruBlockCache cache_;
  OracleLru oracle_;
  std::unordered_map<uint64_t, SimTime> dirtied_at_;  // dirty blocks only
  uint64_t key_space_;
  Rng rng_;
};

TEST(LruCache, RandomizedAgainstReferenceLru) {
  ReferenceRun run(64, 0, 200, 1234);
  for (int step = 0; step < 100000; ++step) {
    ASSERT_NO_FATAL_FAILURE(run.Step(step));
  }
  run.CheckFinalState();
}

TEST(LruCache, IndexGrowsWithLiveBlocksAgainstReference) {
  // The index starts at 8 entries and doubles ten times on its way to the
  // full cache's 8192. Removes pull the live count towards half the key
  // space, which is past capacity, so the cache fills and then evicts. A
  // quarter of the slots are RAM, so the oracle checks where each block
  // lands as well.
  constexpr uint64_t kRamSlots = 1024;
  constexpr uint64_t kCapacity = 4096;
  ASSERT_EQ(LruBlockCache::IndexEntries(kCapacity), 8192u);
  ReferenceRun run(kRamSlots, kCapacity - kRamSlots, 3 * kCapacity, 4321);
  const LruBlockCache& cache = run.cache();
  ASSERT_EQ(cache.index_entries(), 8u);
  size_t entries = cache.index_entries();
  int doublings = 0;
  uint64_t peak = 0;
  for (int step = 0; step < 120000; ++step) {
    ASSERT_NO_FATAL_FAILURE(run.Step(step));
    peak = std::max(peak, cache.size());
    if (cache.index_entries() != entries) {
      ASSERT_EQ(cache.index_entries(), 2 * entries) << "step " << step;
      entries = cache.index_entries();
      ++doublings;
      // Doubled by the insert that would have left it over half full.
      ASSERT_EQ(cache.size(), entries / 4 + 1) << "step " << step;
      for (const OracleBlock& block : run.oracle().SnapshotLru()) {
        const uint32_t slot = cache.Lookup(block.key);
        ASSERT_NE(slot, kInvalidSlot) << "key " << block.key << " lost at " << entries
                                      << " entries";
        ASSERT_EQ(cache.key_of(slot), block.key);
      }
      cache.CheckInvariants();
    }
  }
  EXPECT_EQ(doublings, 10);
  EXPECT_EQ(peak, kCapacity);
  // A cache that filled ends with the full cache's table.
  EXPECT_EQ(cache.index_entries(), LruBlockCache::IndexEntries(kCapacity));
  run.CheckFinalState();
}

TEST(LruCache, FreshSlotsReadAsNotInUse) {
  LruBlockCache cache("c", 300, 700, ReplacementPolicy::kClock);
  for (uint32_t slot = 0; slot < 1000; ++slot) {
    ASSERT_FALSE(cache.in_use(slot)) << slot;
    ASSERT_FALSE(cache.dirty(slot)) << slot;
    ASSERT_FALSE(cache.referenced(slot)) << slot;
  }
  const uint32_t a = cache.Insert(1, true, nullptr);
  const uint32_t b = cache.Insert(2, false, nullptr);
  EXPECT_TRUE(cache.in_use(a));
  EXPECT_TRUE(cache.dirty(a));
  EXPECT_TRUE(cache.in_use(b));
  EXPECT_FALSE(cache.dirty(b));
  ASSERT_TRUE(cache.Remove(1));
  EXPECT_FALSE(cache.in_use(a));
  EXPECT_FALSE(cache.dirty(a));
  for (uint32_t slot = 2; slot < 1000; ++slot) {
    ASSERT_FALSE(cache.in_use(slot)) << slot;
  }
  cache.CheckInvariants();
}

// This process's resident bytes (the second field of /proc/self/statm).
int64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t size_pages = 0;
  int64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

// The flag bytes are mapped zero pages and the slot records are allocated
// without initialisation, so a large cache that has used only its first
// slots keeps the rest of its flag array out of memory.
TEST(LruCache, UnusedSlotsLeaveTheFlagArrayNonResident) {
  constexpr uint64_t kCapacity = uint64_t{1} << 25;  // 32 MiB of flag bytes
  const int64_t before = ResidentBytes();
  LruBlockCache cache("big", kCapacity / 4, kCapacity - kCapacity / 4);
  for (BlockKey key = 0; key < 1000; ++key) {
    cache.Insert(key, key % 2 == 0, nullptr);
  }
  const int64_t grown = ResidentBytes() - before;
  EXPECT_LT(grown, static_cast<int64_t>(kCapacity / 8)) << "grew by " << grown << " bytes";
  EXPECT_EQ(cache.size(), 1000u);
  EXPECT_FALSE(cache.in_use(static_cast<uint32_t>(kCapacity - 1)));
}

}  // namespace
}  // namespace flashsim
