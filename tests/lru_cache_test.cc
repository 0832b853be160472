#include "src/cache/lru_cache.h"

#include <gtest/gtest.h>

#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

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

// The first two keys >= 1 whose index tags are equal, by a deterministic
// birthday search (a collision is expected within ~2^16 keys).
std::pair<uint64_t, uint64_t> KeysWithEqualTags() {
  std::unordered_map<uint32_t, uint64_t> seen;
  for (uint64_t key = 1;; ++key) {
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
  // A capacity-4 cache keeps an 8-entry index, so homes are tag & 7. Keys
  // homed at the last entry spill past the end into entries 0, 1, ...;
  // erasing the first of them must shift the wrapped followers back.
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

TEST(LruCache, RandomizedAgainstReferenceLru) {
  // Reference model: std::list as LRU order, map for dirty state, and a
  // list of (key, dirtied_at) as the dirty order.
  constexpr uint64_t kCapacity = 64;
  LruBlockCache cache("c", kCapacity);
  std::list<uint64_t> ref_order;  // front = MRU
  std::unordered_map<uint64_t, bool> ref_dirty;
  std::list<std::pair<uint64_t, SimTime>> ref_dirty_order;  // front = oldest
  Rng rng(1234);

  auto ref_touch = [&](uint64_t key) {
    ref_order.remove(key);
    ref_order.push_front(key);
  };
  auto ref_clean = [&](uint64_t key) {
    ref_dirty_order.remove_if([key](const auto& entry) { return entry.first == key; });
  };

  for (int step = 0; step < 100000; ++step) {
    const uint64_t key = rng.NextBounded(200) + 1;
    const int action = static_cast<int>(rng.NextBounded(4));
    const SimTime now = step;
    const uint32_t slot = cache.Lookup(key);
    const bool present_ref = ref_dirty.count(key) > 0;
    ASSERT_EQ(slot != kInvalidSlot, present_ref) << "step " << step;
    switch (action) {
      case 0: {  // access (insert or touch)
        if (slot != kInvalidSlot) {
          cache.Touch(slot);
          ref_touch(key);
        } else {
          // Every other insert arrives dirty.
          const bool dirty = step % 2 == 0;
          std::optional<EvictedBlock> evicted;
          cache.Insert(key, dirty, &evicted, now);
          if (ref_order.size() == kCapacity) {
            const uint64_t victim = ref_order.back();
            ref_order.pop_back();
            ASSERT_TRUE(evicted.has_value());
            ASSERT_EQ(evicted->key, victim) << "step " << step;
            ASSERT_EQ(evicted->dirty, ref_dirty[victim]);
            ref_dirty.erase(victim);
            ref_clean(victim);
          } else {
            ASSERT_FALSE(evicted.has_value());
          }
          ref_order.push_front(key);
          ref_dirty[key] = dirty;
          if (dirty) {
            ref_dirty_order.emplace_back(key, now);
          }
        }
        break;
      }
      case 1: {  // dirty
        if (slot != kInvalidSlot) {
          cache.MarkDirty(slot, now);
          if (!ref_dirty[key]) {
            ref_dirty[key] = true;
            ref_dirty_order.emplace_back(key, now);
          }
        }
        break;
      }
      case 2: {  // clean
        if (slot != kInvalidSlot) {
          cache.MarkClean(slot);
          ref_dirty[key] = false;
          ref_clean(key);
        }
        break;
      }
      default: {  // invalidate
        EvictedBlock removed;
        const bool was_removed = cache.Remove(key, &removed);
        ASSERT_EQ(was_removed, present_ref);
        if (present_ref) {
          ASSERT_EQ(removed.key, key);
          ASSERT_EQ(removed.dirty, ref_dirty[key]);
          ref_order.remove(key);
          ref_dirty.erase(key);
          ref_clean(key);
        }
        break;
      }
    }
    if (step % 5000 == 0) {
      cache.CheckInvariants();
    }
    if (step % 97 == 0) {
      // Dirty order and timestamps, oldest first.
      using DirtyList = std::vector<std::pair<uint64_t, SimTime>>;
      DirtyList dirty_now;
      cache.ForEachDirty([&](BlockKey k, Medium) {
        dirty_now.emplace_back(k, cache.dirtied_at(cache.Lookup(k)));
      });
      const DirtyList expected(ref_dirty_order.begin(), ref_dirty_order.end());
      ASSERT_EQ(dirty_now, expected) << "step " << step;
    }
  }
  cache.CheckInvariants();
  EXPECT_EQ(cache.size(), ref_order.size());
  EXPECT_EQ(cache.dirty_count(), ref_dirty_order.size());
  std::vector<uint64_t> order;
  cache.ForEach([&](BlockKey k, Medium, bool) { order.push_back(k); });
  EXPECT_EQ(order, std::vector<uint64_t>(ref_order.begin(), ref_order.end()));
}

}  // namespace
}  // namespace flashsim
