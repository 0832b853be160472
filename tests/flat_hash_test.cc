#include "src/util/flat_hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/util/rng.h"

namespace flashsim {
namespace {

TEST(FlatHashMap, EmptyFindsNothing) {
  FlatHashMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(42), nullptr);
  EXPECT_FALSE(map.Contains(0));
}

TEST(FlatHashMap, InsertAndFind) {
  FlatHashMap<int> map;
  map.Insert(1, 10);
  map.Insert(2, 20);
  ASSERT_NE(map.Find(1), nullptr);
  EXPECT_EQ(*map.Find(1), 10);
  EXPECT_EQ(*map.Find(2), 20);
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatHashMap, InsertOverwrites) {
  FlatHashMap<int> map;
  map.Insert(7, 1);
  map.Insert(7, 2);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.Find(7), 2);
}

TEST(FlatHashMap, BracketDefaultConstructs) {
  FlatHashMap<uint64_t> map;
  EXPECT_EQ(map[5], 0u);
  map[5] = 99;
  EXPECT_EQ(map[5], 99u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMap, EraseRemovesAndReturnsPresence) {
  FlatHashMap<int> map;
  map.Insert(1, 10);
  EXPECT_TRUE(map.Erase(1));
  EXPECT_FALSE(map.Erase(1));
  EXPECT_EQ(map.Find(1), nullptr);
  EXPECT_EQ(map.size(), 0u);
}

TEST(FlatHashMap, GrowsBeyondInitialCapacity) {
  FlatHashMap<uint64_t> map;
  for (uint64_t k = 0; k < 10000; ++k) {
    map.Insert(k * 2 + 1, k);
  }
  EXPECT_EQ(map.size(), 10000u);
  for (uint64_t k = 0; k < 10000; ++k) {
    ASSERT_NE(map.Find(k * 2 + 1), nullptr);
    EXPECT_EQ(*map.Find(k * 2 + 1), k);
    EXPECT_EQ(map.Find(k * 2), nullptr);
  }
}

TEST(FlatHashMap, BackwardShiftKeepsProbeChainsIntact) {
  // Dense keys stress probe displacement; erase every other key and verify
  // the survivors remain reachable.
  FlatHashMap<uint64_t> map;
  for (uint64_t k = 0; k < 4096; ++k) {
    map.Insert(k, k);
  }
  for (uint64_t k = 0; k < 4096; k += 2) {
    EXPECT_TRUE(map.Erase(k));
  }
  for (uint64_t k = 1; k < 4096; k += 2) {
    ASSERT_NE(map.Find(k), nullptr) << k;
    EXPECT_EQ(*map.Find(k), k);
  }
  EXPECT_EQ(map.size(), 2048u);
}

// The empty-slot marker, and the largest legal BlockKey (file 2^24-1,
// block 2^40-1), which the map keeps out of band.
constexpr uint64_t kAllOnes = ~0ULL;

// Randomized insert/erase/find against std::unordered_map over keys drawn
// from [0, key_range) plus the all-ones key.
void CheckAgainstReference(FlatHashMap<uint64_t>& map, uint64_t key_range, uint64_t seed,
                           int steps) {
  std::unordered_map<uint64_t, uint64_t> reference;
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    const uint64_t draw = rng.NextBounded(key_range + 1);
    const uint64_t key = draw == key_range ? kAllOnes : draw;
    switch (rng.NextBounded(3)) {
      case 0: {
        const uint64_t value = rng.Next();
        map.Insert(key, value);
        reference[key] = value;
        break;
      }
      case 1: {
        EXPECT_EQ(map.Erase(key), reference.erase(key) > 0) << "step " << step;
        break;
      }
      default: {
        auto it = reference.find(key);
        const uint64_t* found = map.Find(key);
        if (it == reference.end()) {
          ASSERT_EQ(found, nullptr) << "step " << step;
        } else {
          ASSERT_NE(found, nullptr) << "step " << step;
          ASSERT_EQ(*found, it->second) << "step " << step;
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), reference.size()) << "step " << step;
  }
  size_t visits = 0;
  map.ForEach([&](uint64_t key, uint64_t& value) {
    ++visits;
    auto it = reference.find(key);
    ASSERT_NE(it, reference.end()) << key;
    EXPECT_EQ(value, it->second) << key;
  });
  EXPECT_EQ(visits, reference.size());
}

TEST(FlatHashMap, RandomizedAgainstStdUnorderedMap) {
  FlatHashMap<uint64_t> map;
  CheckAgainstReference(map, 500, 99, 200000);
}

TEST(FlatHashMap, RandomizedAgainstStdUnorderedMapAtReservedSizes) {
  // Key ranges around each reserved size keep the table near its 7/8 load
  // limit, where probe chains are longest and wrap past the last slot.
  for (const size_t n : {1u, 6u, 7u, 13u, 100u, 1000u, 4097u}) {
    FlatHashMap<uint64_t> map;
    map.Reserve(n);
    CheckAgainstReference(map, n, 1000 + n, 50000);
  }
}

TEST(FlatHashMap, AllOnesKeyIsAnOrdinaryKey) {
  FlatHashMap<uint64_t> map;
  EXPECT_EQ(map.Find(kAllOnes), nullptr);
  EXPECT_FALSE(map.Erase(kAllOnes));
  map.Insert(kAllOnes, 5);
  map.Insert(1, 10);
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find(kAllOnes), nullptr);
  EXPECT_EQ(*map.Find(kAllOnes), 5u);
  map.Insert(kAllOnes, 6);  // overwrite
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map[kAllOnes], 6u);
  map[kAllOnes] |= 1;
  EXPECT_EQ(*map.Find(kAllOnes), 7u);
  int all_ones_visits = 0;
  size_t visits = 0;
  map.ForEach([&](uint64_t key, uint64_t& value) {
    ++visits;
    if (key == kAllOnes) {
      ++all_ones_visits;
      EXPECT_EQ(value, 7u);
    }
  });
  EXPECT_EQ(all_ones_visits, 1);
  EXPECT_EQ(visits, 2u);
  EXPECT_TRUE(map.Erase(kAllOnes));
  EXPECT_FALSE(map.Erase(kAllOnes));
  EXPECT_EQ(map.Find(kAllOnes), nullptr);
  EXPECT_EQ(map.size(), 1u);
  // operator[] default-constructs it afresh after the erase.
  EXPECT_EQ(map[kAllOnes], 0u);
  EXPECT_EQ(map.size(), 2u);
  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(kAllOnes), nullptr);
  EXPECT_EQ(map.Find(1), nullptr);
  visits = 0;
  map.ForEach([&](uint64_t, uint64_t&) { ++visits; });
  EXPECT_EQ(visits, 0u);
}

TEST(FlatHashMap, ReserveSizesTheTableExactly) {
  for (const size_t n : {20u, 21u, 100u, 1000u, 4097u, 100000u}) {
    FlatHashMap<int> map;
    map.Reserve(n);
    EXPECT_EQ(map.capacity(), (8 * n + 6) / 7) << n;
    EXPECT_EQ(FlatHashMap<int>::TableBytes(n), 16 * map.capacity()) << n;
  }
  // Within the initial table's limit (13 of 16 slots), Reserve is a no-op.
  FlatHashMap<int> small;
  small.Reserve(13);
  EXPECT_EQ(small.capacity(), 16u);
}

TEST(FlatHashMap, ReservedMapGrowsExactlyOncePastItsBound) {
  for (const size_t n : {14u, 21u, 100u, 1000u, 4097u}) {
    FlatHashMap<uint64_t> map;
    map.Reserve(n);
    const size_t capacity = map.capacity();
    // The all-ones key counts toward the bound like any other.
    map.Insert(kAllOnes, 1);
    for (uint64_t k = 1; k < n; ++k) {
      map.Insert(k, k);
      map[k] += 1;  // touching a present key never grows
    }
    EXPECT_EQ(map.size(), n);
    EXPECT_EQ(map.growth_rehashes(), 0u) << n;
    EXPECT_EQ(map.capacity(), capacity) << n;
    map.Insert(n, n);
    EXPECT_EQ(map.growth_rehashes(), 1u) << n;
    EXPECT_EQ(map.capacity(), 2 * capacity) << n;
    // The doubled table holds 2n - 1 before it grows again.
    for (uint64_t k = n + 1; k < 2 * n - 1; ++k) {
      map.Insert(k, k);
    }
    EXPECT_EQ(map.size(), 2 * n - 1);
    EXPECT_EQ(map.growth_rehashes(), 1u) << n;
    EXPECT_EQ(*map.Find(kAllOnes), 1u);
    for (uint64_t k = 1; k < n; ++k) {
      ASSERT_EQ(*map.Find(k), k + 1) << k;
    }
  }
}

// Home slot as the map computes it: the high word of Mix64(key) * slots.
size_t HomeOf(uint64_t key, size_t slots) {
  return static_cast<size_t>((static_cast<unsigned __int128>(Mix64(key)) * slots) >> 64);
}

TEST(FlatHashMap, ProbeChainsAndBackwardShiftWrapPastTheLastSlot) {
  for (const size_t n : {20u, 100u, 999u}) {
    FlatHashMap<uint64_t> map;
    map.Reserve(n);
    const size_t slots = map.capacity();
    // Keys homed in the last two slots: their chain runs off the end and
    // continues at slot 0. Keys homed at slot 0 and 1 then queue behind it.
    std::vector<uint64_t> tail_keys;
    std::vector<uint64_t> head_keys;
    for (uint64_t k = 0; tail_keys.size() < 4 || head_keys.size() < 3; ++k) {
      const size_t home = HomeOf(k, slots);
      if (home + 2 >= slots && tail_keys.size() < 4) {
        tail_keys.push_back(k);
      } else if (home <= 1 && head_keys.size() < 3) {
        head_keys.push_back(k);
      }
    }
    std::unordered_map<uint64_t, uint64_t> reference;
    for (const uint64_t k : tail_keys) {
      map.Insert(k, k * 3);
      reference[k] = k * 3;
    }
    for (const uint64_t k : head_keys) {
      map.Insert(k, k * 3);
      reference[k] = k * 3;
    }
    // Erase from the front of the wrapped chain, one key at a time, and
    // check every survivor is still reachable after each backward shift.
    std::vector<uint64_t> order = tail_keys;
    order.insert(order.end(), head_keys.begin(), head_keys.end());
    for (const uint64_t victim : order) {
      ASSERT_TRUE(map.Erase(victim)) << victim;
      reference.erase(victim);
      EXPECT_EQ(map.Find(victim), nullptr);
      for (const auto& [key, value] : reference) {
        ASSERT_NE(map.Find(key), nullptr) << "n=" << n << " key " << key;
        EXPECT_EQ(*map.Find(key), value);
      }
      EXPECT_EQ(map.size(), reference.size());
    }
    // Refill in the opposite order and erase from the chain's middle.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      map.Insert(*it, *it);
    }
    for (size_t i = 1; i < order.size(); i += 2) {
      ASSERT_TRUE(map.Erase(order[i]));
    }
    for (size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(map.Contains(order[i]), i % 2 == 0) << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(map.growth_rehashes(), 0u);
  }
}

TEST(FlatHashMap, ForEachVisitsEveryEntryOnce) {
  FlatHashMap<int> map;
  for (uint64_t k = 100; k < 200; ++k) {
    map.Insert(k, 1);
  }
  uint64_t sum = 0;
  int visits = 0;
  map.ForEach([&](uint64_t key, int& value) {
    sum += key;
    visits += value;
  });
  EXPECT_EQ(visits, 100);
  EXPECT_EQ(sum, (100 + 199) * 100 / 2);
}

TEST(FlatHashMap, ClearEmpties) {
  FlatHashMap<int> map;
  map.Insert(1, 1);
  map.Insert(2, 2);
  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(1), nullptr);
  map.Insert(3, 3);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMap, ReserveDoesNotLoseEntries) {
  FlatHashMap<int> map;
  map.Insert(11, 1);
  map.Reserve(100000);
  EXPECT_EQ(*map.Find(11), 1);
  for (uint64_t k = 0; k < 1000; ++k) {
    map.Insert(k + 1000, static_cast<int>(k));
  }
  EXPECT_EQ(map.size(), 1001u);
}

}  // namespace
}  // namespace flashsim
