#include "src/util/flat_hash.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/util/mapped_table.h"
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

// The largest legal BlockKey (file 2^24-1, block 2^40-1): an ordinary key,
// kept in the table like any other.
constexpr uint64_t kAllOnes = ~0ULL;

// Randomized insert/erase/find against std::unordered_map over keys drawn
// from [0, key_range) plus the all-ones key. Key 0, the empty-slot marker
// the map keeps out of band, is in every range.
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

// Block 0 of file 0 is the empty-slot marker's key: the map keeps it out
// of band, and every operation must treat it like any other key.
TEST(FlatHashMap, ZeroKeyIsKeptOutOfBand) {
  FlatHashMap<uint64_t> map;
  const size_t capacity = map.capacity();
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_FALSE(map.Contains(0));
  EXPECT_FALSE(map.Erase(0));
  map.Insert(0, 5);
  map.Insert(1, 10);
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find(0), nullptr);
  EXPECT_EQ(*map.Find(0), 5u);
  map.Insert(0, 6);  // overwrite
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map[0], 6u);
  map[0] |= 1;
  EXPECT_EQ(*map.Find(0), 7u);
  EXPECT_EQ(*map.Find(1), 10u);
  // Out of band: the key takes no slot, and no slot reads as holding it.
  EXPECT_EQ(map.capacity(), capacity);
  int zero_visits = 0;
  size_t visits = 0;
  map.ForEach([&](uint64_t key, uint64_t& value) {
    ++visits;
    if (key == 0) {
      ++zero_visits;
      EXPECT_EQ(value, 7u);
    }
  });
  EXPECT_EQ(zero_visits, 1);
  EXPECT_EQ(visits, 2u);
  EXPECT_TRUE(map.Erase(0));
  EXPECT_FALSE(map.Erase(0));
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.Find(1), 10u);
  // operator[] default-constructs it afresh after the erase.
  EXPECT_EQ(map[0], 0u);
  EXPECT_EQ(map.size(), 2u);
  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_EQ(map.Find(1), nullptr);
  EXPECT_EQ(map.capacity(), capacity);
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

// Fills a map reserved for n with `special` and keys 1..n-1, then checks
// that one more key grows it exactly once. Key 0 (out of band) and the
// all-ones key (in band) count toward the bound like any other.
void CheckGrowsExactlyOncePastItsBound(uint64_t special) {
  for (const size_t n : {14u, 21u, 100u, 1000u, 4097u}) {
    FlatHashMap<uint64_t> map;
    map.Reserve(n);
    const size_t capacity = map.capacity();
    map.Insert(special, 1);
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
    EXPECT_EQ(*map.Find(special), 1u) << special;
    for (uint64_t k = 1; k < n; ++k) {
      ASSERT_EQ(*map.Find(k), k + 1) << k;
    }
  }
}

TEST(FlatHashMap, ReservedMapGrowsExactlyOncePastItsBound) {
  CheckGrowsExactlyOncePastItsBound(kAllOnes);
  CheckGrowsExactlyOncePastItsBound(0);
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

TEST(FlatHashMap, MoveConstructionAndAssignmentCarryEveryEntry) {
  static_assert(!std::is_copy_constructible_v<FlatHashMap<uint64_t>>);
  static_assert(!std::is_copy_assignable_v<FlatHashMap<uint64_t>>);
  static_assert(std::is_nothrow_move_constructible_v<FlatHashMap<uint64_t>>);
  static_assert(std::is_nothrow_move_assignable_v<FlatHashMap<uint64_t>>);
  const auto check = [](const FlatHashMap<uint64_t>& map, size_t n) {
    ASSERT_EQ(map.size(), n + 2);
    ASSERT_NE(map.Find(0), nullptr);
    EXPECT_EQ(*map.Find(0), 100u);
    ASSERT_NE(map.Find(kAllOnes), nullptr);
    EXPECT_EQ(*map.Find(kAllOnes), 200u);
    for (uint64_t k = 1; k <= n; ++k) {
      ASSERT_NE(map.Find(k), nullptr) << k;
      EXPECT_EQ(*map.Find(k), 3 * k);
    }
  };
  FlatHashMap<uint64_t> a;
  a.Reserve(1000);
  a.Insert(0, 100);
  a.Insert(kAllOnes, 200);
  for (uint64_t k = 1; k <= 500; ++k) {
    a.Insert(k, 3 * k);
  }
  const size_t capacity = a.capacity();
  FlatHashMap<uint64_t> b(std::move(a));
  check(b, 500);
  EXPECT_EQ(b.capacity(), capacity);

  FlatHashMap<uint64_t> c;
  c.Insert(7, 7);
  c = std::move(b);
  check(c, 500);
  // The moved-into map keeps working, growth included.
  for (uint64_t k = 501; k <= 2000; ++k) {
    c.Insert(k, 3 * k);
  }
  check(c, 2000);
  // A moved-from map may be assigned to and then used again.
  a = std::move(c);
  check(a, 2000);
  EXPECT_TRUE(a.Erase(0));
  EXPECT_EQ(a.Find(0), nullptr);
}

// The lease tables' shape: one map per host in a vector, which moves every
// map each time it reallocates.
TEST(FlatHashMap, VectorOfMapsGrowsByMoving) {
  std::vector<FlatHashMap<uint64_t>> maps(3);
  for (size_t m = 0; m < 40; ++m) {
    if (m >= maps.size()) {
      maps.emplace_back();
    }
    for (uint64_t k = 0; k < 50 + m; ++k) {
      maps[m][k * 7 + m] = k + m;
    }
  }
  ASSERT_EQ(maps.size(), 40u);
  for (size_t m = 0; m < maps.size(); ++m) {
    ASSERT_EQ(maps[m].size(), 50 + m) << m;
    for (uint64_t k = 0; k < 50 + m; ++k) {
      ASSERT_NE(maps[m].Find(k * 7 + m), nullptr) << m << " " << k;
      EXPECT_EQ(*maps[m].Find(k * 7 + m), k + m);
    }
  }
  EXPECT_EQ(*maps[0].Find(0), 0u);  // map 0 holds key 0, out of band
  maps.erase(maps.begin());
  EXPECT_EQ(maps[0].size(), 51u);
  EXPECT_EQ(*maps[0].Find(1), 1u);
}

size_t PageBytes() { return static_cast<size_t>(sysconf(_SC_PAGESIZE)); }

// Pages of [begin, begin + bytes) that mincore reports resident. It counts
// a page mapped to the shared zero page by a read as resident, so callers
// bound residency after writes, not after lookups.
size_t ResidentPages(const void* begin, size_t bytes) {
  std::vector<unsigned char> pages((bytes + PageBytes() - 1) / PageBytes());
  EXPECT_EQ(mincore(const_cast<void*>(begin), bytes, pages.data()), 0);
  size_t resident = 0;
  for (const unsigned char page : pages) {
    resident += page & 1;
  }
  return resident;
}

// Transparent huge pages in "always" mode back a first write with a whole
// huge page, so residency is no longer counted in base pages.
bool HugePagesAlways() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string mode;
  std::getline(in, mode);
  return mode.find("[always]") != std::string::npos;
}

TEST(MappedTable, FreshTableReadsZeroWithoutBecomingResident) {
  if (HugePagesAlways()) {
    GTEST_SKIP() << "transparent huge pages are in always mode";
  }
  constexpr size_t kEntries = size_t{1} << 20;  // 8 MiB
  MappedTable<uint64_t> table(kEntries);
  ASSERT_EQ(table.size(), kEntries);
  ASSERT_EQ(reinterpret_cast<uintptr_t>(table.begin()) % PageBytes(), 0u);
  EXPECT_EQ(ResidentPages(table.begin(), kEntries * sizeof(uint64_t)), 0u);
  table[kEntries / 2] = 7;
  EXPECT_EQ(ResidentPages(table.begin(), kEntries * sizeof(uint64_t)), 1u);
  EXPECT_EQ(table[0], 0u);
  EXPECT_EQ(table[kEntries - 1], 0u);
  MappedTable<uint64_t> moved(std::move(table));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.begin(), nullptr);
  EXPECT_EQ(moved[kEntries / 2], 7u);
  EXPECT_EQ(MappedTable<uint64_t>(0).begin(), nullptr);
}

// A reservation is address space: Reserve writes nothing, and each insert
// makes resident only the page its probe ends on (two when the probe
// crosses a page boundary).
TEST(FlatHashMap, ReservedTablePagesBecomeResidentOnlyWhenEntriesReachThem) {
  if (HugePagesAlways()) {
    GTEST_SKIP() << "transparent huge pages are in always mode";
  }
  FlatHashMap<uint64_t> map;
  map.Reserve(1000000);
  const size_t slots = map.capacity();
  const size_t table_bytes = 16 * slots;
  // The first entry of an empty table sits at its home slot, which locates
  // the table from the entry's value (the slot's second word).
  const uint64_t first = 12345;
  map.Insert(first, 1);
  const uintptr_t table =
      reinterpret_cast<uintptr_t>(map.Find(first)) - 8 - 16 * HomeOf(first, slots);
  ASSERT_EQ(table % PageBytes(), 0u);
  // One page: the reservation itself wrote nothing.
  EXPECT_EQ(ResidentPages(reinterpret_cast<const void*>(table), table_bytes), 1u);
  Rng rng(5);
  constexpr size_t kInserts = 200;
  for (size_t i = 1; i < kInserts; ++i) {
    map.Insert(rng.Next() | 1, i);
  }
  const size_t resident = ResidentPages(reinterpret_cast<const void*>(table), table_bytes);
  EXPECT_GE(resident, 1u);
  EXPECT_LE(resident, 2 * kInserts);
  EXPECT_LT(resident, table_bytes / PageBytes() / 10);
  EXPECT_EQ(map.growth_rehashes(), 0u);
}

}  // namespace
}  // namespace flashsim
