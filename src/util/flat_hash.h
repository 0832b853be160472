// Open-addressing hash map from uint64_t keys to small mapped types.
//
// Backs the consistency directory, the FTL's page maps, and the lease
// tables. std::unordered_map's chained nodes cost a pointer chase per
// probe; this flat linear-probing table with tombstone-free backward-shift
// deletion is ~4x faster in the access loop and keeps memory proportional
// to live entries. (The cache's own block index is a table of 8-byte
// entries inside LruBlockCache that doubles with its live blocks, DESIGN.md
// §8.)
//
// A slot is 16 bytes, {key, value}: an empty slot is all zero bytes (key
// kEmptyKey = 0, value V()), and the one legal key equal to it (block 0 of
// file 0) is kept out of band. Tables come from MappedTable, so a fresh
// table is untouched zero pages that already read as empty: Reserve and
// growth write only the entries they place, and a reserved page becomes
// resident only when an entry or a probe reaches it. A key's home slot is
// a multiply-shift reduction of Mix64(key), so the table can be any size:
// Reserve(n) maps exactly ceil(8n/7) slots.
#ifndef FLASHSIM_SRC_UTIL_FLAT_HASH_H_
#define FLASHSIM_SRC_UTIL_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "src/util/mapped_table.h"
#include "src/util/rng.h"

namespace flashsim {

// Maps uint64_t -> V. V must be an arithmetic type of at most 8 bytes, so
// that its all-zero bytes are V(). Move-only (a moved-from map may only be
// destroyed or assigned to). Not thread-safe; the simulator is
// single-threaded by design.
template <typename V>
class FlatHashMap {
  static_assert(std::is_arithmetic_v<V>, "an empty slot's zero bytes must read as V()");

 public:
  FlatHashMap() : slots_(kInitialCapacity), max_size_(GrowthLimit(kInitialCapacity)) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Slots in the table (the out-of-band key takes none).
  size_t capacity() const { return slots_.size(); }

  // Bytes of the table Reserve(n) maps on a fresh map.
  static uint64_t TableBytes(uint64_t n) { return ReservedSlots(n) * sizeof(Slot); }

  // Makes room for n entries without a growth rehash: the table becomes
  // exactly ceil(8n/7) slots (7/8 maximum load) and holds n entries before
  // the next growth. Writes only the entries already held.
  void Reserve(size_t n) {
    if (n <= max_size_) {
      return;
    }
    const size_t slots = static_cast<size_t>(ReservedSlots(n));
    if (slots != slots_.size()) {
      Rehash(slots);
    }
    max_size_ = n;
  }

  // Returns a pointer to the mapped value, or nullptr if absent.
  V* Find(uint64_t key) {
    if (key == kEmptyKey) {
      return has_empty_key_ ? &empty_key_value_ : nullptr;
    }
    for (size_t i = Home(key);; i = Next(i)) {
      Slot& s = slots_[i];
      if (s.key == key) {
        return &s.value;
      }
      if (s.key == kEmptyKey) {
        return nullptr;
      }
    }
  }

  const V* Find(uint64_t key) const {
    return const_cast<FlatHashMap*>(this)->Find(key);
  }

  bool Contains(uint64_t key) const { return Find(key) != nullptr; }

  // Number of load-triggered rehashes since construction (Reserve and the
  // initial sizing do not count). A nonzero value on a pre-sized table
  // means the Reserve bound was wrong — surfaced via Metrics so capacity
  // regressions are visible.
  uint64_t growth_rehashes() const { return growth_rehashes_; }

  // Inserts or overwrites; returns a reference to the mapped value.
  V& Insert(uint64_t key, V value) {
    V& slot = (*this)[key];
    slot = std::move(value);
    return slot;
  }

  // Finds key, default-constructing the entry if absent. Every empty slot
  // already holds V(), so claiming one only writes the key. Only a new key
  // can trigger growth.
  V& operator[](uint64_t key) {
    if (key == kEmptyKey) {
      if (!has_empty_key_) {
        if (size_ == max_size_) {
          Grow();
        }
        has_empty_key_ = true;
        ++size_;
      }
      return empty_key_value_;
    }
    for (size_t i = Home(key);; i = Next(i)) {
      Slot& s = slots_[i];
      if (s.key == key) {
        return s.value;
      }
      if (s.key == kEmptyKey) {
        if (size_ == max_size_) {
          Grow();
          return (*this)[key];  // re-probe the grown table
        }
        s.key = key;
        ++size_;
        return s.value;
      }
    }
  }

  // Removes key if present; returns whether it was present. Uses backward
  // shifting so no tombstones accumulate.
  bool Erase(uint64_t key) {
    if (key == kEmptyKey) {
      if (!has_empty_key_) {
        return false;
      }
      has_empty_key_ = false;
      empty_key_value_ = V();
      --size_;
      return true;
    }
    size_t i = Home(key);
    for (;; i = Next(i)) {
      if (slots_[i].key == key) {
        break;
      }
      if (slots_[i].key == kEmptyKey) {
        return false;
      }
    }
    // Backward-shift deletion: pull displaced followers into the hole.
    size_t hole = i;
    for (size_t j = Next(i); slots_[j].key != kEmptyKey; j = Next(j)) {
      // The entry at j may move into the hole only if the hole lies on its
      // probe path (between its home and j, cyclically).
      if (Distance(Home(slots_[j].key), j) >= Distance(hole, j)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  // Calls fn(key, value&) for every live entry in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.key != kEmptyKey) {
        fn(s.key, s.value);
      }
    }
    if (has_empty_key_) {
      fn(kEmptyKey, empty_key_value_);
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmptyKey) {
        fn(s.key, s.value);
      }
    }
    if (has_empty_key_) {
      fn(kEmptyKey, empty_key_value_);
    }
  }

 private:
  static constexpr uint64_t kEmptyKey = 0;

  struct Slot {
    uint64_t key;
    V value;
  };
  static_assert(sizeof(Slot) == 16, "a slot must stay 16 bytes: V at most 8");

  static constexpr size_t kInitialCapacity = 16;

  // ceil(8n/7): the fewest slots that hold n entries at 7/8 load.
  static uint64_t ReservedSlots(uint64_t n) { return (8 * n + 6) / 7; }

  // Entries a table of `capacity` slots holds before a growth rehash: the
  // most that stay strictly below 7/8 load.
  static size_t GrowthLimit(size_t capacity) { return (7 * capacity + 7) / 8 - 1; }

  // Home slot: the high word of Mix64(key) * capacity, uniform over any
  // table size.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((static_cast<unsigned __int128>(Mix64(key)) * slots_.size()) >>
                               64);
  }

  size_t Next(size_t i) const { return i + 1 == slots_.size() ? 0 : i + 1; }

  // Probe steps from `from` forward to `to`, wrapping past the last slot.
  size_t Distance(size_t from, size_t to) const {
    return to >= from ? to - from : to + slots_.size() - from;
  }

  void Grow() {
    ++growth_rehashes_;
    Rehash(slots_.size() * 2);
    max_size_ = GrowthLimit(slots_.size());
  }

  // Moves every entry into a fresh table of `new_capacity` slots, which
  // reads as empty without being written.
  void Rehash(size_t new_capacity) {
    MappedTable<Slot> old = std::exchange(slots_, MappedTable<Slot>(new_capacity));
    for (Slot& s : old) {
      if (s.key != kEmptyKey) {
        size_t i = Home(s.key);
        while (slots_[i].key != kEmptyKey) {
          i = Next(i);
        }
        slots_[i] = std::move(s);
      }
    }
  }

  MappedTable<Slot> slots_;
  // Entries (the out-of-band key included) the table holds before the
  // next growth rehash.
  size_t max_size_ = 0;
  size_t size_ = 0;
  bool has_empty_key_ = false;
  V empty_key_value_{};
  uint64_t growth_rehashes_ = 0;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_UTIL_FLAT_HASH_H_
