// Exact-LRU block cache (§5: "each cache is a single LRU chain of blocks").
//
// Fixed capacity in 4 KB block slots. Slots carry a medium tag so the
// unified architecture can manage RAM and flash buffers on one chain: slots
// [0, ram_slots) are RAM, the rest flash. Single-medium caches pass the
// other count as zero.
//
// Dirty blocks are additionally threaded on an intrusive dirty list so
// periodic syncers flush in O(dirty), not O(capacity).
//
// Metadata layout (DESIGN.md §8). Per slot: a 16-byte hot record (key and
// chain links: everything a lookup, hit, or eviction reads), one flag byte
// (on mapped zero pages, so slots never used cost no memory), and a 16-byte
// cold record (dirty-list links and dirtied-at time) that is allocated
// without initialisation and read only while the slot is dirty, so a tier
// that never dirties never faults its pages in. The block index
// is a linear-probing table of 8-byte {hash tag, slot} entries at most half
// full; it doubles with the live blocks, from kMinIndexEntries up to the
// full cache's IndexEntries(capacity), re-homing entries by their tags.
#ifndef FLASHSIM_SRC_CACHE_LRU_CACHE_H_
#define FLASHSIM_SRC_CACHE_LRU_CACHE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/sim_time.h"
#include "src/trace/record.h"
#include "src/util/assert.h"
#include "src/util/mapped_table.h"
#include "src/util/rng.h"

namespace flashsim {

// Victim selection discipline. The paper fixes LRU and sets replacement
// policy aside as a secondary concern (§1); the rest of the zoo exists to
// quantify that choice on hit rate *and* flash endurance (see
// bench/ablation_replacement.cc and examples/policy_zoo.cpp). Each value
// names an EvictionPolicy plugin (src/cache/replacement.h) registered with
// the cache at construction; every policy has a reference model in
// src/check/oracle.cc that the differential suite holds it to.
enum class ReplacementPolicy : uint8_t {
  kLru = 0,    // exact LRU: hits move blocks to the MRU end
  kFifo = 1,   // insertion order: hits do not reorder
  kClock = 2,  // second chance: hits set a reference bit; eviction rotates
  kSlru = 3,   // segmented LRU: probationary/protected, 2Q-style
  kLruK = 4,   // LRU-K (K=2): evict oldest 2nd-most-recent access
};

constexpr int kNumReplacementPolicies = 5;

constexpr std::array<ReplacementPolicy, kNumReplacementPolicies> kAllReplacementPolicies = {
    ReplacementPolicy::kLru,  ReplacementPolicy::kFifo, ReplacementPolicy::kClock,
    ReplacementPolicy::kSlru, ReplacementPolicy::kLruK,
};

const char* ReplacementPolicyName(ReplacementPolicy policy);
std::optional<ReplacementPolicy> ParseReplacementPolicy(const std::string& name);

enum class Medium : uint8_t {
  kRam = 0,
  kFlash = 1,
};

constexpr uint32_t kInvalidSlot = UINT32_MAX;

struct EvictedBlock {
  BlockKey key = 0;
  Medium medium = Medium::kRam;
  bool dirty = false;
};

class EvictionPolicy;

class LruBlockCache {
 public:
  // Largest capacity (ram_slots + flash_slots) a cache accepts: the index
  // table, two entries per slot, must stay addressable by a 32-bit tag.
  static constexpr uint64_t kMaxCapacity = uint64_t{1} << 31;

  // Total capacity = ram_slots + flash_slots; either may be zero.
  LruBlockCache(std::string name, uint64_t ram_slots, uint64_t flash_slots = 0,
                ReplacementPolicy replacement = ReplacementPolicy::kLru);
  ~LruBlockCache();

  // The registered EvictionPolicy holds a back-pointer to this cache, so
  // relocating the cache would dangle it.
  LruBlockCache(const LruBlockCache&) = delete;
  LruBlockCache& operator=(const LruBlockCache&) = delete;
  LruBlockCache(LruBlockCache&&) = delete;
  LruBlockCache& operator=(LruBlockCache&&) = delete;

  // Bytes a full cache of `capacity` slots allocates for its slot records
  // (hot, flags, cold) and its block index: the per-block sizes of
  // DESIGN.md §8, summed by SimConfig::MetadataBytes. A worst case: the
  // index is that large only once the cache has filled.
  static uint64_t MetadataBytes(uint64_t capacity);

  // Index entries of a full cache of `capacity` slots: the smallest power of
  // two at least 2 x capacity (and at least kMinIndexEntries), so the table
  // stays at most half full.
  static size_t IndexEntries(uint64_t capacity) {
    size_t entries = kMinIndexEntries;
    while (entries < 2 * capacity) {
      entries <<= 1;
    }
    return entries;
  }
  // Index entries allocated now: kMinIndexEntries at construction, doubled
  // before an insert would leave the table more than half full, never more
  // than IndexEntries(capacity()).
  size_t index_entries() const { return index_mask_ + 1; }

  uint64_t capacity() const { return capacity_; }
  uint64_t size() const { return size_; }
  uint64_t dirty_count() const { return dirty_count_; }
  const std::string& name() const { return name_; }

  // Returns the slot holding key, or kInvalidSlot. Does not touch LRU order.
  // A tag match is confirmed against the slot's hot record, which a hit's
  // Touch reads next anyway.
  uint32_t Lookup(BlockKey key) const {
    const size_t pos = FindPos(key);
    return pos == kNoPos ? kInvalidSlot : index_[pos].slot;
  }

  // Records a hit: dispatches to the registered policy's OnHit (LRU moves
  // the slot to the MRU end, CLOCK sets its reference bit, FIFO does
  // nothing, SLRU promotes, LRU-K updates history).
  void Touch(uint32_t slot);

  ReplacementPolicy replacement() const { return replacement_; }
  EvictionPolicy& eviction_policy() { return *policy_; }
  const EvictionPolicy& eviction_policy() const { return *policy_; }

  // Inserts key (must not be present) at the MRU end, evicting the LRU
  // block if the cache is full; the evicted block's identity lands in
  // *evicted. Returns the slot used, or kInvalidSlot for zero-capacity
  // caches (a no-op). Newly inserted blocks reuse the evicted slot, so in a
  // mixed-media cache they land in "the least recently used buffer,
  // whether RAM or flash" (§3.3, unified).
  // `now` stamps the dirtied-at time when dirty is true (delayed writeback).
  uint32_t Insert(BlockKey key, bool dirty, std::optional<EvictedBlock>* evicted,
                  SimTime now = 0);

  // Removes key if present (cache-consistency invalidation or subset
  // maintenance); fills *removed when given. Returns presence.
  bool Remove(BlockKey key, EvictedBlock* removed = nullptr);

  // `now` records when the block became dirty (kDelayed1 flushes only
  // blocks of sufficient age). Re-dirtying an already-dirty block keeps its
  // original position and timestamp.
  void MarkDirty(uint32_t slot, SimTime now = 0);
  void MarkClean(uint32_t slot);

  // When the block in `slot` was last marked dirty. Only meaningful while
  // the slot is dirty: the cold record is never initialised otherwise.
  SimTime dirtied_at(uint32_t slot) const {
    FLASHSIM_DCHECK(dirty(slot));
    return cold_[slot].dirtied_at;
  }

  // Whether `slot` holds a block. A slot never used reads false: the flag
  // bytes start as zero pages.
  bool in_use(uint32_t slot) const { return (flags_[slot] & kInUseFlag) != 0; }
  bool dirty(uint32_t slot) const { return (flags_[slot] & kDirtyFlag) != 0; }
  BlockKey key_of(uint32_t slot) const { return hot_[slot].key; }
  Medium medium_of(uint32_t slot) const {
    return slot < ram_slots_ ? Medium::kRam : Medium::kFlash;
  }

  // Slot currently at the LRU end, or kInvalidSlot when empty.
  uint32_t LruSlot() const { return lru_tail_; }
  // Slot at the MRU end, or kInvalidSlot when empty.
  uint32_t MruSlot() const { return lru_head_; }

  // --- Chain surface for EvictionPolicy implementations (DESIGN.md §14) ---
  // Policies reorder the chain exclusively through these; the index, dirty
  // lists, and counters are off-limits to them.
  uint32_t ChainNext(uint32_t slot) const { return hot_[slot].next; }
  uint32_t ChainPrev(uint32_t slot) const { return hot_[slot].prev; }
  bool referenced(uint32_t slot) const { return (flags_[slot] & kReferencedFlag) != 0; }
  void set_referenced(uint32_t slot, bool on) {
    flags_[slot] = static_cast<uint8_t>(on ? flags_[slot] | kReferencedFlag
                                           : flags_[slot] & ~kReferencedFlag);
  }
  void ChainUnlink(uint32_t slot) { LruUnlink(slot); }
  void ChainPushFront(uint32_t slot) { LruPushFront(slot); }
  void ChainPushBack(uint32_t slot);
  // Links `slot` (must be unlinked) immediately ahead of `before` (must be
  // linked).
  void ChainInsertBefore(uint32_t slot, uint32_t before);

  // Oldest-dirtied block held in a buffer of `medium`, or kInvalidSlot.
  // Dirty blocks are threaded per medium, so syncers flush their own tier
  // in O(1) per block.
  uint32_t OldestDirty(Medium medium) const {
    return dirty_head_[static_cast<size_t>(medium)];
  }

  uint64_t dirty_count(Medium medium) const {
    return dirty_count_by_medium_[static_cast<size_t>(medium)];
  }

  // Calls fn(key, medium) for every dirty block, oldest first per medium
  // (RAM list then flash list). Read-only; test and audit use.
  template <typename Fn>
  void ForEachDirty(Fn&& fn) const {
    for (size_t m = 0; m < 2; ++m) {
      for (uint32_t slot = dirty_head_[m]; slot != kInvalidSlot; slot = cold_[slot].dirty_next) {
        fn(hot_[slot].key, medium_of(slot));
      }
    }
  }

  // Calls fn(key, medium, dirty) for every resident block in MRU->LRU order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t slot = lru_head_; slot != kInvalidSlot; slot = hot_[slot].next) {
      fn(hot_[slot].key, medium_of(slot), dirty(slot));
    }
  }

  // Internal-consistency audit used by tests: list/index/dirty bookkeeping
  // must all agree. Aborts on violation.
  void CheckInvariants() const;

 private:
  // Everything a lookup, hit, or eviction reads; four to a cache line.
  struct HotSlot {
    BlockKey key;
    uint32_t prev;
    uint32_t next;
  };
  static_assert(sizeof(HotSlot) == 16, "the hot slot record must stay 16 bytes");

  // Read and written only while the slot is dirty.
  struct ColdSlot {
    uint32_t dirty_prev;
    uint32_t dirty_next;
    SimTime dirtied_at;
  };

  // One index entry: the low 32 bits of the key's hash (which also fix the
  // entry's home position) and the slot holding the key.
  struct IndexEntry {
    uint32_t tag;
    uint32_t slot;  // kInvalidSlot marks an empty entry
  };

  static constexpr size_t kMinIndexEntries = 8;
  static constexpr uint8_t kInUseFlag = 1;
  static constexpr uint8_t kDirtyFlag = 2;
  static constexpr uint8_t kReferencedFlag = 4;  // CLOCK reference bit
  static constexpr size_t kNoPos = SIZE_MAX;

  static uint32_t Tag(BlockKey key) { return static_cast<uint32_t>(Mix64(key)); }

  // Index position of `key`, or kNoPos.
  size_t FindPos(BlockKey key) const {
    const uint32_t tag = Tag(key);
    for (size_t i = tag & index_mask_;; i = (i + 1) & index_mask_) {
      const IndexEntry entry = index_[i];
      if (entry.slot == kInvalidSlot) {
        return kNoPos;
      }
      if (entry.tag == tag && hot_[entry.slot].key == key) {
        return i;
      }
    }
  }
  // Index position of resident `slot`, found by slot id from its key's
  // home position: no key comparisons.
  size_t PosOfSlot(uint32_t slot) const;
  // Stores `entry` at the first empty position from its tag's home.
  void IndexPlace(IndexEntry entry);
  // Doubles the index, re-homing every entry from its stored tag in one
  // sequential pass over the old table; reads no slot record.
  void GrowIndex();
  // Backward-shift deletion: pulls displaced followers into the hole, so no
  // tombstones accumulate. Reads only tags, never keys.
  void IndexEraseAt(size_t pos);

  void LruUnlink(uint32_t slot);
  void LruPushFront(uint32_t slot);
  void DirtyUnlink(uint32_t slot);
  void DirtyPushBack(uint32_t slot);

  std::string name_;
  uint64_t ram_slots_ = 0;
  uint64_t capacity_ = 0;
  ReplacementPolicy replacement_ = ReplacementPolicy::kLru;
  std::unique_ptr<EvictionPolicy> policy_;
  // Per-slot state; a slot's records are written when it is first used
  // (the flag bytes are mapped zero pages, so they read as 0 until then).
  std::unique_ptr<HotSlot[]> hot_;
  MappedTable<uint8_t> flags_;
  std::unique_ptr<ColdSlot[]> cold_;
  MappedTable<IndexEntry> index_;  // index_mask_ + 1 entries
  size_t index_mask_ = 0;
  uint32_t lru_head_ = kInvalidSlot;  // MRU end
  uint32_t lru_tail_ = kInvalidSlot;  // LRU end
  // Dirty lists, one per medium (index = Medium value).
  uint32_t dirty_head_[2] = {kInvalidSlot, kInvalidSlot};
  uint32_t dirty_tail_[2] = {kInvalidSlot, kInvalidSlot};
  uint64_t dirty_count_by_medium_[2] = {0, 0};
  uint32_t next_unused_ = 0;  // slots [next_unused_, capacity) never used yet
  std::vector<uint32_t> free_slots_;  // slots freed by Remove, reused first
  uint64_t size_ = 0;
  uint64_t dirty_count_ = 0;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_CACHE_LRU_CACHE_H_
