#include "src/cache/lru_cache.h"

#include <algorithm>
#include <utility>

#include "src/cache/replacement.h"

namespace flashsim {

const char* ReplacementPolicyName(ReplacementPolicy policy) {
  switch (policy) {
    case ReplacementPolicy::kLru:
      return "lru";
    case ReplacementPolicy::kFifo:
      return "fifo";
    case ReplacementPolicy::kClock:
      return "clock";
    case ReplacementPolicy::kSlru:
      return "slru";
    case ReplacementPolicy::kLruK:
      return "lruk";
  }
  return "?";
}

std::optional<ReplacementPolicy> ParseReplacementPolicy(const std::string& name) {
  for (ReplacementPolicy policy : kAllReplacementPolicies) {
    if (name == ReplacementPolicyName(policy)) {
      return policy;
    }
  }
  return std::nullopt;
}

LruBlockCache::LruBlockCache(std::string name, uint64_t ram_slots, uint64_t flash_slots,
                             ReplacementPolicy replacement)
    : name_(std::move(name)),
      ram_slots_(ram_slots),
      capacity_(ram_slots + flash_slots),
      replacement_(replacement) {
  FLASHSIM_CHECK(capacity_ <= kMaxCapacity);
  const size_t n = static_cast<size_t>(capacity_);
  hot_ = std::make_unique_for_overwrite<HotSlot[]>(n);
  flags_ = MappedTable<uint8_t>(n);  // zero: no slot in use
  cold_ = std::make_unique_for_overwrite<ColdSlot[]>(n);
  policy_ = MakeEvictionPolicy(replacement, this);
  index_ = MappedTable<IndexEntry>(kMinIndexEntries);
  std::fill(index_.begin(), index_.end(), IndexEntry{0, kInvalidSlot});
  index_mask_ = kMinIndexEntries - 1;
}

LruBlockCache::~LruBlockCache() = default;

uint64_t LruBlockCache::MetadataBytes(uint64_t capacity) {
  return capacity * (sizeof(HotSlot) + sizeof(uint8_t) + sizeof(ColdSlot)) +
         IndexEntries(capacity) * sizeof(IndexEntry);
}

size_t LruBlockCache::PosOfSlot(uint32_t slot) const {
  size_t i = Tag(hot_[slot].key) & index_mask_;
  while (index_[i].slot != slot) {
    i = (i + 1) & index_mask_;
  }
  return i;
}

void LruBlockCache::IndexPlace(IndexEntry entry) {
  size_t i = entry.tag & index_mask_;
  while (index_[i].slot != kInvalidSlot) {
    i = (i + 1) & index_mask_;
  }
  index_[i] = entry;
}

void LruBlockCache::GrowIndex() {
  const MappedTable<IndexEntry> old =
      std::exchange(index_, MappedTable<IndexEntry>(2 * index_entries()));
  std::fill(index_.begin(), index_.end(), IndexEntry{0, kInvalidSlot});
  index_mask_ = index_.size() - 1;
  for (const IndexEntry entry : old) {
    if (entry.slot != kInvalidSlot) {
      IndexPlace(entry);
    }
  }
}

void LruBlockCache::IndexEraseAt(size_t pos) {
  size_t hole = pos;
  for (size_t j = (pos + 1) & index_mask_; index_[j].slot != kInvalidSlot;
       j = (j + 1) & index_mask_) {
    const size_t home = index_[j].tag & index_mask_;
    // The entry at j may move into the hole only if the hole lies on its
    // probe path (between its home and j, cyclically).
    if (((j - home) & index_mask_) >= ((j - hole) & index_mask_)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole].slot = kInvalidSlot;
}

void LruBlockCache::LruUnlink(uint32_t slot) {
  HotSlot& s = hot_[slot];
  if (s.prev != kInvalidSlot) {
    hot_[s.prev].next = s.next;
  } else {
    lru_head_ = s.next;
  }
  if (s.next != kInvalidSlot) {
    hot_[s.next].prev = s.prev;
  } else {
    lru_tail_ = s.prev;
  }
  s.prev = kInvalidSlot;
  s.next = kInvalidSlot;
}

void LruBlockCache::LruPushFront(uint32_t slot) {
  HotSlot& s = hot_[slot];
  s.prev = kInvalidSlot;
  s.next = lru_head_;
  if (lru_head_ != kInvalidSlot) {
    hot_[lru_head_].prev = slot;
  }
  lru_head_ = slot;
  if (lru_tail_ == kInvalidSlot) {
    lru_tail_ = slot;
  }
}

void LruBlockCache::DirtyUnlink(uint32_t slot) {
  ColdSlot& s = cold_[slot];
  const size_t m = static_cast<size_t>(medium_of(slot));
  if (s.dirty_prev != kInvalidSlot) {
    cold_[s.dirty_prev].dirty_next = s.dirty_next;
  } else {
    dirty_head_[m] = s.dirty_next;
  }
  if (s.dirty_next != kInvalidSlot) {
    cold_[s.dirty_next].dirty_prev = s.dirty_prev;
  } else {
    dirty_tail_[m] = s.dirty_prev;
  }
}

void LruBlockCache::DirtyPushBack(uint32_t slot) {
  ColdSlot& s = cold_[slot];
  const size_t m = static_cast<size_t>(medium_of(slot));
  s.dirty_next = kInvalidSlot;
  s.dirty_prev = dirty_tail_[m];
  if (dirty_tail_[m] != kInvalidSlot) {
    cold_[dirty_tail_[m]].dirty_next = slot;
  }
  dirty_tail_[m] = slot;
  if (dirty_head_[m] == kInvalidSlot) {
    dirty_head_[m] = slot;
  }
}

void LruBlockCache::Touch(uint32_t slot) {
  FLASHSIM_DCHECK(slot < capacity_ && in_use(slot));
  if (replacement_ == ReplacementPolicy::kLru) {
    // Devirtualized exact-LRU hit: Touch sits on the serial read fast
    // path (DESIGN.md §13), so the default policy skips the plugin
    // indirection. Must stay move-for-move identical to LruPolicy::OnHit
    // (DESIGN.md §14); the golden digests pin the equivalence.
    if (lru_head_ != slot) {
      LruUnlink(slot);
      LruPushFront(slot);
    }
    return;
  }
  policy_->OnHit(slot);
}

void LruBlockCache::ChainPushBack(uint32_t slot) {
  HotSlot& s = hot_[slot];
  s.next = kInvalidSlot;
  s.prev = lru_tail_;
  if (lru_tail_ != kInvalidSlot) {
    hot_[lru_tail_].next = slot;
  } else {
    lru_head_ = slot;
  }
  lru_tail_ = slot;
}

void LruBlockCache::ChainInsertBefore(uint32_t slot, uint32_t before) {
  FLASHSIM_DCHECK(before != kInvalidSlot);
  HotSlot& s = hot_[slot];
  HotSlot& b = hot_[before];
  s.next = before;
  s.prev = b.prev;
  if (b.prev != kInvalidSlot) {
    hot_[b.prev].next = slot;
  } else {
    lru_head_ = slot;
  }
  b.prev = slot;
}

uint32_t LruBlockCache::Insert(BlockKey key, bool dirty, std::optional<EvictedBlock>* evicted,
                               SimTime now) {
  if (evicted != nullptr) {
    evicted->reset();
  }
  if (capacity_ == 0) {
    return kInvalidSlot;
  }
  FLASHSIM_DCHECK(Lookup(key) == kInvalidSlot);

  uint32_t slot;
  if (!free_slots_.empty()) {
    // Reuse a slot freed by Remove (invalidations).
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else if (next_unused_ < capacity_) {
    slot = next_unused_++;
  } else {
    // Full: evict per the replacement policy and reuse the buffer.
    slot = policy_->SelectVictim();
    const bool victim_dirty = this->dirty(slot);
    if (evicted != nullptr) {
      *evicted = EvictedBlock{hot_[slot].key, medium_of(slot), victim_dirty};
    }
    MarkClean(slot);
    policy_->OnRemove(slot);  // while still linked: policies may read neighbors
    IndexEraseAt(PosOfSlot(slot));
    LruUnlink(slot);
    --size_;
    --size_by_medium_[static_cast<size_t>(medium_of(slot))];
  }

  hot_[slot].key = key;
  flags_[slot] = kInUseFlag;
  ++size_;
  ++size_by_medium_[static_cast<size_t>(medium_of(slot))];
  if (2 * size_ > index_entries()) {
    GrowIndex();
  }
  IndexPlace(IndexEntry{Tag(key), slot});
  LruPushFront(slot);
  policy_->OnInsert(slot);
  if (dirty) {
    MarkDirty(slot, now);
  }
  return slot;
}

bool LruBlockCache::Remove(BlockKey key, EvictedBlock* removed) {
  const size_t pos = FindPos(key);
  if (pos == kNoPos) {
    return false;
  }
  const uint32_t slot = index_[pos].slot;
  if (removed != nullptr) {
    *removed = EvictedBlock{key, medium_of(slot), dirty(slot)};
  }
  MarkClean(slot);
  policy_->OnRemove(slot);  // while still linked: policies may read neighbors
  IndexEraseAt(pos);
  LruUnlink(slot);
  flags_[slot] = 0;
  --size_;
  --size_by_medium_[static_cast<size_t>(medium_of(slot))];
  free_slots_.push_back(slot);
  return true;
}

void LruBlockCache::MarkDirty(uint32_t slot, SimTime now) {
  FLASHSIM_DCHECK(slot < capacity_ && in_use(slot));
  if (dirty(slot)) {
    return;
  }
  flags_[slot] |= kDirtyFlag;
  cold_[slot].dirtied_at = now;
  ++dirty_count_;
  ++dirty_count_by_medium_[static_cast<size_t>(medium_of(slot))];
  DirtyPushBack(slot);
}

void LruBlockCache::MarkClean(uint32_t slot) {
  FLASHSIM_DCHECK(slot < capacity_ && in_use(slot));
  if (!dirty(slot)) {
    return;
  }
  flags_[slot] &= static_cast<uint8_t>(~kDirtyFlag);
  --dirty_count_;
  --dirty_count_by_medium_[static_cast<size_t>(medium_of(slot))];
  DirtyUnlink(slot);
}

void LruBlockCache::CheckInvariants() const {
  uint64_t counted = 0;
  uint64_t counted_by_medium[2] = {0, 0};
  uint32_t prev = kInvalidSlot;
  for (uint32_t slot = lru_head_; slot != kInvalidSlot; slot = hot_[slot].next) {
    FLASHSIM_CHECK(slot < capacity_ && in_use(slot));
    FLASHSIM_CHECK(hot_[slot].prev == prev);
    FLASHSIM_CHECK(Lookup(hot_[slot].key) == slot);
    prev = slot;
    ++counted;
    ++counted_by_medium[static_cast<size_t>(medium_of(slot))];
    FLASHSIM_CHECK(counted <= size_);
  }
  FLASHSIM_CHECK(counted == size_);
  FLASHSIM_CHECK(counted_by_medium[0] == size_by_medium_[0]);
  FLASHSIM_CHECK(counted_by_medium[1] == size_by_medium_[1]);
  FLASHSIM_CHECK(lru_tail_ == prev);
  // The table is sized to its live blocks: at most half full, never past
  // the full cache's size.
  FLASHSIM_CHECK(2 * size_ <= index_entries());
  FLASHSIM_CHECK(index_entries() <= IndexEntries(capacity_));
  // Every index entry names a distinct resident slot under its key's tag
  // (distinctness follows from the count: each resident slot was found).
  uint64_t indexed = 0;
  for (size_t i = 0; i < index_entries(); ++i) {
    const IndexEntry entry = index_[i];
    if (entry.slot == kInvalidSlot) {
      continue;
    }
    FLASHSIM_CHECK(entry.slot < capacity_ && in_use(entry.slot));
    FLASHSIM_CHECK(entry.tag == Tag(hot_[entry.slot].key));
    ++indexed;
  }
  FLASHSIM_CHECK(indexed == size_);

  uint64_t dirty_counted = 0;
  for (size_t m = 0; m < 2; ++m) {
    uint64_t medium_counted = 0;
    uint32_t dprev = kInvalidSlot;
    for (uint32_t slot = dirty_head_[m]; slot != kInvalidSlot; slot = cold_[slot].dirty_next) {
      FLASHSIM_CHECK(in_use(slot) && dirty(slot));
      FLASHSIM_CHECK(static_cast<size_t>(medium_of(slot)) == m);
      FLASHSIM_CHECK(cold_[slot].dirty_prev == dprev);
      dprev = slot;
      ++medium_counted;
      FLASHSIM_CHECK(medium_counted <= dirty_count_by_medium_[m]);
    }
    FLASHSIM_CHECK(medium_counted == dirty_count_by_medium_[m]);
    FLASHSIM_CHECK(dirty_tail_[m] == dprev);
    dirty_counted += medium_counted;
  }
  FLASHSIM_CHECK(dirty_counted == dirty_count_);
  policy_->CheckInvariants();
}

}  // namespace flashsim
