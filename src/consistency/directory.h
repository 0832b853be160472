// Global cache-consistency directory (§3.8, §7.9).
//
// The paper sidesteps choosing a consistency protocol: the simulator
// invalidates stale copies instantly using global knowledge when a new
// version of a block is first written into any cache, and *counts* the
// invalidations (it does not model protocol traffic). This directory is
// that global knowledge: a map from block to the set of hosts caching it.
//
// The invalidation rate — the fraction of application block writes that
// must invalidate a copy elsewhere — is the metric of Figs 11 and 12.
//
// Holder-set representation scales with the fleet. Up to 64 hosts the set
// is a single word stored inline in the block index — the layout every
// paper figure runs on, untouched. Wider fleets (the boot-storm study runs
// 1024 desktops) switch the whole directory to slot mode: the index maps
// block -> slot into a pool of ceil(num_hosts/64)-word bitmasks, recycled
// through a free list when a block's last copy is dropped. The mode is
// fixed at construction by num_hosts, never per key.
#ifndef FLASHSIM_SRC_CONSISTENCY_DIRECTORY_H_
#define FLASHSIM_SRC_CONSISTENCY_DIRECTORY_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "src/trace/record.h"
#include "src/util/assert.h"
#include "src/util/flat_hash.h"

namespace flashsim {

class Directory {
 public:
  // 64 was the one-word-bitmask ceiling; 4096 covers the fleet-scale
  // studies with 64 words per holder set. Raise freely — nothing below is
  // quadratic in it.
  static constexpr int kMaxHosts = 4096;

  // The stale-holder set OnBlockWrite reports: a read-only view into the
  // directory's scratch mask, valid until the next OnBlockWrite call.
  class StaleSet {
   public:
    bool any() const { return count_ != 0; }
    int count() const { return count_; }
    bool Contains(int host) const {
      return ((words_[static_cast<size_t>(host) >> 6] >> (host & 63)) & 1ULL) != 0;
    }

   private:
    friend class Directory;
    StaleSet(const uint64_t* words, int count) : words_(words), count_(count) {}
    const uint64_t* words_;
    int count_;
  };

  explicit Directory(int num_hosts)
      : num_hosts_(num_hosts), words_(static_cast<size_t>((num_hosts + 63) / 64)) {
    FLASHSIM_CHECK(num_hosts >= 1 && num_hosts <= kMaxHosts);
    stale_.assign(words_, 0);
  }

  // Residency bookkeeping, driven by the cache stacks.
  void NoteCached(int host, BlockKey key);
  void NoteDropped(int host, BlockKey key);

  // Pre-sizes the holders index. `blocks` = the most blocks that can be
  // cached anywhere at once (the sum of all hosts' cache capacities), the
  // exact upper bound on live entries. Slot mode's mask pool is not
  // reserved: it grows as blocks are first cached, since one mask per bound
  // block (blocks x ceil(num_hosts/64) words) can exceed what the machine
  // will allocate even when the blocks actually held fit.
  void Reserve(uint64_t blocks) { holders_.Reserve(static_cast<size_t>(blocks)); }

  // Bytes of the holders index Reserve(blocks) maps: 16-byte slots,
  // ceil(8 * blocks / 7) of them, on zero pages that become resident as
  // entries reach them. (Slot mode's mask pool costs the distinct blocks
  // held, as they are first cached.)
  static uint64_t TableBytes(uint64_t blocks) { return FlatHashMap<uint64_t>::TableBytes(blocks); }

  // Load-triggered rehashes of the holders index (0 when Reserve held).
  uint64_t index_rehashes() const { return holders_.growth_rehashes(); }

  // Called once per application block write by `host`. Returns the set of
  // *other* hosts whose copies are now stale and must be invalidated; the
  // caller removes the block from those hosts' caches. Counts the write
  // (and whether it invalidated anything) when `measured` is true. The
  // returned view is invalidated by the next OnBlockWrite call.
  StaleSet OnBlockWrite(int host, BlockKey key, bool measured);

  bool IsCachedBy(int host, BlockKey key) const;
  // Whether `host` is the block's one and only holder. The serial fast
  // path's private-write class (DESIGN.md §13): a sole-holder write
  // provably invalidates nothing, so PerfectProtocol::OnWrite reduces to
  // this directory's counters and the write schedules no event.
  bool SoleHolder(int host, BlockKey key) const;

  // Visits every holder of `key` in ascending host order — deterministic in
  // both inline and slot mode, which the message-generating coherence
  // protocols (coherence.h) depend on for reproducible message schedules.
  // `fn` must not mutate the directory (snapshot first if it needs to drop
  // copies mid-iteration; see CoherenceProtocol::ReconcileDirty).
  template <typename Fn>
  void ForEachHolder(BlockKey key, Fn&& fn) const {
    const uint64_t* entry = holders_.Find(key);
    if (entry == nullptr) {
      return;
    }
    const uint64_t* mask = words_ == 1 ? entry : SlotWords(*entry - 1);
    for (size_t w = 0; w < words_; ++w) {
      uint64_t bits = mask[w];
      while (bits != 0) {
        fn(static_cast<int>((w << 6) + static_cast<size_t>(std::countr_zero(bits))));
        bits &= bits - 1;
      }
    }
  }
  // The one-word holder bitmask; only meaningful (and only allowed) for
  // fleets of at most 64 hosts. Wide fleets use IsCachedBy/holder_count.
  uint64_t holders(BlockKey key) const;
  int holder_count(BlockKey key) const;

  uint64_t measured_writes() const { return measured_writes_; }
  uint64_t invalidating_writes() const { return invalidating_writes_; }
  uint64_t invalidations() const { return invalidations_; }
  // Figs 11/12 y-axis: % of block writes requiring invalidation.
  double invalidation_rate() const {
    return measured_writes_ == 0 ? 0.0
                                 : static_cast<double>(invalidating_writes_) /
                                       static_cast<double>(measured_writes_);
  }

 private:
  // Slot mode only: the index stores slot+1 (0 = absent to FlatHashMap's
  // default-constructed value); a slot names words_ consecutive pool words.
  uint64_t* SlotWords(uint64_t slot) { return pool_.data() + slot * words_; }
  const uint64_t* SlotWords(uint64_t slot) const { return pool_.data() + slot * words_; }
  uint64_t AllocSlot();

  int num_hosts_;
  size_t words_;                   // holder-mask width; 1 = inline mode
  FlatHashMap<uint64_t> holders_;  // block -> mask (inline) or slot+1 (pool)
  std::vector<uint64_t> pool_;     // slot-mode mask storage
  std::vector<uint64_t> free_slots_;
  std::vector<uint64_t> stale_;    // OnBlockWrite scratch, words_ wide
  uint64_t measured_writes_ = 0;
  uint64_t invalidating_writes_ = 0;
  uint64_t invalidations_ = 0;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_CONSISTENCY_DIRECTORY_H_
