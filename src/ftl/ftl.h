// Page-mapped flash translation layer (the paper's §8 future work).
//
// The paper assumes the flash device "comes equipped with a flash
// translation layer that handles wear leveling, erase cycles, and other
// considerations" and validates that single average latencies model such a
// device well (§6.2). It closes by naming a custom caching FTL (FlashTier
// [19]) as the most interesting follow-on. This module implements that
// substrate so the claim can be tested rather than assumed:
//
//   - page-mapped L2P/P2L tables over erase blocks;
//   - out-of-place writes with an active write block;
//   - greedy garbage collection (minimum-valid victim) with optional
//     wear-aware victim scoring, picked from an exact O(log B) victim index
//     instead of a scan of every erase block (DESIGN.md §16);
//   - per-block erase counts (wear) and write-amplification accounting;
//   - TRIM — the caching-FTL advantage: a cache can discard evicted blocks,
//     so their pages never need to be relocated by GC.
//
// The FTL is deterministic and purely logical: it reports the physical
// operations (page reads, page programs, block erases) each logical write
// caused; FlashDevice (src/device/flash_device.h) turns those into
// nanoseconds. A read always costs one page read, wherever the page lives,
// so reads never reach the FTL.
#ifndef FLASHSIM_SRC_FTL_FTL_H_
#define FLASHSIM_SRC_FTL_FTL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/assert.h"

namespace flashsim {

struct FtlParams {
  // Logical capacity exposed to the cache, in 4 KB pages.
  uint64_t logical_pages = 0;
  // Raw capacity = logical * (1 + overprovision). 7% matches consumer SSDs.
  double overprovision = 0.07;
  uint32_t pages_per_block = 64;
  // Free-block low watermark that triggers garbage collection.
  uint32_t gc_low_watermark = 2;
  // Weight of wear (erase count) in GC victim selection; 0 = pure greedy.
  double wear_weight = 0.0;
};

// Physical operations caused by one logical write.
struct FtlCost {
  uint32_t page_reads = 0;
  uint32_t page_programs = 0;
  uint32_t block_erases = 0;
};

class Ftl {
 public:
  explicit Ftl(const FtlParams& params);

  // Writes logical page `lpn` out of place, invalidating any previous
  // version; may trigger garbage collection (relocations + erases), whose
  // physical operations are charged to this write.
  FtlCost Write(uint64_t lpn);

  // Declares `lpn`'s contents dead (cache eviction). Free for the caller;
  // the page will not be relocated by future GC. Idempotent.
  void Trim(uint64_t lpn);

  // Accounting.
  uint64_t host_writes() const { return host_writes_; }
  uint64_t total_programs() const { return total_programs_; }
  // Each garbage collection erases exactly one block, so this is also the
  // number of GC runs.
  uint64_t total_erases() const { return total_erases_; }
  uint64_t relocated_pages() const { return relocated_pages_; }
  // Programs per host write; 1.0 means GC never relocated anything.
  double write_amplification() const;
  // Wear: one block's erase count, and the max and mean over all blocks.
  uint64_t erase_count(uint32_t block) const { return blocks_[block].erase_count; }
  uint64_t max_erase_count() const;
  double mean_erase_count() const;

  uint64_t logical_pages() const { return params_.logical_pages; }
  uint64_t physical_blocks() const { return blocks_.size(); }
  uint32_t free_blocks() const { return static_cast<uint32_t>(free_list_.size()); }

  // Structure audit for tests, including the victim index against the
  // block states it ranks; aborts on violation.
  void CheckInvariants() const;

  // Test-only fault injection (tests/ftl_oracle_test.cc): victim-score ties
  // go to the highest block index instead of the lowest. OracleFtl keeps
  // the lowest-index rule and must catch the difference. Never called
  // outside tests.
  void test_only_break_victim_tie_break();

 private:
  struct BlockInfo {
    uint32_t valid_pages = 0;
    uint32_t write_pointer = 0;  // next free page slot; == pages_per_block when sealed
    uint64_t erase_count = 0;
  };

  // One block's rank as a GC victim. Only sealed, inactive blocks with at
  // least one invalid page are candidates; every candidate outranks every
  // non-candidate, a higher score outranks a lower one, and equal scores go
  // to the lower block index (the order a scan with a strict `>` keeps).
  struct VictimRank {
    double score = 0.0;  // invalid - wear_weight * erase_count; 0 for non-candidates
    uint32_t block = 0;
    bool candidate = false;

    bool operator==(const VictimRank&) const = default;
  };

  static constexpr uint64_t kUnmapped = UINT64_MAX;

  uint64_t PhysPage(uint32_t block, uint32_t slot) const {
    return static_cast<uint64_t>(block) * params_.pages_per_block + slot;
  }

  // Allocates the next physical page in the active block, opening a new
  // block when full. Requires a free page to exist.
  uint64_t AllocatePage(FtlCost* cost);

  // Reclaims one victim block; relocations are charged to *cost.
  void CollectGarbage(FtlCost* cost);

  void InvalidatePhysical(uint64_t ppn);

  // The victim index: a tournament tree over erase blocks. Leaf
  // `blocks_.size() + b` holds block b's rank and every inner node the
  // better of its two children, so the root (node 1) is the victim. The
  // order is total, so the root is the same block a full scan would pick.
  VictimRank RankOf(uint32_t block) const;
  bool Outranks(const VictimRank& a, const VictimRank& b) const;
  // The better of inner node `node`'s two children.
  const VictimRank& ChildWinner(size_t node) const;
  // Re-ranks `block` after its state or the active block changed; walks up
  // only while an ancestor's winner changes, so O(log B) at worst.
  void UpdateVictimIndex(uint32_t block);
  void RebuildVictimIndex();

  FtlParams params_;
  std::vector<uint64_t> l2p_;  // logical page -> physical page (or kUnmapped)
  std::vector<uint64_t> p2l_;  // physical page -> logical page (or kUnmapped)
  std::vector<BlockInfo> blocks_;
  std::vector<uint32_t> free_list_;
  std::vector<VictimRank> victim_tree_;  // [1, B) inner nodes, [B, 2B) leaves
  uint32_t active_block_ = UINT32_MAX;
  bool in_gc_ = false;
  bool test_break_tie_break_ = false;

  uint64_t host_writes_ = 0;
  uint64_t total_programs_ = 0;
  uint64_t total_erases_ = 0;
  uint64_t relocated_pages_ = 0;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_FTL_FTL_H_
