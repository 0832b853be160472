#include "src/ftl/ftl.h"

#include <algorithm>
#include <cmath>

namespace flashsim {

Ftl::Ftl(const FtlParams& params) : params_(params) {
  // SimConfig::Violations reports these for simulator runs; a direct caller
  // that breaks them gets an abort, not a silently different GC.
  FLASHSIM_CHECK(params_.logical_pages > 0);
  FLASHSIM_CHECK(params_.pages_per_block > 0);
  FLASHSIM_CHECK(std::isfinite(params_.overprovision) && params_.overprovision > 0.0);
  FLASHSIM_CHECK(params_.gc_low_watermark >= 1);
  FLASHSIM_CHECK(std::isfinite(params_.wear_weight) && params_.wear_weight >= 0.0);

  // The GC reserve (free watermark + active block + slack) sits ON TOP of
  // the overprovisioned capacity. This guarantees that whenever GC runs,
  // the sealed blocks hold strictly more pages than can be valid, so a
  // victim with invalid pages always exists and GC always makes progress —
  // carving the reserve out of the overprovisioning instead can reach a
  // state where every sealed block is 100% valid and GC livelocks.
  const double raw_pages =
      static_cast<double>(params_.logical_pages) * (1.0 + params_.overprovision);
  const uint64_t num_blocks =
      static_cast<uint64_t>(std::ceil(raw_pages / static_cast<double>(params_.pages_per_block))) +
      params_.gc_low_watermark + 2;

  l2p_.assign(params_.logical_pages, kUnmapped);
  p2l_.assign(num_blocks * params_.pages_per_block, kUnmapped);
  blocks_.assign(num_blocks, BlockInfo{});
  free_list_.reserve(num_blocks);
  // Blocks are handed out from the back of the free list; order is
  // deterministic but arbitrary.
  for (uint64_t b = num_blocks; b > 0; --b) {
    free_list_.push_back(static_cast<uint32_t>(b - 1));
  }
  RebuildVictimIndex();
}

Ftl::VictimRank Ftl::RankOf(uint32_t block) const {
  const BlockInfo& info = blocks_[block];
  if (block == active_block_ || info.write_pointer != params_.pages_per_block ||
      info.valid_pages == params_.pages_per_block) {
    return {0.0, block, false};
  }
  // Greedy-by-valid-count, optionally biased toward low-wear blocks so cold
  // data doesn't pin low-erase blocks forever (static wear leveling lite).
  // Only blocks with at least one invalid page are candidates: erasing a
  // fully-valid block reclaims nothing, and the wear bias must never turn
  // GC into a zero-progress relocation loop.
  const double invalid = static_cast<double>(params_.pages_per_block - info.valid_pages);
  return {invalid - params_.wear_weight * static_cast<double>(info.erase_count), block, true};
}

bool Ftl::Outranks(const VictimRank& a, const VictimRank& b) const {
  if (a.candidate != b.candidate) {
    return a.candidate;
  }
  if (a.score != b.score) {
    return a.score > b.score;
  }
  return (a.block < b.block) != test_break_tie_break_;
}

const Ftl::VictimRank& Ftl::ChildWinner(size_t node) const {
  const VictimRank& left = victim_tree_[2 * node];
  const VictimRank& right = victim_tree_[2 * node + 1];
  return Outranks(right, left) ? right : left;
}

void Ftl::UpdateVictimIndex(uint32_t block) {
  size_t node = blocks_.size() + block;
  const VictimRank rank = RankOf(block);
  if (victim_tree_[node] == rank) {
    return;
  }
  victim_tree_[node] = rank;
  for (node /= 2; node >= 1; node /= 2) {
    const VictimRank& winner = ChildWinner(node);
    if (victim_tree_[node] == winner) {
      return;  // every ancestor is a function of unchanged children
    }
    victim_tree_[node] = winner;
  }
}

void Ftl::RebuildVictimIndex() {
  const size_t leaves = blocks_.size();
  victim_tree_.assign(2 * leaves, VictimRank{});
  for (uint32_t b = 0; b < leaves; ++b) {
    victim_tree_[leaves + b] = RankOf(b);
  }
  for (size_t node = leaves - 1; node >= 1; --node) {
    victim_tree_[node] = ChildWinner(node);
  }
}

void Ftl::test_only_break_victim_tie_break() {
  test_break_tie_break_ = true;
  RebuildVictimIndex();
}

void Ftl::InvalidatePhysical(uint64_t ppn) {
  FLASHSIM_DCHECK(p2l_[ppn] != kUnmapped);
  p2l_[ppn] = kUnmapped;
  const uint32_t block = static_cast<uint32_t>(ppn / params_.pages_per_block);
  FLASHSIM_DCHECK(blocks_[block].valid_pages > 0);
  --blocks_[block].valid_pages;
  UpdateVictimIndex(block);
}

uint64_t Ftl::AllocatePage(FtlCost* cost) {
  const auto need_new_active = [this] {
    return active_block_ == UINT32_MAX ||
           blocks_[active_block_].write_pointer == params_.pages_per_block;
  };
  if (need_new_active()) {
    // Reclaim space first if we are at the watermark. GC itself allocates
    // pages for relocation, so it is re-entrant-guarded.
    while (!in_gc_ && free_list_.size() <= params_.gc_low_watermark) {
      CollectGarbage(cost);
    }
    // GC relocations may already have opened a fresh active block; opening
    // another here would abandon it half-written and leak its pages.
    if (need_new_active()) {
      FLASHSIM_CHECK(!free_list_.empty());
      const uint32_t sealed = active_block_;
      active_block_ = free_list_.back();
      free_list_.pop_back();
      FLASHSIM_DCHECK(blocks_[active_block_].write_pointer == 0);
      FLASHSIM_DCHECK(blocks_[active_block_].valid_pages == 0);
      // The sealed block becomes a candidate once it stops being active;
      // the new active block was free, so it stays a non-candidate.
      if (sealed != UINT32_MAX) {
        UpdateVictimIndex(sealed);
      }
    }
  }
  BlockInfo& block = blocks_[active_block_];
  const uint64_t ppn = PhysPage(active_block_, block.write_pointer);
  ++block.write_pointer;
  ++block.valid_pages;
  return ppn;
}

void Ftl::CollectGarbage(FtlCost* cost) {
  const VictimRank& top = victim_tree_[1];
  FLASHSIM_CHECK(top.candidate);
  const uint32_t victim = top.block;
  in_gc_ = true;

  // No victim is picked while this one is collected (relocations never
  // trigger GC), so its index entry is refreshed once, after the erase.
  BlockInfo& block = blocks_[victim];
  for (uint32_t slot = 0; slot < params_.pages_per_block && block.valid_pages > 0; ++slot) {
    const uint64_t ppn = PhysPage(victim, slot);
    const uint64_t lpn = p2l_[ppn];
    if (lpn == kUnmapped) {
      continue;
    }
    // Relocate: read the page, program it into the active block.
    cost->page_reads += 1;
    p2l_[ppn] = kUnmapped;
    --block.valid_pages;
    const uint64_t new_ppn = AllocatePage(cost);
    l2p_[lpn] = new_ppn;
    p2l_[new_ppn] = lpn;
    cost->page_programs += 1;
    ++total_programs_;
    ++relocated_pages_;
  }
  FLASHSIM_CHECK(block.valid_pages == 0);
  block.write_pointer = 0;
  ++block.erase_count;
  ++total_erases_;
  cost->block_erases += 1;
  free_list_.push_back(victim);
  UpdateVictimIndex(victim);
  in_gc_ = false;
}

FtlCost Ftl::Write(uint64_t lpn) {
  FLASHSIM_CHECK(lpn < params_.logical_pages);
  FtlCost cost;
  ++host_writes_;
  if (l2p_[lpn] != kUnmapped) {
    InvalidatePhysical(l2p_[lpn]);
  }
  const uint64_t ppn = AllocatePage(&cost);
  l2p_[lpn] = ppn;
  p2l_[ppn] = lpn;
  cost.page_programs += 1;
  ++total_programs_;
  return cost;
}

void Ftl::Trim(uint64_t lpn) {
  FLASHSIM_CHECK(lpn < params_.logical_pages);
  if (l2p_[lpn] == kUnmapped) {
    return;
  }
  InvalidatePhysical(l2p_[lpn]);
  l2p_[lpn] = kUnmapped;
}

double Ftl::write_amplification() const {
  return host_writes_ == 0
             ? 1.0
             : static_cast<double>(total_programs_) / static_cast<double>(host_writes_);
}

uint64_t Ftl::max_erase_count() const {
  uint64_t max_count = 0;
  for (const BlockInfo& block : blocks_) {
    max_count = std::max(max_count, block.erase_count);
  }
  return max_count;
}

double Ftl::mean_erase_count() const {
  uint64_t sum = 0;
  for (const BlockInfo& block : blocks_) {
    sum += block.erase_count;
  }
  return static_cast<double>(sum) / static_cast<double>(blocks_.size());
}

void Ftl::CheckInvariants() const {
  // L2P and P2L must be mutual inverses; per-block valid counts must match.
  std::vector<uint32_t> valid_count(blocks_.size(), 0);
  uint64_t mapped = 0;
  for (uint64_t lpn = 0; lpn < l2p_.size(); ++lpn) {
    const uint64_t ppn = l2p_[lpn];
    if (ppn == kUnmapped) {
      continue;
    }
    FLASHSIM_CHECK(ppn < p2l_.size());
    FLASHSIM_CHECK(p2l_[ppn] == lpn);
    ++valid_count[ppn / params_.pages_per_block];
    ++mapped;
  }
  uint64_t reverse_mapped = 0;
  for (uint64_t ppn = 0; ppn < p2l_.size(); ++ppn) {
    if (p2l_[ppn] != kUnmapped) {
      FLASHSIM_CHECK(l2p_[p2l_[ppn]] == ppn);
      ++reverse_mapped;
    }
  }
  FLASHSIM_CHECK(mapped == reverse_mapped);
  for (uint32_t b = 0; b < blocks_.size(); ++b) {
    FLASHSIM_CHECK(blocks_[b].valid_pages == valid_count[b]);
    FLASHSIM_CHECK(blocks_[b].valid_pages <= blocks_[b].write_pointer);
    FLASHSIM_CHECK(blocks_[b].write_pointer <= params_.pages_per_block);
  }
  // Free blocks really are empty.
  for (uint32_t b : free_list_) {
    FLASHSIM_CHECK(blocks_[b].valid_pages == 0);
    FLASHSIM_CHECK(blocks_[b].write_pointer == 0);
  }
  // The victim index is exact: every leaf ranks its block's current state
  // and every inner node holds the better of its children.
  const size_t leaves = blocks_.size();
  FLASHSIM_CHECK(victim_tree_.size() == 2 * leaves);
  for (uint32_t b = 0; b < leaves; ++b) {
    FLASHSIM_CHECK(victim_tree_[leaves + b] == RankOf(b));
  }
  for (size_t node = 1; node < leaves; ++node) {
    FLASHSIM_CHECK(victim_tree_[node] == ChildWinner(node));
  }
}

}  // namespace flashsim
