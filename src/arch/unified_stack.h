// Unified architecture (§3.3): RAM and flash buffers are managed together
// on a single LRU chain. Data blocks are placed into the least recently
// used buffer, whether that buffer is RAM or flash, and are never migrated;
// no attempt is made to prefer RAM. The effective cache capacity is the sum
// of the two media — the source of its read-latency advantage in Fig 2 —
// while writes pay the latency of whichever medium the block landed in
// (8/9 of blocks land in flash at the baseline 8 GB + 64 GB split).
//
// Dirty blocks write back to the filer under the policy of their medium:
// RAM-buffer blocks follow the RAM writeback policy, flash-buffer blocks
// the flash policy.
#ifndef FLASHSIM_SRC_ARCH_UNIFIED_STACK_H_
#define FLASHSIM_SRC_ARCH_UNIFIED_STACK_H_

#include <optional>

#include "src/arch/cache_stack.h"
#include "src/cache/lru_cache.h"
#include "src/cache/replacement.h"

namespace flashsim {

class UnifiedStack : public CacheStack {
 public:
  UnifiedStack(const StackConfig& config, RamDevice& ram_dev, FlashDevice& flash_dev,
               StorageService& remote, BackgroundWriter& writer);

  SimTime Read(SimTime now, BlockKey key, HitLevel* level) override;
  SimTime Write(SimTime now, BlockKey key) override;
  std::optional<SimTime> FlushOneRamBlock(SimTime now,
                                          SimTime dirtied_before = kSimTimeNever) override;
  std::optional<SimTime> FlushOneFlashBlock(SimTime now,
                                            SimTime dirtied_before = kSimTimeNever) override;
  void Invalidate(BlockKey key) override;
  bool Holds(BlockKey key) const override { return cache_.Lookup(key) != kInvalidSlot; }
  bool HoldsDirty(BlockKey key) const override {
    const uint32_t slot = cache_.Lookup(key);
    return slot != kInvalidSlot && cache_.dirty(slot);
  }
  // Certified-class verdicts (DESIGN.md §13). Any resident hit is
  // host-local on the unified chain — blocks never migrate, so a hit is
  // Touch + counter + the landing medium's device charge, with no install,
  // eviction, or residency callback. Writes certify on the resident +
  // MarkDirty-policy branch for either medium (a flash-medium write charges
  // only the host's own flash timeline).
  AccessVerdict ClassifyAccess(TraceOp op, BlockKey key) const override {
    const uint32_t slot = cache_.Lookup(key);
    if (slot == kInvalidSlot) {
      return AccessVerdict::kUncertifiable;
    }
    if (op == TraceOp::kWrite) {
      const WritebackPolicy policy = PolicyFor(cache_.medium_of(slot));
      if (policy == WritebackPolicy::kSync || policy == WritebackPolicy::kAsync) {
        return AccessVerdict::kUncertifiable;
      }
      return AccessVerdict::kPrivateWrite;
    }
    return cache_.medium_of(slot) == Medium::kRam ? AccessVerdict::kPureRamHit
                                                  : AccessVerdict::kFlashHit;
  }
  // One probe that certifies and executes: every resident hit is Read's
  // hit branch — Touch, the medium's hit counter and device charge — which
  // Read itself runs through this function.
  std::optional<SimTime> TryReadFastPath(SimTime now, BlockKey key, HitLevel* level) override {
    const uint32_t slot = cache_.Lookup(key);
    if (slot == kInvalidSlot) {
      return std::nullopt;
    }
    cache_.Touch(slot);
    if (cache_.medium_of(slot) == Medium::kRam) {
      ++counters_.ram_hits;
      *level = HitLevel::kRam;
      return ram_dev_->Read(now);
    }
    ++counters_.flash_hits;
    *level = HitLevel::kFlash;
    return flash_dev_->Read(now);
  }
  std::optional<SimTime> TryReadRamHits(SimTime now, uint32_t file_id, uint64_t block,
                                        uint32_t count) override;
  uint64_t RamResident() const override;
  uint64_t FlashResident() const override;
  uint64_t DirtyBlocks() const override { return cache_.dirty_count(); }
  void CheckInvariants() const override { cache_.CheckInvariants(); }

  const LruBlockCache& cache() const { return cache_; }

  void test_only_break_replacement() override {
    cache_.eviction_policy().set_test_break(true);
  }
  void test_only_break_admission() override {
    if (admission_.has_value()) {
      admission_->test_only_invert();
    }
  }

  bool admission_active() const { return admission_.has_value(); }

 protected:
  // Whether a missed block may be inserted at all. The unified chain places
  // new blocks in the least-recently-used buffer — overwhelmingly a flash
  // buffer at the paper's 8 GB + 64 GB split — so the admission filter
  // gates every miss-path insert rather than predicting the landing medium.
  bool AdmitInsert(BlockKey key);
  WritebackPolicy PolicyFor(Medium medium) const {
    return medium == Medium::kRam ? config_.ram_policy : config_.flash_policy;
  }

  // Inserts `key` into the least recently used buffer; synchronous filer
  // writeback of an evicted dirty block is charged to `t`.
  SimTime InsertBlock(SimTime t, BlockKey key, uint32_t* slot_out);

  // Writes back the oldest dirty block held in a buffer of `medium`, if it
  // was dirtied at or before `dirtied_before`.
  std::optional<SimTime> FlushOneOf(SimTime now, Medium medium, SimTime dirtied_before);

  LruBlockCache cache_;
  // Engaged only under AdmissionPolicy::kFlashield with flash buffers.
  std::optional<FlashAdmissionFilter> admission_;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_ARCH_UNIFIED_STACK_H_
