// Shared machinery for the two subset architectures (naive and lookaside).
//
// In both, the flash cache is an independent layer below the RAM cache and
// the RAM cache's contents are always a subset of the flash cache's (§3.3),
// so no integrated management is needed. They differ only in where dirty
// RAM data goes: naive writes it down into the flash tier (which then owns
// writing it to the filer), lookaside writes it directly to the filer and
// only refreshes the flash copy afterwards, so flash never holds dirty data.
//
// Degenerate capacities are supported so the same stacks produce the
// paper's baselines: flash_blocks == 0 gives the no-flash system (RAM over
// filer), ram_blocks == 0 gives the no-RAM configurations of Figs 6 and 7.
#ifndef FLASHSIM_SRC_ARCH_SUBSET_STACK_H_
#define FLASHSIM_SRC_ARCH_SUBSET_STACK_H_

#include <optional>

#include "src/arch/cache_stack.h"
#include "src/cache/lru_cache.h"
#include "src/cache/replacement.h"
#include "src/util/assert.h"

namespace flashsim {

class SubsetStackBase : public CacheStack {
 public:
  SubsetStackBase(const StackConfig& config, RamDevice& ram_dev, FlashDevice& flash_dev,
                  StorageService& remote, BackgroundWriter& writer);

  SimTime Read(SimTime now, BlockKey key, HitLevel* level) override;
  SimTime Write(SimTime now, BlockKey key) override;
  std::optional<SimTime> FlushOneRamBlock(SimTime now,
                                          SimTime dirtied_before = kSimTimeNever) override;
  void Invalidate(BlockKey key) override;
  // Union residency. Without admission filtering RAM ⊆ flash makes the
  // flash index authoritative; with a filter active, RAM-only residents
  // exist and the union is genuine.
  bool Holds(BlockKey key) const override;
  bool HoldsDirty(BlockKey key) const override {
    const uint32_t ram_slot = ram_.Lookup(key);
    if (ram_slot != kInvalidSlot && ram_.dirty(ram_slot)) {
      return true;
    }
    const uint32_t flash_slot = flash_.Lookup(key);
    return flash_slot != kInvalidSlot && flash_.dirty(flash_slot);
  }
  // The serial fast path inlines RAM hits only: one RAM probe, then Read's
  // own RAM-hit branch (ReadRamHit), so state and time match the event
  // round trip exactly. A flash hit installs the block in RAM, which may
  // evict, write back or notify the directory, so it takes the event path.
  std::optional<SimTime> TryReadFastPath(SimTime now, BlockKey key, HitLevel* level) override;
  std::optional<SimTime> TryReadRamHits(SimTime now, uint32_t file_id, uint64_t block,
                                        uint32_t count) override;
  uint64_t RamResident() const override { return ram_.size(); }
  uint64_t FlashResident() const override { return flash_.size(); }
  uint64_t DirtyBlocks() const override { return ram_.dirty_count() + flash_.dirty_count(); }
  void CheckInvariants() const override;

  const LruBlockCache& ram_cache() const { return ram_; }
  const LruBlockCache& flash_cache() const { return flash_; }

  // Test-only fault injection: when set, EnsureFlashSlot stops dropping the
  // evicted flash block's RAM copy, deliberately breaking the RAM-subset
  // invariant. Exists so the differential oracle and the invariant auditor
  // can demonstrate they catch a real single-branch eviction bug
  // (tests/differential_test.cc, tests/audit_test.cc). Never set outside
  // tests.
  void test_only_break_subset_eviction() { test_break_subset_eviction_ = true; }

  void test_only_break_replacement() override {
    ram_.eviction_policy().set_test_break(true);
    flash_.eviction_policy().set_test_break(true);
  }
  void test_only_break_admission() override {
    if (admission_.has_value()) {
      admission_->test_only_invert();
    }
  }

  bool admission_active() const { return admission_.has_value(); }

 protected:
  bool HasRam() const { return ram_.capacity() > 0; }
  bool HasFlash() const { return flash_.capacity() > 0; }

  // Whether `key` may occupy a flash slot right now: always when no
  // admission filter is active or the block is already flash-resident;
  // otherwise the filter decides (and a veto is counted).
  bool MayInstallInFlash(BlockKey key);

  // Read's RAM-hit branch: touch, hit counter, RAM device charge.
  SimTime ReadRamHit(SimTime now, uint32_t slot);

  // Ensures `key` occupies a flash slot (allocating, evicting the flash LRU
  // block if full). Evicted dirty data — or an evicted block whose RAM copy
  // was dirty — is synchronously written to the filer, charged to `t`
  // (these are the synchronous evictions that convoy under policy "n").
  // Maintains the RAM-subset invariant by dropping the evicted block's RAM
  // copy. Requires HasFlash().
  SimTime EnsureFlashSlot(SimTime t, BlockKey key, uint32_t* slot_out);
  // EnsureFlashSlot's install half, for a key known not to be in flash.
  SimTime InstallInFlash(SimTime t, BlockKey key, uint32_t* slot_out);

  // Inserts `key` into RAM (must be absent) and charges the RAM copy cost.
  // A dirty evicted block is synchronously written to the tier below RAM.
  // Requires HasRam().
  SimTime InstallInRam(SimTime t, BlockKey key, uint32_t* slot_out);

  // Writes the current data of RAM-resident (or just-evicted) block `key`
  // to the tier below RAM, applying the architecture's rules. When
  // `requester_waits` the returned completion blocks the caller (sync
  // policy, dirty eviction, syncer pacing); otherwise the writeback drains
  // through the background writer and the caller is not delayed. With no
  // flash tier the target is the filer in both architectures.
  SimTime WritebackFromRam(SimTime t, BlockKey key, bool requester_waits);

  // Architecture-specific: writeback target when a flash tier exists.
  virtual SimTime WritebackFromRamToBelow(SimTime t, BlockKey key, bool requester_waits) = 0;

  // Architecture-specific: an application write when ram_blocks == 0.
  virtual SimTime WriteWithoutRam(SimTime t, BlockKey key) = 0;

  LruBlockCache ram_;
  LruBlockCache flash_;
  // Engaged only under AdmissionPolicy::kFlashield with a flash tier.
  std::optional<FlashAdmissionFilter> admission_;

 private:
  bool test_break_subset_eviction_ = false;
};

// Naive architecture: flash is a plain lower tier. Dirty RAM data is
// written into the flash; the flash writeback policy then governs when it
// reaches the filer.
class NaiveStack : public SubsetStackBase {
 public:
  // Naive cannot run admission-filtered: WritebackFromRamToBelow requires
  // every RAM block to have a flash slot (RAM ⊆ flash), which a DRAM→flash
  // filter deliberately breaks. SimConfig::Validate rejects the combination
  // up front; this check guards direct constructions.
  NaiveStack(const StackConfig& config, RamDevice& ram_dev, FlashDevice& flash_dev,
             StorageService& remote, BackgroundWriter& writer)
      : SubsetStackBase(config, ram_dev, flash_dev, remote, writer) {
    FLASHSIM_CHECK(config.admission == AdmissionPolicy::kAll);
  }

  std::optional<SimTime> FlushOneFlashBlock(SimTime now,
                                            SimTime dirtied_before = kSimTimeNever) override;

 protected:
  SimTime WritebackFromRamToBelow(SimTime t, BlockKey key, bool requester_waits) override;
  SimTime WriteWithoutRam(SimTime t, BlockKey key) override;

 private:
  // Dirty data for `key` has just landed in flash slot `slot` at time `t`;
  // applies the flash writeback policy. Synchronous write-through blocks
  // the requester only when one is waiting; otherwise it drains through the
  // background writer like asynchronous write-through.
  SimTime ApplyFlashArrival(SimTime t, BlockKey key, uint32_t slot, bool requester_waits);
};

// Lookaside architecture (Mercury, §2): writes go RAM -> filer; the flash
// copy is updated after the filer write completes and is never dirty, so
// applications see persistence guarantees identical to a flash-less system.
class LookasideStack : public SubsetStackBase {
 public:
  using SubsetStackBase::SubsetStackBase;

  // Flash never holds dirty data; the flash syncer has nothing to do.
  std::optional<SimTime> FlushOneFlashBlock(SimTime now,
                                            SimTime dirtied_before = kSimTimeNever) override;

 protected:
  SimTime WritebackFromRamToBelow(SimTime t, BlockKey key, bool requester_waits) override;
  SimTime WriteWithoutRam(SimTime t, BlockKey key) override;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_ARCH_SUBSET_STACK_H_
