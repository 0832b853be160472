#include "src/arch/subset_stack.h"

namespace flashsim {

SubsetStackBase::SubsetStackBase(const StackConfig& config, RamDevice& ram_dev,
                                 FlashDevice& flash_dev, StorageService& remote,
                                 BackgroundWriter& writer)
    : CacheStack(config, ram_dev, flash_dev, remote, writer),
      ram_("ram", config.ram_blocks, 0, config.replacement),
      flash_("flash", 0, config.flash_blocks, config.replacement) {
  if (config.admission == AdmissionPolicy::kFlashield && config.flash_blocks > 0) {
    admission_.emplace(config.flash_blocks);
  }
}

bool SubsetStackBase::MayInstallInFlash(BlockKey key) {
  if (!admission_.has_value() || flash_.Lookup(key) != kInvalidSlot) {
    return true;
  }
  if (admission_->ShouldAdmit(key)) {
    return true;
  }
  ++counters_.flash_admission_rejects;
  return false;
}

AccessVerdict SubsetStackBase::ClassifyAccess(TraceOp op, BlockKey key) const {
  if (op == TraceOp::kWrite) {
    // Certified branch of Write: a RAM-resident hit whose writeback policy
    // marks dirty in place — Touch + ram write + MarkDirty, no
    // write-through, no install, no residency callback.
    if (!HasRam() || ram_.Lookup(key) == kInvalidSlot) {
      return AccessVerdict::kUncertifiable;
    }
    if (config_.ram_policy == WritebackPolicy::kSync ||
        config_.ram_policy == WritebackPolicy::kAsync) {
      return AccessVerdict::kUncertifiable;
    }
    return AccessVerdict::kPrivateWrite;
  }
  if (HasRam() && ram_.Lookup(key) != kInvalidSlot) {
    return AccessVerdict::kPureRamHit;
  }
  if (!HasFlash() || flash_.Lookup(key) == kInvalidSlot) {
    return AccessVerdict::kUncertifiable;
  }
  // Flash hit. With no RAM tier the read is touch + flash charge only;
  // otherwise the InstallInRam that follows must take its silent path.
  return !HasRam() || RamInstallIsSilent() ? AccessVerdict::kFlashHit
                                           : AccessVerdict::kUncertifiable;
}

bool SubsetStackBase::RamInstallIsSilent() const {
  if (ram_.size() < ram_.capacity()) {
    return true;  // free slot: install without eviction
  }
  const uint32_t victim = ram_.eviction_policy().PeekVictim();
  if (victim == kInvalidSlot || ram_.dirty(victim)) {
    return false;
  }
  // Without an admission filter the install never notifies; with one, it
  // notifies only when it drops a RAM-only resident.
  return !admission_.has_value() || flash_.Lookup(ram_.key_of(victim)) != kInvalidSlot;
}

SimTime SubsetStackBase::ReadRamHit(SimTime now, uint32_t slot) {
  ram_.Touch(slot);
  ++counters_.ram_hits;
  return ram_dev_->Read(now);
}

SimTime SubsetStackBase::ReadFlashHit(SimTime now, BlockKey key, uint32_t fslot) {
  flash_.Touch(fslot);
  ++counters_.flash_hits;
  const SimTime t = flash_dev_->Read(now);
  return HasRam() ? InstallInRam(t, key, nullptr) : t;
}

std::optional<SimTime> SubsetStackBase::TryReadFastPath(SimTime now, BlockKey key,
                                                        HitLevel* level) {
  if (HasRam()) {
    const uint32_t slot = ram_.Lookup(key);
    if (slot != kInvalidSlot) {
      *level = HitLevel::kRam;
      return ReadRamHit(now, slot);
    }
  }
  if (!HasFlash()) {
    return std::nullopt;
  }
  const uint32_t fslot = flash_.Lookup(key);
  if (fslot == kInvalidSlot || (HasRam() && !RamInstallIsSilent())) {
    return std::nullopt;
  }
  *level = HitLevel::kFlash;
  return ReadFlashHit(now, key, fslot);
}

std::optional<SimTime> SubsetStackBase::TryReadRamHits(SimTime now, uint32_t file_id,
                                                       uint64_t block, uint32_t count) {
  if (!HasRam()) {
    return std::nullopt;
  }
  run_slots_.clear();
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t slot = ram_.Lookup(MakeBlockKey(file_id, block + i));
    if (slot == kInvalidSlot) {
      return std::nullopt;
    }
    run_slots_.push_back(slot);
  }
  for (const uint32_t slot : run_slots_) {
    now = ReadRamHit(now, slot);
  }
  return now;
}

SimTime SubsetStackBase::Read(SimTime now, BlockKey key, HitLevel* level) {
  if (HasRam()) {
    const uint32_t slot = ram_.Lookup(key);
    if (slot != kInvalidSlot) {
      *level = HitLevel::kRam;
      return ReadRamHit(now, slot);
    }
  }
  if (HasFlash()) {
    const uint32_t fslot = flash_.Lookup(key);
    if (fslot != kInvalidSlot) {
      *level = HitLevel::kFlash;
      return ReadFlashHit(now, key, fslot);
    }
  }
  // Miss: fetch from the filer.
  bool fast = true;
  SimTime t = remote_->Read(now, key, &fast);
  ++counters_.filer_reads;
  if (HasFlash() && MayInstallInFlash(key)) {
    // The flash probe above missed and nothing since installed the block.
    uint32_t fslot = kInvalidSlot;
    t = InstallInFlash(t, key, &fslot);
    // Install the data into the flash asynchronously: the application gets
    // the data as soon as it arrives; the flash write is hidden (§7.1) but
    // occupies the device.
    flash_dev_->Write(t, key);
    ++counters_.flash_installs;
  }
  if (HasRam()) {
    t = InstallInRam(t, key, nullptr);
  }
  *level = fast ? HitLevel::kFilerFast : HitLevel::kFilerSlow;
  return t;
}

SimTime SubsetStackBase::Write(SimTime now, BlockKey key) {
  SimTime t = now;
  if (!HasRam()) {
    if (!HasFlash()) {
      // No caching at all: synchronous filer write.
      ++counters_.filer_writebacks;
      ++counters_.sync_filer_writes;
      return remote_->Write(t, key);
    }
    return WriteWithoutRam(t, key);
  }
  uint32_t slot = ram_.Lookup(key);
  if (slot == kInvalidSlot) {
    if (HasFlash() && MayInstallInFlash(key)) {
      // Subset invariant: the block enters the flash index before RAM.
      uint32_t fslot = kInvalidSlot;
      t = EnsureFlashSlot(t, key, &fslot);
    }
    t = InstallInRam(t, key, &slot);
  } else {
    ram_.Touch(slot);
    t = ram_dev_->Write(t);
  }
  switch (config_.ram_policy) {
    case WritebackPolicy::kSync:
      // Blocks the application until the tier below acknowledges.
      t = WritebackFromRam(t, key, /*requester_waits=*/true);
      break;
    case WritebackPolicy::kAsync:
      // Issued immediately; the application does not wait.
      WritebackFromRam(t, key, /*requester_waits=*/false);
      break;
    default:
      ram_.MarkDirty(slot, t);
      break;
  }
  return t;
}

SimTime SubsetStackBase::EnsureFlashSlot(SimTime t, BlockKey key, uint32_t* slot_out) {
  FLASHSIM_DCHECK(HasFlash());
  const uint32_t slot = flash_.Lookup(key);
  if (slot != kInvalidSlot) {
    flash_.Touch(slot);
    *slot_out = slot;
    return t;
  }
  return InstallInFlash(t, key, slot_out);
}

SimTime SubsetStackBase::InstallInFlash(SimTime t, BlockKey key, uint32_t* slot_out) {
  std::optional<EvictedBlock> evicted;
  const uint32_t slot = flash_.Insert(key, /*dirty=*/false, &evicted);
  if (evicted.has_value()) {
    // Subset maintenance: the evicted block leaves RAM too. If either copy
    // was dirty, its newest data must reach the filer before the buffer is
    // reused — a synchronous eviction charged to the requester.
    bool ram_copy_dirty = false;
    if (HasRam() && !test_break_subset_eviction_) {
      EvictedBlock ram_copy;
      if (ram_.Remove(evicted->key, &ram_copy)) {
        ram_copy_dirty = ram_copy.dirty;
      }
    }
    if (evicted->dirty || ram_copy_dirty) {
      ++counters_.sync_flash_evictions;
      ++counters_.filer_writebacks;
      ++counters_.sync_filer_writes;
      t = remote_->Write(t, evicted->key);
    }
    flash_dev_->Trim(evicted->key);
    NotifyDropped(evicted->key);
  }
  NotifyCached(key);
  *slot_out = slot;
  return t;
}

SimTime SubsetStackBase::InstallInRam(SimTime t, BlockKey key, uint32_t* slot_out) {
  FLASHSIM_DCHECK(HasRam());
  std::optional<EvictedBlock> evicted;
  const uint32_t slot = ram_.Insert(key, /*dirty=*/false, &evicted);
  if (evicted.has_value() && evicted->dirty) {
    // Synchronous RAM eviction: the dirty victim's data must move down
    // before its buffer is reused.
    ++counters_.sync_ram_evictions;
    t = WritebackFromRam(t, evicted->key, /*requester_waits=*/true);
  }
  if (!HasFlash()) {
    // RAM is the union cache; track residency here.
    if (evicted.has_value()) {
      NotifyDropped(evicted->key);
    }
    NotifyCached(key);
  } else if (admission_.has_value()) {
    // Admission filtering leaves RAM-only residents; the directory must
    // learn about them here (flash-resident blocks are registered by
    // EnsureFlashSlot).
    if (evicted.has_value() && flash_.Lookup(evicted->key) == kInvalidSlot) {
      NotifyDropped(evicted->key);
    }
    if (flash_.Lookup(key) == kInvalidSlot) {
      NotifyCached(key);
    }
  }
  if (slot_out != nullptr) {
    *slot_out = slot;
  }
  return ram_dev_->Write(t);
}

SimTime SubsetStackBase::WritebackFromRam(SimTime t, BlockKey key, bool requester_waits) {
  if (!HasFlash()) {
    ++counters_.filer_writebacks;
    if (requester_waits) {
      ++counters_.sync_filer_writes;
      return remote_->Write(t, key);
    }
    writer_->EnqueueFilerWrite(t, /*then_flash=*/false, key);
    return t;
  }
  return WritebackFromRamToBelow(t, key, requester_waits);
}

std::optional<SimTime> SubsetStackBase::FlushOneRamBlock(SimTime now, SimTime dirtied_before) {
  const uint32_t slot = ram_.OldestDirty(Medium::kRam);
  if (slot == kInvalidSlot || ram_.dirtied_at(slot) > dirtied_before) {
    return std::nullopt;
  }
  const BlockKey key = ram_.key_of(slot);
  ram_.MarkClean(slot);
  // The syncer thread paces itself on the writeback it just issued.
  return WritebackFromRam(now, key, /*requester_waits=*/true);
}

void SubsetStackBase::Invalidate(BlockKey key) {
  bool held = false;
  if (HasRam()) {
    held = ram_.Remove(key) || held;
  }
  if (HasFlash()) {
    if (flash_.Remove(key)) {
      flash_dev_->Trim(key);
      held = true;
    }
  }
  if (held) {
    NotifyDropped(key);
  }
}

bool SubsetStackBase::Holds(BlockKey key) const {
  if (HasFlash()) {
    if (flash_.Lookup(key) != kInvalidSlot) {
      return true;
    }
    // Only an admission filter can leave a block in RAM but not flash.
    return admission_.has_value() && ram_.Lookup(key) != kInvalidSlot;
  }
  return ram_.Lookup(key) != kInvalidSlot;
}

void SubsetStackBase::CheckInvariants() const {
  ram_.CheckInvariants();
  flash_.CheckInvariants();
  if (HasFlash() && !admission_.has_value()) {
    // RAM must be a subset of flash (§3.3). An active admission filter
    // deliberately relaxes this: vetoed blocks live in RAM only.
    ram_.ForEach([&](BlockKey key, Medium, bool) {
      FLASHSIM_CHECK(flash_.Lookup(key) != kInvalidSlot);
    });
  }
}

// ----------------------------------------------------------------------------
// NaiveStack

SimTime NaiveStack::ApplyFlashArrival(SimTime t, BlockKey key, uint32_t slot,
                                      bool requester_waits) {
  switch (config_.flash_policy) {
    case WritebackPolicy::kSync:
      ++counters_.filer_writebacks;
      if (requester_waits) {
        ++counters_.sync_filer_writes;
        return remote_->Write(t, key);
      }
      writer_->EnqueueFilerWrite(t, /*then_flash=*/false, key);
      return t;
    case WritebackPolicy::kAsync:
      ++counters_.filer_writebacks;
      writer_->EnqueueFilerWrite(t, /*then_flash=*/false, key);
      return t;
    default:
      flash_.MarkDirty(slot, t);
      return t;
  }
}

SimTime NaiveStack::WritebackFromRamToBelow(SimTime t, BlockKey key, bool requester_waits) {
  // Subset invariant guarantees the flash slot exists.
  const uint32_t slot = flash_.Lookup(key);
  FLASHSIM_CHECK(slot != kInvalidSlot);
  const SimTime tw = flash_dev_->Write(t, key);
  ++counters_.flash_installs;
  return ApplyFlashArrival(tw, key, slot, requester_waits);
}

SimTime NaiveStack::WriteWithoutRam(SimTime t, BlockKey key) {
  uint32_t slot = kInvalidSlot;
  t = EnsureFlashSlot(t, key, &slot);
  // With no RAM buffer the application pays the flash write itself.
  t = flash_dev_->Write(t, key);
  ++counters_.flash_installs;
  return ApplyFlashArrival(t, key, slot, /*requester_waits=*/true);
}

std::optional<SimTime> NaiveStack::FlushOneFlashBlock(SimTime now, SimTime dirtied_before) {
  const uint32_t slot = flash_.OldestDirty(Medium::kFlash);
  if (slot == kInvalidSlot || flash_.dirtied_at(slot) > dirtied_before) {
    return std::nullopt;
  }
  const BlockKey key = flash_.key_of(slot);
  flash_.MarkClean(slot);
  ++counters_.filer_writebacks;
  ++counters_.sync_filer_writes;
  return remote_->Write(now, key);
}

// ----------------------------------------------------------------------------
// LookasideStack

SimTime LookasideStack::WritebackFromRamToBelow(SimTime t, BlockKey key, bool requester_waits) {
  // Writes go directly from RAM to the filer; the flash copy is refreshed
  // only after the filer write completes, so flash never holds dirty data.
  ++counters_.filer_writebacks;
  if (!requester_waits) {
    // Without admission filtering RAM ⊆ flash guarantees the flash copy
    // exists, so the refresh is unconditional; a filter can leave the block
    // RAM-only, in which case there is nothing in flash to refresh.
    const bool refresh = !admission_.has_value() || flash_.Lookup(key) != kInvalidSlot;
    writer_->EnqueueFilerWrite(t, /*then_flash=*/refresh, key);
    if (refresh) {
      ++counters_.flash_installs;
    }
    return t;
  }
  ++counters_.sync_filer_writes;
  const SimTime tw = remote_->Write(t, key);
  const uint32_t slot = flash_.Lookup(key);
  if (slot != kInvalidSlot) {
    flash_dev_->Write(tw, key);
    ++counters_.flash_installs;
  }
  return tw;
}

SimTime LookasideStack::WriteWithoutRam(SimTime t, BlockKey key) {
  ++counters_.filer_writebacks;
  ++counters_.sync_filer_writes;
  t = remote_->Write(t, key);
  if (!MayInstallInFlash(key)) {
    return t;
  }
  uint32_t slot = kInvalidSlot;
  const SimTime after_evictions = EnsureFlashSlot(t, key, &slot);
  flash_dev_->Write(after_evictions, key);
  ++counters_.flash_installs;
  return after_evictions;
}

std::optional<SimTime> LookasideStack::FlushOneFlashBlock(SimTime, SimTime) {
  FLASHSIM_DCHECK(flash_.dirty_count() == 0);
  return std::nullopt;
}

}  // namespace flashsim
