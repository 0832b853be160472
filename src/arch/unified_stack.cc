#include "src/arch/unified_stack.h"

namespace flashsim {

UnifiedStack::UnifiedStack(const StackConfig& config, RamDevice& ram_dev,
                           FlashDevice& flash_dev, StorageService& remote,
                           BackgroundWriter& writer)
    : CacheStack(config, ram_dev, flash_dev, remote, writer),
      cache_("unified", config.ram_blocks, config.flash_blocks, config.replacement) {
  if (config.admission == AdmissionPolicy::kFlashield && config.flash_blocks > 0) {
    admission_.emplace(config.flash_blocks);
  }
}

bool UnifiedStack::AdmitInsert(BlockKey key) {
  if (!admission_.has_value()) {
    return true;
  }
  if (admission_->ShouldAdmit(key)) {
    return true;
  }
  ++counters_.flash_admission_rejects;
  return false;
}

SimTime UnifiedStack::InsertBlock(SimTime t, BlockKey key, uint32_t* slot_out) {
  std::optional<EvictedBlock> evicted;
  const uint32_t slot = cache_.Insert(key, /*dirty=*/false, &evicted);
  if (slot == kInvalidSlot) {
    // Zero-capacity cache: nothing was inserted.
    *slot_out = slot;
    return t;
  }
  if (evicted.has_value()) {
    if (evicted->dirty) {
      // Synchronous eviction: the victim's data must reach the filer before
      // its buffer is reused.
      ++counters_.sync_flash_evictions;
      ++counters_.filer_writebacks;
      ++counters_.sync_filer_writes;
      NoteShardWrite(evicted->key);
      t = remote_->Write(t, evicted->key);
    }
    flash_dev_->Trim(evicted->key);
    NotifyDropped(evicted->key);
  }
  NotifyCached(key);
  *slot_out = slot;
  return t;
}

std::optional<SimTime> UnifiedStack::TryReadRamHits(SimTime now, uint32_t file_id,
                                                    uint64_t block, uint32_t count) {
  run_slots_.clear();
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t slot = cache_.Lookup(MakeBlockKey(file_id, block + i));
    if (slot == kInvalidSlot || cache_.medium_of(slot) != Medium::kRam) {
      return std::nullopt;
    }
    run_slots_.push_back(slot);
  }
  for (const uint32_t slot : run_slots_) {
    cache_.Touch(slot);
    ++counters_.ram_hits;
    now = ram_dev_->Read(now);
  }
  return now;
}

SimTime UnifiedStack::Read(SimTime now, BlockKey key, HitLevel* level) {
  if (const std::optional<SimTime> hit = TryReadFastPath(now, key, level)) {
    return *hit;
  }
  uint32_t slot = kInvalidSlot;
  bool fast = true;
  SimTime t = remote_->Read(now, key, &fast);
  ++counters_.filer_reads;
  NoteShardRead(key);
  if (AdmitInsert(key)) {
    t = InsertBlock(t, key, &slot);
  }
  if (slot != kInvalidSlot) {
    if (cache_.medium_of(slot) == Medium::kRam) {
      t = ram_dev_->Write(t);
    } else {
      // Flash install is asynchronous on reads; the data has already
      // arrived from the filer, the flash copy trails behind.
      flash_dev_->Write(t, key);
      ++counters_.flash_installs;
    }
  }
  *level = fast ? HitLevel::kFilerFast : HitLevel::kFilerSlow;
  return t;
}

SimTime UnifiedStack::Write(SimTime now, BlockKey key) {
  SimTime t = now;
  uint32_t slot = cache_.Lookup(key);
  if (slot == kInvalidSlot) {
    if (AdmitInsert(key)) {
      t = InsertBlock(t, key, &slot);
    }
    if (slot == kInvalidSlot) {
      // Zero-capacity cache or admission veto: with no buffer to hold the
      // dirty data, the write goes synchronously to the filer.
      ++counters_.filer_writebacks;
      ++counters_.sync_filer_writes;
      NoteShardWrite(key);
      return remote_->Write(t, key);
    }
  } else {
    cache_.Touch(slot);
  }
  const Medium medium = cache_.medium_of(slot);
  if (medium == Medium::kRam) {
    t = ram_dev_->Write(t);
  } else {
    // Writes into flash buffers expose the flash write latency (§7.1: the
    // unified architecture sees ~8/9 of the flash write time on average).
    t = flash_dev_->Write(t, key);
    ++counters_.flash_installs;
  }
  switch (PolicyFor(medium)) {
    case WritebackPolicy::kSync:
      ++counters_.filer_writebacks;
      ++counters_.sync_filer_writes;
      NoteShardWrite(key);
      t = remote_->Write(t, key);
      break;
    case WritebackPolicy::kAsync:
      ++counters_.filer_writebacks;
      NoteShardWrite(key);
      writer_->EnqueueFilerWrite(t, /*then_flash=*/false, key);
      break;
    default:
      cache_.MarkDirty(slot, t);
      break;
  }
  return t;
}

std::optional<SimTime> UnifiedStack::FlushOneOf(SimTime now, Medium medium,
                                                SimTime dirtied_before) {
  const uint32_t slot = cache_.OldestDirty(medium);
  if (slot == kInvalidSlot || cache_.dirtied_at(slot) > dirtied_before) {
    return std::nullopt;
  }
  const BlockKey key = cache_.key_of(slot);
  cache_.MarkClean(slot);
  ++counters_.filer_writebacks;
  ++counters_.sync_filer_writes;
  NoteShardWrite(key);
  return remote_->Write(now, key);
}

std::optional<SimTime> UnifiedStack::FlushOneRamBlock(SimTime now, SimTime dirtied_before) {
  return FlushOneOf(now, Medium::kRam, dirtied_before);
}

std::optional<SimTime> UnifiedStack::FlushOneFlashBlock(SimTime now, SimTime dirtied_before) {
  return FlushOneOf(now, Medium::kFlash, dirtied_before);
}

void UnifiedStack::Invalidate(BlockKey key) {
  if (cache_.Remove(key)) {
    flash_dev_->Trim(key);
    NotifyDropped(key);
  }
}

uint64_t UnifiedStack::RamResident() const {
  uint64_t count = 0;
  cache_.ForEach([&](BlockKey, Medium medium, bool) {
    if (medium == Medium::kRam) {
      ++count;
    }
  });
  return count;
}

uint64_t UnifiedStack::FlashResident() const {
  uint64_t count = 0;
  cache_.ForEach([&](BlockKey, Medium medium, bool) {
    if (medium == Medium::kFlash) {
      ++count;
    }
  });
  return count;
}

}  // namespace flashsim
