#include "src/check/oracle.h"

#include <cmath>

#include "src/arch/subset_stack.h"
#include "src/arch/unified_stack.h"
#include "src/util/assert.h"

namespace flashsim {

OracleHit CollapseHitLevel(HitLevel level) {
  switch (level) {
    case HitLevel::kRam:
      return OracleHit::kRam;
    case HitLevel::kFlash:
      return OracleHit::kFlash;
    case HitLevel::kFilerFast:
    case HitLevel::kFilerSlow:
      return OracleHit::kFiler;
  }
  FLASHSIM_CHECK(false);
  return OracleHit::kFiler;
}

const char* OracleHitName(OracleHit hit) {
  switch (hit) {
    case OracleHit::kRam:
      return "ram";
    case OracleHit::kFlash:
      return "flash";
    case OracleHit::kFiler:
      return "filer";
  }
  return "?";
}

// ----------------------------------------------------------------------------
// OracleLru

OracleLru::OracleLru(uint64_t ram_slots, uint64_t flash_slots, ReplacementPolicy replacement)
    : ram_slots_(ram_slots),
      flash_slots_(flash_slots),
      replacement_(replacement),
      protected_cap_((ram_slots + flash_slots) / 2) {}

uint64_t OracleLru::dirty_count() const { return dirty_[0].size() + dirty_[1].size(); }

Medium OracleLru::MediumOf(BlockKey key) const {
  const auto it = entries_.find(key);
  FLASHSIM_CHECK(it != entries_.end());
  return it->second.slot < ram_slots_ ? Medium::kRam : Medium::kFlash;
}

bool OracleLru::IsDirty(BlockKey key) const {
  const auto it = entries_.find(key);
  FLASHSIM_CHECK(it != entries_.end());
  return it->second.dirty;
}

void OracleLru::Touch(BlockKey key) {
  const auto it = entries_.find(key);
  FLASHSIM_CHECK(it != entries_.end());
  Entry& entry = it->second;
  switch (replacement_) {
    case ReplacementPolicy::kLru:
      lru_.erase(entry.lru_it);
      lru_.push_front(key);
      entry.lru_it = lru_.begin();
      return;
    case ReplacementPolicy::kFifo:
      // Insertion order is the only order: hits change nothing.
      return;
    case ReplacementPolicy::kClock:
      // The chain stays put; the reference bit buys one second chance.
      entry.referenced = true;
      return;
    case ReplacementPolicy::kSlru:
      if (!entry.probationary) {
        // Protected hit: plain move-to-front within the protected segment.
        lru_.erase(entry.lru_it);
        lru_.push_front(key);
        entry.lru_it = lru_.begin();
        return;
      }
      // Probationary hit: promote to the protected MRU; if that overfills
      // the protected segment, its LRU member falls back to the
      // probationary MRU (same global chain position either way).
      prob_.erase(entry.lru_it);
      lru_.push_front(key);
      entry.lru_it = lru_.begin();
      entry.probationary = false;
      if (lru_.size() > protected_cap_) {
        const BlockKey demoted = lru_.back();
        lru_.pop_back();
        prob_.push_front(demoted);
        Entry& d = entries_.at(demoted);
        d.lru_it = prob_.begin();
        d.probationary = true;
      }
      return;
    case ReplacementPolicy::kLruK:
      entry.prev_tick = entry.last_tick;
      entry.last_tick = ++tick_;
      lru_.erase(entry.lru_it);
      lru_.push_front(key);
      entry.lru_it = lru_.begin();
      return;
  }
  FLASHSIM_CHECK(false);
}

BlockKey OracleLru::SelectVictim() {
  switch (replacement_) {
    case ReplacementPolicy::kLru:
    case ReplacementPolicy::kFifo:
      return lru_.back();
    case ReplacementPolicy::kClock:
      // Rotate the tail forward, clearing bits, until an unreferenced block
      // surfaces; bounded because every spin clears one bit.
      for (uint64_t spins = 0; spins <= 2 * size(); ++spins) {
        const BlockKey candidate = lru_.back();
        Entry& entry = entries_.at(candidate);
        if (!entry.referenced) {
          return candidate;
        }
        entry.referenced = false;
        lru_.pop_back();
        lru_.push_front(candidate);
        entry.lru_it = lru_.begin();
      }
      FLASHSIM_CHECK(false);
      return 0;
    case ReplacementPolicy::kSlru:
      // Victim is the global chain tail: the probationary LRU when the
      // segment is populated, else the protected LRU.
      return prob_.empty() ? lru_.back() : prob_.back();
    case ReplacementPolicy::kLruK: {
      // LRU-2: evict the smallest (penultimate tick, last tick, slot); a
      // block seen only once (prev == 0) loses to any block seen twice.
      bool found = false;
      BlockKey best_key = 0;
      uint64_t best_prev = 0;
      uint64_t best_last = 0;
      uint32_t best_slot = 0;
      for (const auto& [key, entry] : entries_) {
        if (!found || entry.prev_tick < best_prev ||
            (entry.prev_tick == best_prev &&
             (entry.last_tick < best_last ||
              (entry.last_tick == best_last && entry.slot < best_slot)))) {
          found = true;
          best_key = key;
          best_prev = entry.prev_tick;
          best_last = entry.last_tick;
          best_slot = entry.slot;
        }
      }
      FLASHSIM_CHECK(found);
      return best_key;
    }
  }
  FLASHSIM_CHECK(false);
  return 0;
}

uint32_t OracleLru::AllocateSlot() {
  // Mirrors LruBlockCache: slots freed by Remove are reused LIFO, then
  // never-used slots are handed out in index order.
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  return next_unused_++;
}

bool OracleLru::Insert(BlockKey key, std::optional<OracleBlock>* evicted) {
  evicted->reset();
  FLASHSIM_CHECK(entries_.count(key) == 0);
  if (capacity() == 0) {
    return false;
  }
  uint32_t slot;
  if (size() < capacity()) {
    slot = AllocateSlot();
  } else {
    // Full: evict the policy's victim and reuse its buffer (§3.3: under
    // exact LRU new blocks land in the least recently used buffer, whatever
    // its medium; other policies choose their own victim).
    const BlockKey victim = SelectVictim();
    OracleBlock removed;
    FLASHSIM_CHECK(Remove(victim, &removed));
    *evicted = removed;
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Entry entry;
  entry.slot = slot;
  entry.dirty = false;
  if (replacement_ == ReplacementPolicy::kSlru) {
    // New blocks start on probation; only a hit promotes them.
    prob_.push_front(key);
    entry.lru_it = prob_.begin();
    entry.probationary = true;
  } else {
    lru_.push_front(key);
    entry.lru_it = lru_.begin();
  }
  if (replacement_ == ReplacementPolicy::kLruK) {
    entry.last_tick = ++tick_;
    entry.prev_tick = 0;
  }
  entries_[key] = entry;
  return true;
}

bool OracleLru::Remove(BlockKey key, OracleBlock* removed) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return false;
  }
  if (removed != nullptr) {
    removed->key = key;
    removed->medium = it->second.slot < ram_slots_ ? Medium::kRam : Medium::kFlash;
    removed->dirty = it->second.dirty;
  }
  if (it->second.dirty) {
    const size_t m = it->second.slot < ram_slots_ ? 0 : 1;
    dirty_[m].erase(it->second.dirty_it);
  }
  ChainOf(it->second).erase(it->second.lru_it);
  free_slots_.push_back(it->second.slot);
  entries_.erase(it);
  return true;
}

void OracleLru::MarkDirty(BlockKey key) {
  const auto it = entries_.find(key);
  FLASHSIM_CHECK(it != entries_.end());
  if (it->second.dirty) {
    return;  // re-dirtying keeps the original dirty-list position
  }
  const size_t m = it->second.slot < ram_slots_ ? 0 : 1;
  dirty_[m].push_back(key);
  it->second.dirty_it = std::prev(dirty_[m].end());
  it->second.dirty = true;
}

void OracleLru::MarkClean(BlockKey key) {
  const auto it = entries_.find(key);
  FLASHSIM_CHECK(it != entries_.end());
  if (!it->second.dirty) {
    return;
  }
  const size_t m = it->second.slot < ram_slots_ ? 0 : 1;
  dirty_[m].erase(it->second.dirty_it);
  it->second.dirty = false;
}

std::optional<BlockKey> OracleLru::OldestDirty(Medium medium) const {
  const auto& list = dirty_[static_cast<size_t>(medium)];
  if (list.empty()) {
    return std::nullopt;
  }
  return list.front();
}

std::vector<OracleBlock> OracleLru::SnapshotLru() const {
  std::vector<OracleBlock> out;
  out.reserve(entries_.size());
  const auto append = [&](const std::list<BlockKey>& chain) {
    for (const BlockKey key : chain) {
      const Entry& entry = entries_.at(key);
      out.push_back(
          {key, entry.slot < ram_slots_ ? Medium::kRam : Medium::kFlash, entry.dirty});
    }
  };
  // The logical chain is [protected][probationary] for kSlru (matching the
  // real single chain split at the boundary pointer) and just lru_ for
  // every other policy (prob_ is empty).
  append(lru_);
  append(prob_);
  return out;
}

// ----------------------------------------------------------------------------
// OracleAdmissionFilter

bool OracleAdmissionFilter::ShouldAdmit(BlockKey key) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Second sight within the ghost window: admit and forget.
    ghost_.erase(it->second);
    index_.erase(it);
    return true;
  }
  // First sight: remember (evicting the coldest ghost when full), reject.
  if (ghost_.size() >= capacity_) {
    index_.erase(ghost_.back());
    ghost_.pop_back();
  }
  ghost_.push_front(key);
  index_[key] = ghost_.begin();
  return false;
}

std::vector<BlockKey> OracleLru::SnapshotDirty(Medium medium) const {
  const auto& list = dirty_[static_cast<size_t>(medium)];
  return std::vector<BlockKey>(list.begin(), list.end());
}

// ----------------------------------------------------------------------------
// Subset oracles (naive, lookaside) — mirror src/arch/subset_stack.cc.

namespace {

class OracleSubsetBase : public OracleStack {
 public:
  explicit OracleSubsetBase(const StackConfig& config)
      : config_(config),
        ram_(config.ram_blocks, 0, config.replacement),
        flash_(0, config.flash_blocks, config.replacement) {
    if (config.admission == AdmissionPolicy::kFlashield && config.flash_blocks > 0) {
      admission_.emplace(config.flash_blocks);
    }
  }

  OracleHit Read(BlockKey key) override {
    if (HasRam() && ram_.Contains(key)) {
      ram_.Touch(key);
      ++counters_.ram_hits;
      return OracleHit::kRam;
    }
    if (HasFlash() && flash_.Contains(key)) {
      flash_.Touch(key);
      ++counters_.flash_hits;
      if (HasRam()) {
        InstallInRam(key);
      }
      return OracleHit::kFlash;
    }
    ++counters_.filer_reads;
    if (HasFlash() && MayInstallInFlash(key)) {
      EnsureFlashSlot(key);
      ++counters_.flash_installs;
    }
    if (HasRam()) {
      InstallInRam(key);
    }
    return OracleHit::kFiler;
  }

  void Write(BlockKey key) override {
    if (!HasRam()) {
      if (!HasFlash()) {
        ++counters_.filer_writebacks;
        ++counters_.sync_filer_writes;
        return;
      }
      WriteWithoutRam(key);
      return;
    }
    if (!ram_.Contains(key)) {
      if (HasFlash() && MayInstallInFlash(key)) {
        EnsureFlashSlot(key);
      }
      InstallInRam(key);
    } else {
      ram_.Touch(key);
    }
    switch (config_.ram_policy) {
      case WritebackPolicy::kSync:
        WritebackFromRam(key, /*requester_waits=*/true);
        break;
      case WritebackPolicy::kAsync:
        WritebackFromRam(key, /*requester_waits=*/false);
        break;
      default:
        ram_.MarkDirty(key);
        break;
    }
  }

  bool FlushOneRamBlock() override {
    const std::optional<BlockKey> key = ram_.OldestDirty(Medium::kRam);
    if (!key.has_value()) {
      return false;
    }
    ram_.MarkClean(*key);
    WritebackFromRam(*key, /*requester_waits=*/true);
    return true;
  }

  void Invalidate(BlockKey key) override {
    if (HasRam()) {
      ram_.Remove(key);
    }
    if (HasFlash()) {
      flash_.Remove(key);
    }
  }

  bool Holds(BlockKey key) const override {
    if (HasFlash()) {
      // Only an admission filter can leave a block RAM-only.
      return flash_.Contains(key) ||
             (admission_.has_value() && ram_.Contains(key));
    }
    return ram_.Contains(key);
  }

  bool HoldsDirty(BlockKey key) const override {
    return (ram_.Contains(key) && ram_.IsDirty(key)) ||
           (HasFlash() && flash_.Contains(key) && flash_.IsDirty(key));
  }

  uint64_t RamResident() const override { return ram_.size(); }
  uint64_t FlashResident() const override { return flash_.size(); }
  uint64_t DirtyBlocks() const override { return ram_.dirty_count() + flash_.dirty_count(); }

  Snapshot TakeSnapshot() const override {
    Snapshot snap;
    snap.caches = {ram_.SnapshotLru(), flash_.SnapshotLru()};
    snap.dirty_orders = {ram_.SnapshotDirty(Medium::kRam), flash_.SnapshotDirty(Medium::kFlash)};
    return snap;
  }

 protected:
  bool HasRam() const { return ram_.capacity() > 0; }
  bool HasFlash() const { return flash_.capacity() > 0; }

  // Mirrors SubsetStackBase::MayInstallInFlash: no filter or already
  // flash-resident admits for free; otherwise the ghost decides and a veto
  // is counted.
  bool MayInstallInFlash(BlockKey key) {
    if (!admission_.has_value() || flash_.Contains(key)) {
      return true;
    }
    if (admission_->ShouldAdmit(key)) {
      return true;
    }
    ++counters_.flash_admission_rejects;
    return false;
  }

  void EnsureFlashSlot(BlockKey key) {
    if (flash_.Contains(key)) {
      flash_.Touch(key);
      return;
    }
    std::optional<OracleBlock> evicted;
    flash_.Insert(key, &evicted);
    if (evicted.has_value()) {
      // Subset maintenance: the evicted block leaves RAM too; if either
      // copy was dirty the requester pays a synchronous filer write.
      bool ram_copy_dirty = false;
      if (HasRam()) {
        OracleBlock ram_copy;
        if (ram_.Remove(evicted->key, &ram_copy)) {
          ram_copy_dirty = ram_copy.dirty;
        }
      }
      if (evicted->dirty || ram_copy_dirty) {
        ++counters_.sync_flash_evictions;
        ++counters_.filer_writebacks;
        ++counters_.sync_filer_writes;
      }
    }
  }

  void InstallInRam(BlockKey key) {
    std::optional<OracleBlock> evicted;
    ram_.Insert(key, &evicted);
    if (evicted.has_value() && evicted->dirty) {
      ++counters_.sync_ram_evictions;
      WritebackFromRam(evicted->key, /*requester_waits=*/true);
    }
  }

  void WritebackFromRam(BlockKey key, bool requester_waits) {
    if (!HasFlash()) {
      ++counters_.filer_writebacks;
      if (requester_waits) {
        ++counters_.sync_filer_writes;
      }
      return;
    }
    WritebackFromRamToBelow(key, requester_waits);
  }

  virtual void WritebackFromRamToBelow(BlockKey key, bool requester_waits) = 0;
  virtual void WriteWithoutRam(BlockKey key) = 0;

  StackConfig config_;
  OracleLru ram_;
  OracleLru flash_;
  // Engaged only under AdmissionPolicy::kFlashield with a flash tier.
  std::optional<OracleAdmissionFilter> admission_;
};

class OracleNaive : public OracleSubsetBase {
 public:
  using OracleSubsetBase::OracleSubsetBase;

  bool FlushOneFlashBlock() override {
    const std::optional<BlockKey> key = flash_.OldestDirty(Medium::kFlash);
    if (!key.has_value()) {
      return false;
    }
    flash_.MarkClean(*key);
    ++counters_.filer_writebacks;
    ++counters_.sync_filer_writes;
    return true;
  }

 protected:
  void ApplyFlashArrival(BlockKey key, bool requester_waits) {
    switch (config_.flash_policy) {
      case WritebackPolicy::kSync:
        ++counters_.filer_writebacks;
        if (requester_waits) {
          ++counters_.sync_filer_writes;
        }
        break;
      case WritebackPolicy::kAsync:
        ++counters_.filer_writebacks;
        break;
      default:
        flash_.MarkDirty(key);
        break;
    }
  }

  void WritebackFromRamToBelow(BlockKey key, bool requester_waits) override {
    // The subset invariant guarantees the flash copy exists.
    FLASHSIM_CHECK(flash_.Contains(key));
    ++counters_.flash_installs;
    ApplyFlashArrival(key, requester_waits);
  }

  void WriteWithoutRam(BlockKey key) override {
    EnsureFlashSlot(key);
    ++counters_.flash_installs;
    ApplyFlashArrival(key, /*requester_waits=*/true);
  }
};

class OracleLookaside : public OracleSubsetBase {
 public:
  using OracleSubsetBase::OracleSubsetBase;

  bool FlushOneFlashBlock() override {
    // Flash never holds dirty data.
    FLASHSIM_CHECK(flash_.dirty_count() == 0);
    return false;
  }

 protected:
  void WritebackFromRamToBelow(BlockKey key, bool requester_waits) override {
    ++counters_.filer_writebacks;
    if (!requester_waits) {
      // Enqueued on the background writer; the flash refresh is counted at
      // enqueue time (mirrors LookasideStack). Without admission filtering
      // RAM ⊆ flash makes the refresh unconditional; a filter can leave the
      // block RAM-only, with nothing in flash to refresh.
      if (!admission_.has_value() || flash_.Contains(key)) {
        ++counters_.flash_installs;
      }
      return;
    }
    ++counters_.sync_filer_writes;
    if (flash_.Contains(key)) {
      ++counters_.flash_installs;
    }
  }

  void WriteWithoutRam(BlockKey key) override {
    ++counters_.filer_writebacks;
    ++counters_.sync_filer_writes;
    if (!MayInstallInFlash(key)) {
      return;
    }
    EnsureFlashSlot(key);
    ++counters_.flash_installs;
  }
};

// ----------------------------------------------------------------------------
// Unified oracle — mirrors src/arch/unified_stack.cc.

class OracleUnified : public OracleStack {
 public:
  explicit OracleUnified(const StackConfig& config)
      : config_(config),
        cache_(config.ram_blocks, config.flash_blocks, config.replacement) {
    if (config.admission == AdmissionPolicy::kFlashield && config.flash_blocks > 0) {
      admission_.emplace(config.flash_blocks);
    }
  }

  OracleHit Read(BlockKey key) override {
    if (cache_.Contains(key)) {
      cache_.Touch(key);
      if (cache_.MediumOf(key) == Medium::kRam) {
        ++counters_.ram_hits;
        return OracleHit::kRam;
      }
      ++counters_.flash_hits;
      return OracleHit::kFlash;
    }
    ++counters_.filer_reads;
    std::optional<Medium> medium;
    if (AdmitInsert(key)) {
      medium = InsertBlock(key);
    }
    if (medium.has_value() && *medium == Medium::kFlash) {
      ++counters_.flash_installs;
    }
    return OracleHit::kFiler;
  }

  void Write(BlockKey key) override {
    std::optional<Medium> medium;
    if (!cache_.Contains(key)) {
      if (AdmitInsert(key)) {
        medium = InsertBlock(key);
      }
      if (!medium.has_value()) {
        // Zero-capacity cache or admission veto: synchronous filer write.
        ++counters_.filer_writebacks;
        ++counters_.sync_filer_writes;
        return;
      }
    } else {
      cache_.Touch(key);
      medium = cache_.MediumOf(key);
    }
    if (*medium == Medium::kFlash) {
      ++counters_.flash_installs;
    }
    const WritebackPolicy policy =
        *medium == Medium::kRam ? config_.ram_policy : config_.flash_policy;
    switch (policy) {
      case WritebackPolicy::kSync:
        ++counters_.filer_writebacks;
        ++counters_.sync_filer_writes;
        break;
      case WritebackPolicy::kAsync:
        ++counters_.filer_writebacks;
        break;
      default:
        cache_.MarkDirty(key);
        break;
    }
  }

  bool FlushOneRamBlock() override { return FlushOneOf(Medium::kRam); }
  bool FlushOneFlashBlock() override { return FlushOneOf(Medium::kFlash); }

  void Invalidate(BlockKey key) override { cache_.Remove(key); }
  bool Holds(BlockKey key) const override { return cache_.Contains(key); }
  bool HoldsDirty(BlockKey key) const override {
    return cache_.Contains(key) && cache_.IsDirty(key);
  }

  uint64_t RamResident() const override { return CountMedium(Medium::kRam); }
  uint64_t FlashResident() const override { return CountMedium(Medium::kFlash); }
  uint64_t DirtyBlocks() const override { return cache_.dirty_count(); }

  Snapshot TakeSnapshot() const override {
    Snapshot snap;
    snap.caches = {cache_.SnapshotLru()};
    snap.dirty_orders = {cache_.SnapshotDirty(Medium::kRam),
                         cache_.SnapshotDirty(Medium::kFlash)};
    return snap;
  }

 private:
  // Mirrors UnifiedStack::AdmitInsert: the filter gates every miss-path
  // insert (the unified chain cannot predict the landing medium up front).
  bool AdmitInsert(BlockKey key) {
    if (!admission_.has_value()) {
      return true;
    }
    if (admission_->ShouldAdmit(key)) {
      return true;
    }
    ++counters_.flash_admission_rejects;
    return false;
  }

  std::optional<Medium> InsertBlock(BlockKey key) {
    std::optional<OracleBlock> evicted;
    if (!cache_.Insert(key, &evicted)) {
      return std::nullopt;
    }
    if (evicted.has_value() && evicted->dirty) {
      ++counters_.sync_flash_evictions;
      ++counters_.filer_writebacks;
      ++counters_.sync_filer_writes;
    }
    return cache_.MediumOf(key);
  }

  bool FlushOneOf(Medium medium) {
    const std::optional<BlockKey> key = cache_.OldestDirty(medium);
    if (!key.has_value()) {
      return false;
    }
    cache_.MarkClean(*key);
    ++counters_.filer_writebacks;
    ++counters_.sync_filer_writes;
    return true;
  }

  uint64_t CountMedium(Medium medium) const {
    uint64_t count = 0;
    for (const OracleBlock& block : cache_.SnapshotLru()) {
      if (block.medium == medium) {
        ++count;
      }
    }
    return count;
  }

  StackConfig config_;
  OracleLru cache_;
  // Engaged only under AdmissionPolicy::kFlashield with flash buffers.
  std::optional<OracleAdmissionFilter> admission_;
};

std::vector<OracleBlock> SnapLru(const LruBlockCache& cache) {
  std::vector<OracleBlock> out;
  out.reserve(cache.size());
  cache.ForEach([&](BlockKey key, Medium medium, bool dirty) {
    out.push_back({key, medium, dirty});
  });
  return out;
}

std::vector<BlockKey> SnapDirty(const LruBlockCache& cache, Medium want) {
  std::vector<BlockKey> out;
  cache.ForEachDirty([&](BlockKey key, Medium medium) {
    if (medium == want) {
      out.push_back(key);
    }
  });
  return out;
}

}  // namespace

OracleCoherence::OracleCoherence(CoherenceModel model, int num_hosts, SimDuration lease_ns,
                                 OracleResidencyView& view)
    : model_(model),
      num_hosts_(num_hosts),
      lease_ns_(lease_ns),
      view_(&view),
      leases_(static_cast<size_t>(num_hosts)) {
  FLASHSIM_CHECK(num_hosts >= 1);
  FLASHSIM_CHECK(model != CoherenceModel::kLease || lease_ns > 0);
}

// Protocol-driven drop: the copy goes, and with it the host's lease entry
// (mirrors LeaseProtocol::OnCopyDropped / the explicit Erase on writes).
void OracleCoherence::Drop(int host, BlockKey key) {
  view_->DropCopy(host, key);
  leases_[static_cast<size_t>(host)].erase(key);
}

// A read miss must not fetch around a remote Dirty copy: every other host
// holding the block dirty pays recall callback + data flush (2 messages)
// and loses the copy. Longhand mirror of CoherenceProtocol::ReconcileDirty
// that probes every host: it does not lean on the one-dirty-copy rule that
// lets the protocol probe only a block's sole other holder.
void OracleCoherence::ReconcileDirty(int reader, BlockKey key) {
  for (int other = 0; other < num_hosts_; ++other) {
    if (other == reader || !view_->HoldsDirty(other, key)) {
      continue;
    }
    totals_.invalidation_messages += 2;
    ++totals_.dirty_fetches;
    Drop(other, key);
  }
}

void OracleCoherence::OnRead(int host, BlockKey key, SimTime now, SimTime granted) {
  switch (model_) {
    case CoherenceModel::kPerfect:
      return;  // reads never enter the protocol
    case CoherenceModel::kDirectory:
      if (view_->HoldsCopy(host, key)) {
        return;  // callbacks keep cached copies valid: free
      }
      // Miss: lookup request + reply around the directory service.
      ++totals_.lookups;
      totals_.invalidation_messages += 2;
      ++totals_.stalled_reads;
      ReconcileDirty(host, key);
      return;
    case CoherenceModel::kLease: {
      auto& table = leases_[static_cast<size_t>(host)];
      if (view_->HoldsCopy(host, key)) {
        const auto it = table.find(key);
        if (it != table.end() && it->second > now) {
          return;  // live lease: protocol-silent
        }
        // Expired lease on a still-valid copy: renewal round trip.
        ++totals_.lookups;
        ++totals_.lease_renewals;
        totals_.invalidation_messages += 2;
        ++totals_.stalled_reads;
        table[key] = granted + lease_ns_;
        return;
      }
      // Miss: the lookup reply carries a fresh lease.
      ++totals_.lookups;
      ++totals_.lease_grants;
      totals_.invalidation_messages += 2;
      ++totals_.stalled_reads;
      ReconcileDirty(host, key);
      table[key] = granted + lease_ns_;
      return;
    }
  }
}

void OracleCoherence::OnWrite(int host, BlockKey key, SimTime now) {
  // The stale set, longhand: every *other* host whose oracle stack holds
  // the block (the real side reads the same set out of the directory).
  bool any = false;
  for (int other = 0; other < num_hosts_; ++other) {
    if (other != host && view_->HoldsCopy(other, key)) {
      any = true;
      break;
    }
  }
  if (model_ == CoherenceModel::kPerfect) {
    // Zero-cost counting model: copies drop for free.
    for (int other = 0; other < num_hosts_; ++other) {
      if (other != host && view_->HoldsCopy(other, key)) {
        Drop(other, key);
      }
    }
    return;
  }
  if (!any) {
    return;  // sole holder: implicitly Exclusive/Dirty, no transaction
  }
  ++totals_.invalidation_messages;  // report to the directory
  for (int other = 0; other < num_hosts_; ++other) {
    if (other == host || !view_->HoldsCopy(other, key)) {
      continue;
    }
    if (model_ == CoherenceModel::kDirectory) {
      totals_.invalidation_messages += 2;  // callback + ack
      ++totals_.acks;
    } else {
      // Lease: only holders whose lease is still live at the write get a
      // callback + ack break; expired holders are dropped silently.
      const auto& table = leases_[static_cast<size_t>(other)];
      const auto it = table.find(key);
      if (it != table.end() && it->second > now) {
        totals_.invalidation_messages += 2;
        ++totals_.acks;
        ++totals_.lease_breaks;
      }
    }
    Drop(other, key);
  }
  ++totals_.invalidation_messages;  // exclusivity grant back to the writer
  ++totals_.stalled_writes;
}

std::optional<SimTime> OracleCoherence::LeaseExpiry(int host, BlockKey key) const {
  const auto& table = leases_[static_cast<size_t>(host)];
  const auto it = table.find(key);
  if (it == table.end()) {
    return std::nullopt;
  }
  return it->second;
}

// ----------------------------------------------------------------------------
// OracleFtl

OracleFtl::OracleFtl(const FtlParams& params) : params_(params) {
  const double raw_pages =
      static_cast<double>(params_.logical_pages) * (1.0 + params_.overprovision);
  const uint64_t num_blocks =
      static_cast<uint64_t>(std::ceil(raw_pages / static_cast<double>(params_.pages_per_block))) +
      params_.gc_low_watermark + 2;
  blocks_.resize(num_blocks);
  for (uint64_t b = num_blocks; b > 0; --b) {
    free_blocks_.push_back(static_cast<uint32_t>(b - 1));
  }
}

FtlCost OracleFtl::Write(uint64_t lpn) {
  FLASHSIM_CHECK(lpn < params_.logical_pages);
  last_victims_.clear();
  FtlCost cost;
  ++host_writes_;
  Trim(lpn);  // the old version is dead before the new one is placed
  const uint64_t ppn = ProgramPage(&cost);
  l2p_[lpn] = ppn;
  p2l_[ppn] = lpn;
  ++cost.page_programs;
  ++total_programs_;
  return cost;
}

void OracleFtl::Trim(uint64_t lpn) {
  FLASHSIM_CHECK(lpn < params_.logical_pages);
  const auto it = l2p_.find(lpn);
  if (it != l2p_.end()) {
    p2l_.erase(it->second);
    l2p_.erase(it);
  }
}

double OracleFtl::write_amplification() const {
  return host_writes_ == 0
             ? 1.0
             : static_cast<double>(total_programs_) / static_cast<double>(host_writes_);
}

uint32_t OracleFtl::ValidPages(uint32_t block) const {
  const uint64_t first = static_cast<uint64_t>(block) * params_.pages_per_block;
  uint32_t valid = 0;
  for (auto it = p2l_.lower_bound(first);
       it != p2l_.end() && it->first < first + params_.pages_per_block; ++it) {
    ++valid;
  }
  return valid;
}

uint32_t OracleFtl::ScanForVictim() const {
  uint32_t best = UINT32_MAX;
  double best_score = 0.0;
  for (uint32_t b = 0; b < blocks_.size(); ++b) {
    if (active_ == b || blocks_[b].programmed != params_.pages_per_block) {
      continue;  // free, half-written, or still taking writes
    }
    const uint32_t valid = ValidPages(b);
    if (valid == params_.pages_per_block) {
      continue;  // erasing it would reclaim nothing
    }
    const double invalid = static_cast<double>(params_.pages_per_block - valid);
    const double score = invalid - params_.wear_weight * static_cast<double>(blocks_[b].erases);
    if (best == UINT32_MAX || score > best_score) {
      best = b;
      best_score = score;
    }
  }
  return best;
}

uint64_t OracleFtl::ProgramPage(FtlCost* cost) {
  const auto active_full = [this] {
    return !active_.has_value() || blocks_[*active_].programmed == params_.pages_per_block;
  };
  if (active_full()) {
    while (!collecting_ && free_blocks_.size() <= params_.gc_low_watermark) {
      Collect(cost);
    }
    // Relocations may already have opened a fresh block.
    if (active_full()) {
      FLASHSIM_CHECK(!free_blocks_.empty());
      active_ = free_blocks_.back();
      free_blocks_.pop_back();
    }
  }
  return static_cast<uint64_t>(*active_) * params_.pages_per_block +
         blocks_[*active_].programmed++;
}

void OracleFtl::Collect(FtlCost* cost) {
  const uint32_t victim = ScanForVictim();
  FLASHSIM_CHECK(victim != UINT32_MAX);
  last_victims_.push_back(victim);
  collecting_ = true;
  // Relocate the victim's valid pages in slot order: read each, program it
  // into the active block.
  const uint64_t first = static_cast<uint64_t>(victim) * params_.pages_per_block;
  for (auto it = p2l_.lower_bound(first);
       it != p2l_.end() && it->first < first + params_.pages_per_block;
       it = p2l_.lower_bound(first)) {
    const uint64_t lpn = it->second;
    p2l_.erase(it);
    ++cost->page_reads;
    const uint64_t ppn = ProgramPage(cost);
    l2p_[lpn] = ppn;
    p2l_[ppn] = lpn;
    ++cost->page_programs;
    ++total_programs_;
    ++relocated_pages_;
  }
  blocks_[victim].programmed = 0;
  ++blocks_[victim].erases;
  ++total_erases_;
  ++cost->block_erases;
  free_blocks_.push_back(victim);
  collecting_ = false;
}

std::unique_ptr<OracleStack> MakeOracleStack(Architecture arch, const StackConfig& config) {
  switch (arch) {
    case Architecture::kNaive:
      // The naive writeback path requires RAM ⊆ flash, which an admission
      // filter deliberately breaks (SimConfig::Validate rejects it too).
      FLASHSIM_CHECK(config.admission == AdmissionPolicy::kAll);
      return std::make_unique<OracleNaive>(config);
    case Architecture::kLookaside:
      return std::make_unique<OracleLookaside>(config);
    case Architecture::kUnified:
      return std::make_unique<OracleUnified>(config);
  }
  FLASHSIM_CHECK(false);
  return nullptr;
}

OracleStack::Snapshot SnapshotRealStack(Architecture arch, const CacheStack& stack) {
  OracleStack::Snapshot snap;
  switch (arch) {
    case Architecture::kNaive:
    case Architecture::kLookaside: {
      const auto& subset = static_cast<const SubsetStackBase&>(stack);
      snap.caches = {SnapLru(subset.ram_cache()), SnapLru(subset.flash_cache())};
      snap.dirty_orders = {SnapDirty(subset.ram_cache(), Medium::kRam),
                           SnapDirty(subset.flash_cache(), Medium::kFlash)};
      break;
    }
    case Architecture::kUnified: {
      const auto& unified = static_cast<const UnifiedStack&>(stack);
      snap.caches = {SnapLru(unified.cache())};
      snap.dirty_orders = {SnapDirty(unified.cache(), Medium::kRam),
                           SnapDirty(unified.cache(), Medium::kFlash)};
      break;
    }
  }
  return snap;
}

}  // namespace flashsim
