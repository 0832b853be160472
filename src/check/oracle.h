// Reference oracle for the cache stacks: deliberately slow, obviously
// correct re-implementations of the three architectures (§3.3) used for
// differential testing (src/check/differential.h).
//
// Where the real stacks are built for speed — intrusive slot arrays, flat
// hash indexes, per-medium dirty threading — the oracle uses std::map and
// std::list and spells every architecture rule out longhand. It models no
// timing at all: the observable outcome of an operation is where it was
// served (OracleHit), the cumulative StackCounters deltas, and the
// resulting cache state (residency, dirty sets, LRU order). A divergence
// between oracle and real stack on any of those after any operation is a
// bug in one of them.
//
// Slot discipline: the unified architecture's medium assignment depends on
// *which buffer* a block lands in (slots [0, ram_slots) are RAM, §3.3
// "placed in the least recently used buffer"), so the oracle replicates
// LruBlockCache's slot allocation order exactly — slots freed by Remove are
// reused LIFO, then never-used slots sequentially, then the evicted
// victim's slot. That contract is documented in DESIGN.md §9; if
// LruBlockCache ever changes it, the differential suite fails immediately.
#ifndef FLASHSIM_SRC_CHECK_ORACLE_H_
#define FLASHSIM_SRC_CHECK_ORACLE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/arch/cache_stack.h"
#include "src/arch/stack_factory.h"
#include "src/consistency/coherence.h"
#include "src/ftl/ftl.h"
#include "src/trace/record.h"

namespace flashsim {

// Where the oracle served a read. The real stacks additionally split filer
// reads into fast/slow — a timing distinction the oracle does not model, so
// comparisons collapse HitLevel::kFilerFast/kFilerSlow to kFiler.
enum class OracleHit : uint8_t {
  kRam = 0,
  kFlash = 1,
  kFiler = 2,
};

OracleHit CollapseHitLevel(HitLevel level);
const char* OracleHitName(OracleHit hit);

// One resident block in LRU-order snapshots.
struct OracleBlock {
  BlockKey key = 0;
  Medium medium = Medium::kRam;
  bool dirty = false;

  bool operator==(const OracleBlock&) const = default;
};

// std::map + std::list model of LruBlockCache under any registered
// replacement policy. Each policy's victim choice and hit behavior is
// spelled out longhand in Touch/SelectVictim (src/check/oracle.cc), fully
// independent of the EvictionPolicy plugin implementations:
//   kLru   — hit moves to MRU; victim is the chain tail.
//   kFifo  — hit does not reorder; victim is the insertion-order tail.
//   kClock — hit sets a reference bit; the victim scan rotates the tail to
//            the front, clearing bits, until an unreferenced block appears.
//   kSlru  — two segments: inserts land at the probationary MRU, hits
//            promote to the protected MRU (demoting the protected LRU back
//            to the probationary MRU when over half capacity); the victim
//            is the global tail.
//   kLruK  — hit records (prev, last) access ticks and moves to MRU; the
//            victim minimizes (prev, last, slot) — classic LRU-2.
class OracleLru {
 public:
  OracleLru(uint64_t ram_slots, uint64_t flash_slots,
            ReplacementPolicy replacement = ReplacementPolicy::kLru);

  uint64_t capacity() const { return ram_slots_ + flash_slots_; }
  uint64_t size() const { return entries_.size(); }
  uint64_t dirty_count() const;
  uint64_t dirty_count(Medium medium) const {
    return dirty_[static_cast<size_t>(medium)].size();
  }

  bool Contains(BlockKey key) const { return entries_.count(key) != 0; }
  Medium MediumOf(BlockKey key) const;
  bool IsDirty(BlockKey key) const;

  // Records a hit on key (must be present): reorders, marks, or ticks per
  // the replacement policy.
  void Touch(BlockKey key);

  // Inserts key (must be absent) clean at the policy's insertion point,
  // evicting the policy's victim into *evicted when full. Returns false for
  // zero-capacity caches.
  bool Insert(BlockKey key, std::optional<OracleBlock>* evicted);

  // Removes key if present; fills *removed when given. Returns presence.
  bool Remove(BlockKey key, OracleBlock* removed = nullptr);

  void MarkDirty(BlockKey key);   // re-dirtying keeps the original position
  void MarkClean(BlockKey key);

  // Oldest-dirtied resident block of `medium`, or nullopt.
  std::optional<BlockKey> OldestDirty(Medium medium) const;

  // Resident blocks in MRU -> LRU order.
  std::vector<OracleBlock> SnapshotLru() const;
  // Dirty blocks of `medium`, oldest first.
  std::vector<BlockKey> SnapshotDirty(Medium medium) const;

 private:
  struct Entry {
    uint32_t slot = 0;
    bool dirty = false;
    bool referenced = false;    // kClock reference bit
    bool probationary = false;  // kSlru segment
    uint64_t last_tick = 0;     // kLruK most-recent access
    uint64_t prev_tick = 0;     // kLruK second-most-recent access (0 = none)
    std::list<BlockKey>::iterator lru_it;
    std::list<BlockKey>::iterator dirty_it;
  };

  uint32_t AllocateSlot();  // free list (LIFO), then fresh slots in order

  // The chain list holding this entry: `prob_` for kSlru probationary
  // entries, `lru_` for everything else.
  std::list<BlockKey>& ChainOf(const Entry& entry) {
    return entry.probationary ? prob_ : lru_;
  }

  // The policy's eviction victim; mutates clock bits while rotating.
  BlockKey SelectVictim();

  uint64_t ram_slots_ = 0;
  uint64_t flash_slots_ = 0;
  ReplacementPolicy replacement_ = ReplacementPolicy::kLru;
  std::map<BlockKey, Entry> entries_;
  // kSlru splits the chain: lru_ is the protected segment, prob_ the
  // probationary; the logical chain is their concatenation. For every other
  // policy the whole chain lives in lru_ and prob_ stays empty.
  std::list<BlockKey> lru_;       // front = MRU, back = LRU
  std::list<BlockKey> prob_;      // kSlru probationary segment
  std::list<BlockKey> dirty_[2];  // per medium; front = oldest dirtied
  std::vector<uint32_t> free_slots_;
  uint32_t next_unused_ = 0;
  uint64_t protected_cap_ = 0;  // kSlru: capacity / 2
  uint64_t tick_ = 0;           // kLruK access counter
};

// Independent std::list + std::map mirror of FlashAdmissionFilter's
// ghost-LRU doorkeeper (src/cache/replacement.h): first sight of a key
// records it and rejects; a second sight within the ghost's capacity admits
// and forgets it. Holds no shared state with the real filter, so the
// differential suite genuinely cross-checks both implementations.
class OracleAdmissionFilter {
 public:
  explicit OracleAdmissionFilter(uint64_t ghost_capacity)
      : capacity_(ghost_capacity == 0 ? 1 : ghost_capacity) {}

  bool ShouldAdmit(BlockKey key);

  uint64_t ghost_size() const { return ghost_.size(); }

 private:
  uint64_t capacity_;
  std::list<BlockKey> ghost_;  // front = MRU
  std::map<BlockKey, std::list<BlockKey>::iterator> index_;
};

// Reference model of one host's cache stack. Mirrors the counter and
// state-transition semantics of src/arch/{subset,unified}_stack.cc exactly;
// see each override for the rule it implements.
class OracleStack {
 public:
  virtual ~OracleStack() = default;

  virtual OracleHit Read(BlockKey key) = 0;
  virtual void Write(BlockKey key) = 0;
  // Mirrors FlushOne{Ram,Flash}Block with the default dirtied_before:
  // returns whether a block was written back.
  virtual bool FlushOneRamBlock() = 0;
  virtual bool FlushOneFlashBlock() = 0;
  virtual void Invalidate(BlockKey key) = 0;
  virtual bool Holds(BlockKey key) const = 0;
  // Dirty in any tier — the longhand coherence model's Dirty-state probe
  // (mirrors CacheStack::HoldsDirty).
  virtual bool HoldsDirty(BlockKey key) const = 0;

  virtual uint64_t RamResident() const = 0;
  virtual uint64_t FlashResident() const = 0;
  virtual uint64_t DirtyBlocks() const = 0;

  // Full observable cache state: per-cache LRU snapshots ("ram"/"flash"
  // caches for the subset stacks, the single chain for unified) and dirty
  // orders. Used for the differential runner's periodic deep comparison.
  struct Snapshot {
    std::vector<std::vector<OracleBlock>> caches;      // MRU -> LRU each
    std::vector<std::vector<BlockKey>> dirty_orders;   // oldest first each

    bool operator==(const Snapshot&) const = default;
  };
  virtual Snapshot TakeSnapshot() const = 0;

  const StackCounters& counters() const { return counters_; }

 protected:
  StackCounters counters_;
};

// The longhand coherence model's window into per-host cache residency,
// plus the ability to drop a copy the protocol invalidated. The
// differential rig implements it over the per-host *oracle* stacks, so the
// model shares no state with the real protocol it checks.
class OracleResidencyView {
 public:
  virtual ~OracleResidencyView() = default;
  virtual bool HoldsCopy(int host, BlockKey key) const = 0;
  virtual bool HoldsDirty(int host, BlockKey key) const = 0;
  virtual void DropCopy(int host, BlockKey key) = 0;
};

// Longhand reference model of the coherence protocols (src/consistency/
// coherence.h): std::map lease tables and spelled-out per-protocol message
// accounting, fully independent of the CoherenceProtocol implementations.
// It verifies decisions, not timing — message/ack/lease/stall counts are
// recomputed longhand from the oracle stacks' residency, while lease expiry
// timestamps adopt the real protocol's granted clock (the `granted`
// argument of OnRead), so the *_ns stall fields are the only
// CoherenceCounters the differential comparison skips.
class OracleCoherence {
 public:
  OracleCoherence(CoherenceModel model, int num_hosts, SimDuration lease_ns,
                  OracleResidencyView& view);

  // Mirrors CoherenceProtocol::BeforeRead's decisions (including dropping
  // reconciled remote Dirty copies through the view). `now` is the sim time
  // the real protocol saw; `granted` is what it returned. Call before the
  // oracle stack executes the read.
  void OnRead(int host, BlockKey key, SimTime now, SimTime granted);
  // Mirrors CoherenceProtocol::OnWrite: recomputes the stale set from the
  // view and drops the invalidated oracle copies. Call with the same `now`
  // the real OnWrite received (lease liveness is judged against it).
  void OnWrite(int host, BlockKey key, SimTime now);

  const CoherenceCounters& totals() const { return totals_; }
  // Absolute lease expiry this model believes `host` holds on `key`
  // (nullopt = no table entry), comparable against the real protocol's
  // LeaseExpiry entry-for-entry: both sides keep stale entries across
  // capacity evictions and external invalidations, erasing only on
  // protocol-driven drops.
  std::optional<SimTime> LeaseExpiry(int host, BlockKey key) const;

 private:
  void ReconcileDirty(int reader, BlockKey key);
  void Drop(int host, BlockKey key);

  CoherenceModel model_;
  int num_hosts_;
  SimDuration lease_ns_;
  OracleResidencyView* view_;
  CoherenceCounters totals_;
  std::vector<std::map<BlockKey, SimTime>> leases_;  // absolute expiry
};

// Longhand reference model of the page-mapped FTL (src/ftl/ftl.h). It keeps
// std::map page tables, counts a block's valid pages by walking the reverse
// map, and picks every GC victim with the full scan of all erase blocks
// that the real FTL's victim index replaced: among sealed, inactive blocks
// with at least one invalid page, the highest
// `invalid - wear_weight * erase_count`, ties to the lowest block index.
// Placement follows Ftl's rules — the same block count, blocks opened from
// the back of a descending free list, GC while free blocks are at the low
// watermark, relocations in slot order into the active block — so every
// write's FtlCost, every victim and every erase count compare one for one
// (tests/ftl_oracle_test.cc).
class OracleFtl {
 public:
  explicit OracleFtl(const FtlParams& params);

  FtlCost Write(uint64_t lpn);
  void Trim(uint64_t lpn);

  // Blocks the last Write erased, in GC order.
  const std::vector<uint32_t>& last_victims() const { return last_victims_; }

  uint64_t physical_blocks() const { return blocks_.size(); }
  uint64_t erase_count(uint32_t block) const { return blocks_[block].erases; }
  uint64_t host_writes() const { return host_writes_; }
  uint64_t total_programs() const { return total_programs_; }
  uint64_t total_erases() const { return total_erases_; }
  uint64_t relocated_pages() const { return relocated_pages_; }
  double write_amplification() const;

 private:
  struct Block {
    uint32_t programmed = 0;  // pages written since the last erase
    uint64_t erases = 0;
  };

  uint32_t ValidPages(uint32_t block) const;
  uint32_t ScanForVictim() const;
  // Programs the next page of the active block, collecting garbage and
  // opening a fresh block first when it is full.
  uint64_t ProgramPage(FtlCost* cost);
  void Collect(FtlCost* cost);

  FtlParams params_;
  std::map<uint64_t, uint64_t> l2p_;
  std::map<uint64_t, uint64_t> p2l_;
  std::vector<Block> blocks_;
  std::vector<uint32_t> free_blocks_;  // the next block to open is at the back
  std::optional<uint32_t> active_;
  bool collecting_ = false;
  std::vector<uint32_t> last_victims_;
  uint64_t host_writes_ = 0;
  uint64_t total_programs_ = 0;
  uint64_t total_erases_ = 0;
  uint64_t relocated_pages_ = 0;
};

// Factory matching MakeCacheStack.
std::unique_ptr<OracleStack> MakeOracleStack(Architecture arch, const StackConfig& config);

// Builds the equivalent Snapshot from a real stack so the two sides can be
// compared field-for-field.
OracleStack::Snapshot SnapshotRealStack(Architecture arch, const CacheStack& stack);

}  // namespace flashsim

#endif  // FLASHSIM_SRC_CHECK_ORACLE_H_
