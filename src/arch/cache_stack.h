// Cache stack interface: one host's RAM + flash caching hierarchy (§3.3).
//
// A stack receives application block reads and writes, charges simulated
// time against the host's devices and network link via timeline resources,
// and returns the application-visible completion time. The three concrete
// stacks implement the paper's architectures:
//
//   Naive     — flash is an independent tier below RAM; RAM is a subset of
//               flash; dirty data moves RAM -> flash -> filer.
//   Lookaside — Mercury-style: dirty data moves RAM -> filer, and the flash
//               copy is refreshed after the filer write; flash never holds
//               dirty data.
//   Unified   — RAM and flash buffers on a single LRU chain; blocks are
//               placed in the least-recently-used buffer regardless of
//               medium and never migrate.
#ifndef FLASHSIM_SRC_ARCH_CACHE_STACK_H_
#define FLASHSIM_SRC_ARCH_CACHE_STACK_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/backend/storage_service.h"
#include "src/cache/lru_cache.h"
#include "src/cache/policy.h"
#include "src/cache/replacement.h"
#include "src/device/background_writer.h"
#include "src/device/flash_device.h"
#include "src/device/ram_device.h"
#include "src/sim/sim_time.h"
#include "src/trace/record.h"

namespace flashsim {

// Where a read was satisfied; the filer levels also record whether its
// read-ahead succeeded ("fast") or it went to disk ("slow").
enum class HitLevel : uint8_t {
  kRam = 0,
  kFlash = 1,
  kFilerFast = 2,
  kFilerSlow = 3,
};

const char* HitLevelName(HitLevel level);

// Certified-class verdict for one access (DESIGN.md §13). The serial fast
// path inlines an access past the event heap only when executing it
// touches host-local state alone and schedules nothing; ClassifyAccess
// names which host-local branch of Read/Write the access would take, or
// kUncertifiable when the access may touch shared state (filer, background
// writer, directory residency callbacks) or charge an unpredictable path.
enum class AccessVerdict : uint8_t {
  kUncertifiable = 0,
  // Read satisfied from RAM: touch + counter + RAM device charge only.
  kPureRamHit = 1,
  // Read satisfied from flash: touch + counter + flash device charge, plus
  // (subset stacks) a RAM install that provably triggers no writeback and
  // no residency callback.
  kFlashHit = 2,
  // Write that lands on a resident copy whose writeback policy marks dirty
  // in place (no write-through): touch + device write + MarkDirty only.
  // The engine additionally requires the consistency directory to show the
  // issuing host as the block's sole holder before certifying (the stack
  // cannot see cross-host state).
  kPrivateWrite = 3,
};

// Receives block residency transitions for the consistency directory.
class ResidencyListener {
 public:
  virtual ~ResidencyListener() = default;
  virtual void OnCached(BlockKey key) = 0;
  virtual void OnDropped(BlockKey key) = 0;
};

// Counters every stack maintains; all are block-granularity events.
//
// Writeback accounting contract (audited by src/check/audit.h): every block
// writeback increments filer_writebacks exactly once, at issue time, and
// is routed to the filer in exactly one of two ways — a synchronous
// StorageService::Write charged to the issuing path (counted here as
// sync_filer_writes) or a BackgroundWriter enqueue (counted by the writer).
// So at any instant, per host:
//
//   filer_writebacks == sync_filer_writes + writer.enqueued()
//
// holds regardless of which path (policy write-through, syncer flush, or
// eviction-triggered writeback) issued the block.
struct StackCounters {
  uint64_t ram_hits = 0;
  uint64_t flash_hits = 0;
  uint64_t filer_reads = 0;
  // Evictions whose writeback blocked the application (the §7.1 convoy).
  uint64_t sync_ram_evictions = 0;
  uint64_t sync_flash_evictions = 0;
  uint64_t flash_installs = 0;     // data blocks written into the flash
  uint64_t filer_writebacks = 0;   // blocks written back to the filer
  // Writebacks issued as synchronous StorageService writes (the rest drain
  // through the background writer).
  uint64_t sync_filer_writes = 0;
  // Flash installs the admission filter vetoed (zero unless
  // AdmissionPolicy::kFlashield is active). Together with flash_installs
  // this is the filter's observable behavior, so the differential oracle
  // holds its mirror filter to both counters.
  uint64_t flash_admission_rejects = 0;

  // Per-shard routing breakdown of filer_reads / filer_writebacks; sized to
  // the backend's shard count when sharding is on, empty on the single-filer
  // path. Excluded from equality: the differential oracle compares counters
  // against a shard-agnostic model, and routing metadata is not behavior.
  std::vector<uint64_t> shard_reads;
  std::vector<uint64_t> shard_writes;

  bool operator==(const StackCounters& o) const {
    return ram_hits == o.ram_hits && flash_hits == o.flash_hits &&
           filer_reads == o.filer_reads && sync_ram_evictions == o.sync_ram_evictions &&
           sync_flash_evictions == o.sync_flash_evictions &&
           flash_installs == o.flash_installs && filer_writebacks == o.filer_writebacks &&
           sync_filer_writes == o.sync_filer_writes &&
           flash_admission_rejects == o.flash_admission_rejects;
  }
};

struct StackConfig {
  uint64_t ram_blocks = 0;
  uint64_t flash_blocks = 0;
  WritebackPolicy ram_policy = WritebackPolicy::kPeriodic1;
  WritebackPolicy flash_policy = WritebackPolicy::kAsync;
  ReplacementPolicy replacement = ReplacementPolicy::kLru;  // §1: LRU throughout
  // DRAM→flash admission for the lookaside/unified flash tier; the naive
  // stack rejects anything but kAll (its writeback path requires RAM⊆flash).
  AdmissionPolicy admission = AdmissionPolicy::kAll;
};

class CacheStack {
 public:
  CacheStack(const StackConfig& config, RamDevice& ram_dev, FlashDevice& flash_dev,
             StorageService& remote, BackgroundWriter& writer)
      : config_(config),
        ram_dev_(&ram_dev),
        flash_dev_(&flash_dev),
        remote_(&remote),
        writer_(&writer) {
    if (remote.num_shards() > 1) {
      counters_.shard_reads.resize(static_cast<size_t>(remote.num_shards()), 0);
      counters_.shard_writes.resize(static_cast<size_t>(remote.num_shards()), 0);
    }
  }
  virtual ~CacheStack() = default;

  CacheStack(const CacheStack&) = delete;
  CacheStack& operator=(const CacheStack&) = delete;

  // Application block read/write starting at `now`; returns the time the
  // application sees completion. Read reports where the block was found.
  virtual SimTime Read(SimTime now, BlockKey key, HitLevel* level) = 0;
  virtual SimTime Write(SimTime now, BlockKey key) = 0;

  // Classifies the access `op` on `key` right now into the certified-class
  // verdict above, without mutating anything. The verdict must be exact: a
  // non-kUncertifiable verdict is a promise that executing the access right
  // now takes precisely the host-local branch the verdict names. Writes are
  // classified per single block; the engine never certifies multi-block
  // writes.
  virtual AccessVerdict ClassifyAccess(TraceOp op, BlockKey key) const = 0;

  // Fused fast-path read (DESIGN.md §13): certifies AND executes from at
  // most one index probe per tier. If ClassifyAccess would report
  // kPureRamHit or kFlashHit for a Read of `key` at `now`, performs exactly
  // that branch of Read — touch, hit counter, device charge, and (subset
  // stacks, flash hits) the certified silent RAM install — sets *level, and
  // returns the completion time; otherwise mutates nothing and returns
  // nullopt (the caller falls back to the full Read on the event path).
  // Success is equivalent, state and time, to Read reporting *level.
  virtual std::optional<SimTime> TryReadFastPath(SimTime now, BlockKey key, HitLevel* level) = 0;

  // Multi-block sibling for RAM hits: if blocks [block, block + count) of
  // `file_id` are all RAM-resident, reads them in order exactly as Read
  // would (touch, ram_hits, RAM charge per block, each starting when the
  // previous completes) and returns the last completion; otherwise mutates
  // nothing and returns nullopt. Each block is probed once: a pure RAM hit
  // never changes residency, so the slots certified up front stay valid.
  virtual std::optional<SimTime> TryReadRamHits(SimTime now, uint32_t file_id, uint64_t block,
                                                uint32_t count) = 0;

  // Syncer interface. A periodic writeback policy is a syncer *thread*
  // (§3.5) with one writeback in flight at a time; when it falls behind the
  // dirty-production rate, dirty data accumulates — the paper observes
  // exactly this at very high write rates (§7.6). Each call writes back the
  // oldest dirty block of the tier and returns the completion time the
  // syncer must wait for before its next writeback, or nullopt when the
  // tier is clean — or when its oldest dirty block was dirtied after
  // `dirtied_before` (the kDelayed1 extension flushes only mature blocks).
  // For the unified stack "tier" means buffers of that medium.
  virtual std::optional<SimTime> FlushOneRamBlock(SimTime now,
                                                  SimTime dirtied_before = kSimTimeNever) = 0;
  virtual std::optional<SimTime> FlushOneFlashBlock(SimTime now,
                                                    SimTime dirtied_before = kSimTimeNever) = 0;

  // Cache-consistency invalidation: drop every copy of `key` (stale data is
  // discarded, not written back). No time is charged — the paper's
  // directory acts instantly with global knowledge (§3.8).
  virtual void Invalidate(BlockKey key) = 0;

  // Whether any copy of `key` is resident (union of RAM and flash).
  virtual bool Holds(BlockKey key) const = 0;

  // Whether a resident copy of `key` is dirty at any tier. Feeds the
  // coherence layer's derived MESI state (coherence.h): a dirty holder is
  // the block's exclusive owner and a remote read must reconcile it.
  virtual bool HoldsDirty(BlockKey key) const = 0;

  // Number of resident blocks at each tier (unified: per medium).
  virtual uint64_t RamResident() const = 0;
  virtual uint64_t FlashResident() const = 0;
  virtual uint64_t DirtyBlocks() const = 0;

  // Structure audit for tests; aborts on violation.
  virtual void CheckInvariants() const = 0;

  // Test-only fault injection (differential-oracle coverage): arms the
  // replacement policies' injected-bug seam on every cache of this stack /
  // inverts the admission filter. No-ops when the policy has no seam or no
  // filter is active. Never called outside tests and check_cli.
  virtual void test_only_break_replacement() {}
  virtual void test_only_break_admission() {}

  void set_residency_listener(ResidencyListener* listener) { listener_ = listener; }

  const StackConfig& config() const { return config_; }
  const StackCounters& counters() const { return counters_; }

 protected:
  void NotifyCached(BlockKey key) {
    if (listener_ != nullptr) {
      listener_->OnCached(key);
    }
  }
  void NotifyDropped(BlockKey key) {
    if (listener_ != nullptr) {
      listener_->OnDropped(key);
    }
  }

  // Attribute a filer read/writeback to its routing shard. No-ops on the
  // single-filer path, where the breakdown vectors stay empty.
  void NoteShardRead(BlockKey key) {
    if (!counters_.shard_reads.empty()) {
      ++counters_.shard_reads[static_cast<size_t>(remote_->ShardOf(key))];
    }
  }
  void NoteShardWrite(BlockKey key) {
    if (!counters_.shard_writes.empty()) {
      ++counters_.shard_writes[static_cast<size_t>(remote_->ShardOf(key))];
    }
  }

  StackConfig config_;
  RamDevice* ram_dev_;
  FlashDevice* flash_dev_;
  StorageService* remote_;
  BackgroundWriter* writer_;
  ResidencyListener* listener_ = nullptr;
  StackCounters counters_;
  // Reused by TryReadRamHits: the slots it certified before touching any.
  std::vector<uint32_t> run_slots_;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_ARCH_CACHE_STACK_H_
