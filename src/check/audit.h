// Always-on invariant auditor for the cache stacks.
//
// The simulator's correctness rests on a small set of structural and
// accounting invariants that each architecture must preserve after every
// operation (§3.3, §3.5):
//
//   naive/lookaside — the RAM cache's contents are a subset of the flash
//       cache's whenever a flash tier exists;
//   lookaside       — the flash cache never holds dirty data (writes go
//       RAM -> filer; flash is refreshed only after the filer write);
//   unified         — every block is resident exactly once, in either a RAM
//       or a flash buffer of the single LRU chain (RamResident +
//       FlashResident == size);
//   all             — each cache's LRU chain, block index, and dirty lists
//       agree (LruBlockCache::CheckInvariants), and the consistency
//       directory registers every resident block;
//   modeled coherence (directory, lease) — a block a host holds dirty has
//       no other holder: a write drops every stale copy and a read miss
//       reconciles a remote dirty copy first (under perfect coherence reads
//       never reconcile, so a reader may hold a clean copy beside it);
//   accounting      — reads issued == ram_hits + flash_hits + filer_reads,
//       filer_writebacks == sync_filer_writes + writer.enqueued(),
//       writer.enqueued() == writer.completed() + writer.pending(), and
//       globally the backend's filer shards together served exactly
//       Σ_host (sync_filer_writes + writer.started()) writes and
//       Σ_host filer_reads reads (with one filer this is the historical
//       single-filer conservation; with N shards the per-shard totals must
//       also sum to the backend aggregates, so no shard invents or drops
//       requests).
//
// The auditor is wired into Simulation behind SimConfig::audit_stride (and
// forced on by the FLASHSIM_AUDIT build option): the O(1) accounting checks
// run after every trace record, the O(resident) structural scans every
// `stride` records and at end of run. Violations abort via FLASHSIM_CHECK
// so fuzzing and CI fail loudly at the first bad state, not at a corrupted
// final answer.
#ifndef FLASHSIM_SRC_CHECK_AUDIT_H_
#define FLASHSIM_SRC_CHECK_AUDIT_H_

#include <cstdint>
#include <vector>

#include "src/arch/cache_stack.h"
#include "src/arch/stack_factory.h"
#include "src/backend/storage_backend.h"
#include "src/consistency/coherence.h"
#include "src/consistency/directory.h"
#include "src/device/background_writer.h"
#include "src/device/filer.h"

namespace flashsim {

class InvariantAuditor {
 public:
  InvariantAuditor(Architecture arch, int num_hosts, CoherenceModel coherence);

  // Records that the stack on `host` completed one application block
  // operation; the accounting checks balance stack counters against these.
  void OnBlockOp(int host, bool is_read);

  // O(1) accounting checks for one host: hit-level conservation against the
  // recorded ops and the writeback contract against the background writer
  // (see StackCounters). Aborts on violation.
  void AuditCounters(int host, const CacheStack& stack, const BackgroundWriter& writer);

  // O(resident) structural audit for one host: cache-internal bookkeeping,
  // the architecture invariant, and — when `directory` is non-null — that
  // every block this host's union cache holds is registered to it in the
  // directory and, under a modeled coherence protocol, that every block it
  // holds dirty has it as its sole holder. Aborts on violation.
  void AuditStructure(int host, const CacheStack& stack, const Directory* directory);

  struct HostRefs {
    const CacheStack* stack;
    const BackgroundWriter* writer;
  };

  // Global conservation: the storage backend's request totals — summed
  // across its filer shards — must equal the sum of what every host's stack
  // and writer claim to have sent it.
  void AuditGlobal(const std::vector<HostRefs>& hosts, const StorageBackend& backend);

  uint64_t counter_audits() const { return counter_audits_; }
  uint64_t structure_audits() const { return structure_audits_; }
  uint64_t reads_issued(int host) const {
    return reads_issued_[static_cast<size_t>(host)];
  }
  uint64_t writes_issued(int host) const {
    return writes_issued_[static_cast<size_t>(host)];
  }

 private:
  Architecture arch_;
  CoherenceModel coherence_;
  std::vector<uint64_t> reads_issued_;   // application blocks, per host
  std::vector<uint64_t> writes_issued_;  // application blocks, per host
  uint64_t counter_audits_ = 0;
  uint64_t structure_audits_ = 0;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_CHECK_AUDIT_H_
