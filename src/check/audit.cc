#include "src/check/audit.h"

#include "src/arch/subset_stack.h"
#include "src/arch/unified_stack.h"
#include "src/util/assert.h"

namespace flashsim {

InvariantAuditor::InvariantAuditor(Architecture arch, int num_hosts, CoherenceModel coherence)
    : arch_(arch),
      coherence_(coherence),
      reads_issued_(static_cast<size_t>(num_hosts), 0),
      writes_issued_(static_cast<size_t>(num_hosts), 0) {
  FLASHSIM_CHECK(num_hosts >= 1);
}

void InvariantAuditor::OnBlockOp(int host, bool is_read) {
  auto& counter =
      is_read ? reads_issued_[static_cast<size_t>(host)] : writes_issued_[static_cast<size_t>(host)];
  ++counter;
}

void InvariantAuditor::AuditCounters(int host, const CacheStack& stack,
                                     const BackgroundWriter& writer) {
  ++counter_audits_;
  const StackCounters& c = stack.counters();
  // Every application block read is served at exactly one level.
  FLASHSIM_CHECK(c.ram_hits + c.flash_hits + c.filer_reads ==
                 reads_issued_[static_cast<size_t>(host)]);
  // Every writeback is routed synchronously or through the writer, never
  // both, never dropped (the StackCounters contract).
  FLASHSIM_CHECK(c.filer_writebacks == c.sync_filer_writes + writer.enqueued());
  // The writer neither invents nor loses work: it refills its window
  // whenever its queue holds an entry, so work still pending always has a
  // filer write in flight. An entry lost from (or invented in) the queue
  // leaves pending() nonzero once the writer idles.
  FLASHSIM_CHECK(writer.started() <= writer.enqueued());
  FLASHSIM_CHECK(writer.pending() == 0 || writer.started() > writer.completed());
  // Dirty blocks are resident blocks.
  FLASHSIM_CHECK(stack.DirtyBlocks() <= stack.RamResident() + stack.FlashResident());
}

void InvariantAuditor::AuditStructure(int host, const CacheStack& stack,
                                      const Directory* directory) {
  ++structure_audits_;
  // Chain/index/dirty-list agreement inside every LruBlockCache.
  stack.CheckInvariants();
  const auto check_registered = [&](const LruBlockCache& cache) {
    if (directory == nullptr) {
      return;
    }
    cache.ForEach([&](BlockKey key, Medium, bool) {
      FLASHSIM_CHECK(directory->IsCachedBy(host, key));
    });
  };
  // Under a modeled protocol a dirty copy is the block's only copy.
  const auto check_dirty_sole = [&](const LruBlockCache& cache) {
    if (directory == nullptr || coherence_ == CoherenceModel::kPerfect) {
      return;
    }
    cache.ForEachDirty([&](BlockKey key, Medium) {
      FLASHSIM_CHECK(directory->SoleHolder(host, key));
    });
  };
  switch (arch_) {
    case Architecture::kNaive:
    case Architecture::kLookaside: {
      const auto& subset = static_cast<const SubsetStackBase&>(stack);
      const LruBlockCache& ram = subset.ram_cache();
      const LruBlockCache& flash = subset.flash_cache();
      if (flash.capacity() > 0 && !subset.admission_active()) {
        // RAM ⊆ flash (§3.3); independent of the stack's own check so a
        // broken CheckInvariants cannot mask a broken eviction path.
        ram.ForEach([&](BlockKey key, Medium, bool) {
          FLASHSIM_CHECK(flash.Lookup(key) != kInvalidSlot);
        });
        check_registered(flash);
      } else if (flash.capacity() > 0) {
        // Under a DRAM→flash admission filter, RAM-only residents are
        // legitimate and the union residency is genuine: both tiers must be
        // registered to the directory independently.
        check_registered(flash);
        check_registered(ram);
      } else {
        check_registered(ram);
      }
      if (arch_ == Architecture::kLookaside) {
        // Flash never holds dirty data (§3.3, Mercury).
        FLASHSIM_CHECK(flash.dirty_count() == 0);
      }
      check_dirty_sole(ram);
      check_dirty_sole(flash);
      break;
    }
    case Architecture::kUnified: {
      const auto& unified = static_cast<const UnifiedStack&>(stack);
      // Single residency: every block lives in exactly one buffer of the
      // one LRU chain, so the per-medium counts partition the size.
      FLASHSIM_CHECK(unified.RamResident() + unified.FlashResident() ==
                     unified.cache().size());
      check_registered(unified.cache());
      check_dirty_sole(unified.cache());
      break;
    }
  }
}

void InvariantAuditor::AuditGlobal(const std::vector<HostRefs>& hosts,
                                   const StorageBackend& backend) {
  uint64_t filer_reads = 0;
  uint64_t filer_writes = 0;
  for (const HostRefs& h : hosts) {
    filer_reads += h.stack->counters().filer_reads;
    filer_writes += h.stack->counters().sync_filer_writes + h.writer->started();
  }
  // The shards together serve exactly the reads the stacks missed on and
  // exactly the writes the stacks issued synchronously plus those the
  // writers have started (completed or on the wire); no shard invents or
  // drops requests.
  uint64_t shard_reads = 0;
  uint64_t shard_writes = 0;
  for (int s = 0; s < backend.num_shards(); ++s) {
    shard_reads += backend.shard(s).reads();
    shard_writes += backend.shard(s).writes();
  }
  FLASHSIM_CHECK(shard_reads == filer_reads);
  FLASHSIM_CHECK(shard_writes == filer_writes);
  // The backend's aggregates are definitionally the shard sums.
  FLASHSIM_CHECK(backend.reads() == shard_reads);
  FLASHSIM_CHECK(backend.writes() == shard_writes);
}

}  // namespace flashsim
