// Top-level simulation configuration.
//
// Capacities are in bytes. The paper's baseline (§3.4, Table 1): 8 GB RAM,
// 64 GB flash, 4 KB blocks, one host with eight threads, naive
// architecture, 1-second periodic RAM writeback, asynchronous write-through
// flash writeback (§7.1's chosen combination).
#ifndef FLASHSIM_SRC_CORE_CONFIG_H_
#define FLASHSIM_SRC_CORE_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/arch/stack_factory.h"
#include "src/backend/shard_router.h"
#include "src/consistency/coherence.h"
#include "src/cache/policy.h"
#include "src/cache/replacement.h"
#include "src/device/timing.h"
#include "src/obs/telemetry.h"
#include "src/util/units.h"

namespace flashsim {

struct SimConfig {
  uint32_t block_bytes = 4096;
  uint64_t ram_bytes = 8 * kGiB;
  uint64_t flash_bytes = 64 * kGiB;
  int num_hosts = 1;
  int threads_per_host = 8;

  // Storage backend shape (src/backend/). 1 filer is the paper's topology;
  // N > 1 runs independent filer shards behind a stable block->shard
  // router, the §7.7 "add filers until the knee moves" experiment.
  int num_filers = 1;
  ShardStrategy shard_strategy = ShardStrategy::kHash;

  Architecture arch = Architecture::kNaive;
  WritebackPolicy ram_policy = WritebackPolicy::kPeriodic1;
  WritebackPolicy flash_policy = WritebackPolicy::kAsync;
  ReplacementPolicy replacement = ReplacementPolicy::kLru;
  // DRAM→flash admission filter for the flash tier (DESIGN.md §14).
  // Lookaside/unified only: Validate rejects naive + kFlashield because the
  // naive writeback path requires every RAM block to hold a flash slot.
  AdmissionPolicy admission = AdmissionPolicy::kAll;

  TimingModel timing;

  // Coherence protocol (DESIGN.md §15), the one axis that prices
  // consistency. kPerfect is the paper's zero-cost counting directory and
  // the byte-identical default; kDirectory/kLease put lookup/invalidation/
  // lease traffic on the network and filer. They also disable the serial
  // read fast path — every read may carry protocol traffic, so no read is
  // provably host-local.
  CoherenceModel coherence = CoherenceModel::kPerfect;

  // Seeds the filer's fast/slow read draws (trace generation seeds live in
  // the trace spec, so timing randomness and workload are independent).
  uint64_t seed = 42;

  // Invariant-audit stride (src/check/audit.h). 0 disables auditing.
  // 1 runs the cheap accounting checks and the full structural audit after
  // every trace record. N > 1 runs the cheap checks every record and the
  // structural audit every N records (and once at end of run). Building
  // with -DFLASHSIM_AUDIT=ON forces a default stride when this is 0.
  uint64_t audit_stride = 0;

  // What the run records about itself (src/obs/). Default: everything off;
  // the simulation then allocates no telemetry state and the hot path pays
  // one null-pointer test per service point.
  obs::TelemetryConfig telemetry;

  uint64_t ram_blocks() const { return ram_bytes / block_bytes; }
  uint64_t flash_blocks() const { return flash_bytes / block_bytes; }
  // The most blocks cached anywhere at once: the consistency directory's
  // reservation on multi-host runs.
  uint64_t fleet_cache_blocks() const {
    return (ram_blocks() + flash_blocks()) * static_cast<uint64_t>(num_hosts);
  }

  // Estimated bytes of the run's cache metadata, the part that grows with
  // cache size and fleet width: every host's cache slot records and block
  // indexes, plus the directory's holders index when hosts > 1. It counts
  // every reservation with every reserved page touched: the cache indexes
  // at full size (they grow with the blocks cached and reach it only in
  // caches that fill), and the holders index and flag bytes in full,
  // although their zero pages become resident only as entries reach
  // them. It leaves out the directory's slot-mode mask pool (hosts > 64),
  // which grows by ceil(hosts/64) x 8 bytes for each distinct block cached
  // and so can outgrow the estimate when hosts hold mostly distinct
  // blocks.
  // Violations() refuses runs whose estimate exceeds the machine's
  // physical memory.
  uint64_t MetadataBytes() const;

  // Every rule this configuration breaks, one sentence each; empty when the
  // simulator accepts it. Front ends print these and exit 2.
  std::vector<std::string> Violations() const;

  // Aborts (with each violation on stderr) unless Violations() is empty.
  void Validate() const;

  // One-line description for bench headers and logs.
  std::string Summary() const;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_CORE_CONFIG_H_
