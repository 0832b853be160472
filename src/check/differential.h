// Differential runner: drives a real cache stack and the reference oracle
// (src/check/oracle.h) op-by-op over the same operation schedule and fails
// on the first observable divergence.
//
// Observables compared after every operation, per host:
//   - the hit tier a read was served from (HitLevel collapsed to OracleHit),
//   - the cumulative StackCounters,
//   - resident block counts per tier and the dirty-block count,
//   - whether a flush call wrote something back,
//   - every host's residency of a written key after the coherence protocol
//     invalidated stale copies (real directory-driven drops vs the
//     longhand OracleCoherence model driving the oracle stacks),
//   - the coherence protocol's decision counters (messages, acks, leases,
//     dirty fetches, stall counts) against the longhand model's, plus the
//     touched key's lease-expiry entry under the lease protocol,
// plus, every `snapshot_stride` ops and at the end, a deep comparison of
// full cache state: LRU order, medium and dirty flag of every block, and
// per-medium dirty FIFO order.
//
// On divergence the failing schedule is minimized by greedy chunk removal
// and dumped — configuration, seed, and the minimized op list — to a
// replayable `.diverge` file (ReplayDivergeFile / check_cli --replay).
//
// Schedules come from a seeded generator (GenerateSchedule) or from any
// TraceSource (ScheduleFromTrace), so recorded workloads can be used as
// differential inputs too.
#ifndef FLASHSIM_SRC_CHECK_DIFFERENTIAL_H_
#define FLASHSIM_SRC_CHECK_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/arch/stack_factory.h"
#include "src/cache/policy.h"
#include "src/check/oracle.h"
#include "src/consistency/coherence.h"
#include "src/trace/source.h"

namespace flashsim {

struct DiffConfig {
  Architecture arch = Architecture::kNaive;
  WritebackPolicy ram_policy = WritebackPolicy::kPeriodic1;
  WritebackPolicy flash_policy = WritebackPolicy::kAsync;
  ReplacementPolicy replacement = ReplacementPolicy::kLru;
  AdmissionPolicy admission = AdmissionPolicy::kAll;
  // Small capacities and a key space a few times their sum force constant
  // eviction — the interesting regime for divergence hunting.
  uint64_t ram_blocks = 32;
  uint64_t flash_blocks = 128;
  int num_hosts = 1;
  uint64_t key_space = 512;  // block keys drawn from [0, key_space)
  uint64_t seed = 1;
  uint64_t num_ops = 10000;
  uint64_t snapshot_stride = 64;  // deep-state comparison cadence (0 = end only)
  // Test seam: flips SubsetStackBase::test_only_break_subset_eviction() on
  // the real stacks so the suite can prove it catches a real eviction bug.
  bool inject_subset_eviction_bug = false;
  // Test seams: arm the replacement policies' injected-bug path (SLRU stops
  // promoting, LRU-K ranks by last access) / invert the admission filter on
  // the real stacks, so the suite can prove each policy's oracle catches a
  // deliberately wrong implementation.
  bool inject_replacement_bug = false;
  bool inject_admission_bug = false;
  // Coherence protocol on the rig's network path (DESIGN.md §15). perfect
  // is the paper's zero-cost model; directory/lease route every read miss
  // and contended write through the modeled protocol on both sides.
  CoherenceModel coherence = CoherenceModel::kPerfect;
  // Test seam: arms CoherenceProtocol::test_only_break_protocol() on the
  // real side (directory stops sending/waiting for invalidation acks;
  // lease forgets to break live leases on writes). A no-op under perfect.
  bool inject_coherence_bug = false;

  // Every rule this configuration breaks, one sentence each; empty when the
  // rig can build it. check_cli prints these and exits 2; LoadDivergeFile
  // refuses a file that declares any.
  std::vector<std::string> Violations() const;

  std::string Summary() const;
};

enum class DiffOpKind : uint8_t {
  kRead = 0,
  kWrite = 1,
  kFlushRam = 2,
  kFlushFlash = 3,
  kInvalidate = 4,
};

struct DiffOp {
  DiffOpKind kind = DiffOpKind::kRead;
  int host = 0;
  BlockKey key = 0;  // unused by the flush kinds
};

struct DiffResult {
  bool ok = true;
  uint64_t ops_executed = 0;
  uint64_t op_index = 0;     // first divergent op (valid when !ok)
  std::string message;       // divergence description (or load error)
  std::string diverge_file;  // written replay file, when one was dumped
};

// Seeded random schedule over `config.num_ops` operations.
std::vector<DiffOp> GenerateSchedule(const DiffConfig& config);

// Converts up to `max_ops` block operations from a trace into a schedule
// (reads and writes only; hosts clamped into [0, num_hosts)).
std::vector<DiffOp> ScheduleFromTrace(TraceSource& source, int num_hosts, uint64_t max_ops);

// Runs real stacks and oracles over an explicit schedule; stops at the
// first divergence.
DiffResult RunSchedule(const DiffConfig& config, const std::vector<DiffOp>& ops);

// Shrinks a failing schedule by greedy chunk removal; the result still
// diverges under `config`. Requires RunSchedule(config, ops) to fail.
std::vector<DiffOp> MinimizeSchedule(const DiffConfig& config, std::vector<DiffOp> ops);

// Generate + run; on divergence, minimize and — when `diverge_dir` is
// non-empty — dump a replayable .diverge file there (directory is created
// if missing; the file path lands in DiffResult::diverge_file).
DiffResult RunDifferential(const DiffConfig& config, const std::string& diverge_dir = "");

// .diverge round-trip.
bool WriteDivergeFile(const std::string& path, const DiffConfig& config,
                      const std::vector<DiffOp>& ops);
bool LoadDivergeFile(const std::string& path, DiffConfig* config, std::vector<DiffOp>* ops);

// Loads and re-runs a .diverge file. A load failure — unreadable, malformed,
// or declaring a configuration with Violations() — reports ok == false with
// a "load:" message.
DiffResult ReplayDivergeFile(const std::string& path);

}  // namespace flashsim

#endif  // FLASHSIM_SRC_CHECK_DIFFERENTIAL_H_
