// The trace-driven simulator (§5).
//
// Wires together one HostRig per host (src/arch/host_rig.h): a RAM cache
// and flash cache arranged by the configured architecture, a RAM device, a
// flash device, and a private network segment — all above one shared
// storage backend. A coherence protocol over a global consistency directory
// invalidates stale copies when any host writes (§3.8, DESIGN.md §15).
//
// Execution model: the trace is issued as fast as possible subject to each
// application thread having at most one I/O in progress; all executions
// fully interleave. The engine schedules one event per operation
// completion; device and network queueing is captured by timeline
// resources (see src/sim/resource.h). Periodic writeback policies run as
// syncer events at their configured periods.
#ifndef FLASHSIM_SRC_CORE_SIMULATION_H_
#define FLASHSIM_SRC_CORE_SIMULATION_H_

#include <memory>
#include <vector>

#include "src/arch/cache_stack.h"
#include "src/arch/host_rig.h"
#include "src/backend/storage_backend.h"
#include "src/cache/mrc.h"
#include "src/check/audit.h"
#include "src/consistency/coherence.h"
#include "src/consistency/directory.h"
#include "src/consistency/rig_transport.h"
#include "src/core/config.h"
#include "src/core/metrics.h"
#include "src/device/filer.h"
#include "src/device/flash_device.h"
#include "src/obs/telemetry.h"
#include "src/sim/event_queue.h"
#include "src/trace/source.h"
#include "src/util/pooled_queues.h"
#include "src/util/time_series.h"

namespace flashsim {

// The simulator's recurring work is scheduled as typed event records (an
// enum code plus a 64-bit arg) dispatched through HandleEvent's switch —
// no per-event closures, no per-event allocation (see DESIGN.md §8).
class Simulation : private EventHandler {
 public:
  explicit Simulation(const SimConfig& config);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Runs the entire trace to completion and returns the collected metrics.
  // May be called once per Simulation instance.
  Metrics Run(TraceSource& source);

  // Test access.
  CacheStack& stack(int host);
  FlashDevice& flash_device(int host);
  // Filer shard accessors; the default argument keeps single-filer callers
  // (`sim.filer()`) unchanged.
  Filer& filer(int shard = 0) { return backend_->shard(shard); }
  StorageBackend& backend() { return *backend_; }
  const StorageBackend& backend() const { return *backend_; }
  int num_filer_shards() const { return backend_->num_shards(); }
  const SimConfig& config() const { return config_; }
  const Directory& directory() const { return *directory_; }
  // The run's coherence protocol (DESIGN.md §15); always non-null after
  // construction. PerfectProtocol for the paper's zero-cost model.
  const CoherenceProtocol& coherence() const { return *coherence_; }
  uint64_t events_processed() const { return queue_.events_processed(); }
  // Events the serial read fast path dispatched inline (included in
  // events_processed(); always 0 when disabled or audited).
  // Deliberately not part of Metrics: fast path on vs. off is byte-identical
  // there, and tests use this to prove the path actually fired.
  uint64_t fast_path_events() const { return queue_.inline_dispatches(); }
  // Sends every op of the coming Run through the event heap, as the
  // auditor does: the reference side of the fast path's byte-identity
  // tests and of the sim_hot_eventpath bench row. Call before Run.
  void test_only_disable_fast_path() { serial_fast_path_ = false; }
  // Non-null when SimConfig::audit_stride (or FLASHSIM_AUDIT) enabled the
  // invariant auditor for this run.
  const InvariantAuditor* auditor() const { return auditor_.get(); }
  // Non-null iff SimConfig::collect_mrc armed the host's shadow-LRU
  // miss-ratio-curve collector.
  const MrcCollector* mrc_collector(int host) const {
    return mrc_.empty() ? nullptr : mrc_[static_cast<size_t>(host)].get();
  }

  // Audits every host's cache structures; aborts on violation.
  void CheckInvariants() const;

  // Optional: record each measured read operation's latency into a
  // time-series (warming curves). Set before Run(); not owned.
  void set_read_latency_series(TimeSeriesRecorder* series) { read_series_ = series; }

  // Non-null iff SimConfig::telemetry armed any collector.
  obs::Telemetry* telemetry() { return telemetry_.get(); }
  // Transfers ownership of the run's telemetry out of the simulation (the
  // simulation is typically torn down right after Run; results outlive it).
  std::unique_ptr<obs::Telemetry> TakeTelemetry() { return std::move(telemetry_); }

 private:
  // Typed event codes. Args: kEvThreadStart carries the global thread
  // index; kEvSyncerTick the tier (1 = RAM); kEvSyncerStep the host in the
  // low 32 bits and the tier in bit 32; kEvSample carries nothing.
  enum EventCode : uint32_t {
    kEvThreadStart = 0,
    kEvSyncerTick = 1,
    kEvSyncerStep = 2,
    kEvSample = 3,
  };

  void HandleEvent(SimTime now, uint32_t code, uint64_t arg) override;

  int NumThreads() const { return config_.num_hosts * config_.threads_per_host; }
  int ThreadIndex(int host, int thread) const {
    return host * config_.threads_per_host + thread;
  }

  // Fetches the next op for the global thread index, pulling from the
  // source and back-filling other threads' queues as needed.
  bool NextOpFor(int thread_index, TraceRecord* record);

  // Peeks the next op for the thread without consuming it, pulling from the
  // source into backlogs as needed (the thread's own find is parked in its
  // backlog, unlike NextOpFor's direct return). Returns nullptr when the
  // thread is out of work. The pointer stays valid until the thread's
  // backlog is next popped (pushes to any backlog leave it in place).
  const TraceRecord* PeekOpFor(int thread_index);

  // Executes one operation starting at `now`; returns its completion time.
  SimTime ExecuteOp(SimTime now, const TraceRecord& record);

  // Serial read fast path (DESIGN.md §13): if `record` provably schedules
  // nothing — a read that is a pure RAM hit on every block, a single-block
  // flash hit whose RAM install is silent, or a single-block sole-holder
  // write that marks dirty in place — executes it starting at `now`,
  // including the per-block metrics ExecuteOp would have recorded, and
  // returns its completion time; otherwise mutates nothing and returns
  // nullopt.
  std::optional<SimTime> TryFastExecute(CacheStack& stack, const TraceRecord& record,
                                        SimTime now, bool measured);

  // The order-sensitive per-op accumulation shared by the event path and
  // the fast path: completion watermark, spans, latency records, warmup and
  // record counters. Must run in dispatch order (the Welford mean is not
  // associative).
  void FinishOp(int thread_index, const TraceRecord& record, SimTime now, SimTime done);

  void StartThread(int thread_index, SimTime now);
  void ScheduleSyncers();
  void SyncerTick(bool ram_tier, SimTime now);
  void SyncerStep(int host, bool ram_tier, SimTime now);

  // Telemetry plumbing (src/obs/). ArmTelemetry registers every histogram,
  // probe, and trace track up front so the run itself never allocates for
  // telemetry; SampleTelemetry snapshots the run for the periodic sampler
  // and reschedules itself while application threads are live.
  void ArmTelemetry();
  void SampleTelemetry(SimTime now);

  // Audit hooks (no-ops unless auditor_ is armed): the cheap accounting
  // checks after every record, the structural scans every audit_stride
  // records and at end of run.
  void AuditAfterRecord(int host);
  void AuditStructures();

  SimConfig config_;
  // Declared before hosts_: each HostRig binds its link clock and
  // background writer to the queue, so the queue must outlive the hosts.
  EventQueue queue_;
  std::unique_ptr<StorageBackend> backend_;
  std::unique_ptr<Directory> directory_;
  std::vector<std::unique_ptr<HostRig>> hosts_;
  // Coherence layer (DESIGN.md §15): the transport adapts the hosts' links,
  // stacks, and filer shards to the protocols and feeds the directory; the
  // protocol drives ExecuteOp's read/write hooks through it. Declared after
  // hosts_ (the transport dereferences them) and always constructed —
  // PerfectProtocol is the paper's free invalidation. coherence_active_
  // caches `model != perfect` so the perfect read path pays one bool test,
  // not a virtual call.
  std::unique_ptr<RigTransport> transport_;
  std::unique_ptr<CoherenceProtocol> coherence_;
  bool coherence_active_ = false;
  TraceSource* source_ = nullptr;
  // Per-thread-index backlogs of read-ahead records, in one chunk pool
  // (DESIGN.md §8).
  PooledQueues<TraceRecord> backlog_;
  bool source_exhausted_ = false;
  int live_threads_ = 0;
  // Serial fast path armed for this run: no per-record observer (the
  // auditor and the MRC collector must see every op through the full event
  // path), no modeled coherence protocol, and no test_only_disable_fast_path.
  bool serial_fast_path_ = false;
  std::vector<bool> ram_syncer_busy_;    // per host: syncer thread mid-flush
  std::vector<bool> flash_syncer_busy_;  // per host
  SimTime last_op_completion_ = 0;
  TimeSeriesRecorder* read_series_ = nullptr;
  Metrics metrics_;
  bool ran_ = false;
  std::unique_ptr<InvariantAuditor> auditor_;
  uint64_t records_since_structural_audit_ = 0;
  // Per-host shadow-LRU MRC collectors; empty unless SimConfig::collect_mrc.
  std::vector<std::unique_ptr<MrcCollector>> mrc_;

  // Telemetry state; all empty/null when SimConfig::telemetry is off.
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::vector<obs::Histogram*> op_hist_read_;   // per host
  std::vector<obs::Histogram*> op_hist_write_;  // per host
  std::vector<int> thread_tracks_;  // per global thread index (spans only)
  int name_op_read_ = -1;
  int name_op_write_ = -1;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_CORE_SIMULATION_H_
