#include "src/core/simulation.h"

#include <algorithm>
#include <string>

#include "src/util/rng.h"

namespace flashsim {

Simulation::Simulation(const SimConfig& config) : config_(config) {
  config_.Validate();
  backlog_ = PooledQueues<TraceRecord>(static_cast<size_t>(NumThreads()));
  // ShardSeed(seed, 0) reproduces the historical single-filer RNG stream,
  // so num_filers == 1 is the paper's one shared filer.
  backend_ = MakeStorageBackend(config_.timing, config_.num_filers, config_.shard_strategy,
                                config_.seed);
  directory_ = std::make_unique<Directory>(config_.num_hosts);
  if (config_.num_hosts > 1) {
    // Pre-size the directory's holders index for the most blocks that can
    // be cached anywhere at once, so it never rehashes mid-trace. One-host
    // runs never feed it (RigTransport).
    directory_->Reserve(config_.fleet_cache_blocks());
  }
  StackConfig stack_config;
  stack_config.ram_blocks = config_.ram_blocks();
  stack_config.flash_blocks = config_.flash_blocks();
  stack_config.ram_policy = config_.ram_policy;
  stack_config.flash_policy = config_.flash_policy;
  stack_config.replacement = config_.replacement;
  stack_config.admission = config_.admission;
  for (int h = 0; h < config_.num_hosts; ++h) {
    hosts_.push_back(std::make_unique<HostRig>(config_.arch, stack_config, config_.timing,
                                               config_.block_bytes, queue_, *backend_));
  }
  if (config_.timing.flash_noise_sigma > 0.0) {
    // Arm per-host flash latency noise, each host on its own substream.
    for (int h = 0; h < config_.num_hosts; ++h) {
      hosts_[static_cast<size_t>(h)]->flash_dev.EnableNoise(config_.timing.flash_noise_sigma,
                                                            FlashStreamSeed(config_.seed, h));
    }
  }
  transport_ = std::make_unique<RigTransport>(hosts_, *backend_, *directory_);
  coherence_ = MakeCoherenceProtocol(
      MakeCoherenceParams(config_.coherence, config_.num_hosts, config_.timing),
      directory_.get(), transport_.get());
  coherence_active_ = config_.coherence != CoherenceModel::kPerfect;
#ifdef FLASHSIM_AUDIT
  // Audit builds force the auditor on with a stride that keeps even scaled
  // benches feasible under sanitizers; an explicit stride still wins.
  if (config_.audit_stride == 0) {
    config_.audit_stride = 512;
  }
#endif
  if (config_.audit_stride > 0) {
    auditor_ =
        std::make_unique<InvariantAuditor>(config_.arch, config_.num_hosts, config_.coherence);
  }
  // The serial fast path coexists with the auditor by not arming: the
  // auditor must observe every record through the full event path (its
  // per-record counter checks and stride bookkeeping are part of the
  // schedule it audits). A modeled coherence protocol likewise disarms the
  // path: any read may first pay protocol traffic, so no read is provably
  // host-local.
  serial_fast_path_ = auditor_ == nullptr && !coherence_active_;
  if (config_.telemetry.any()) {
    ArmTelemetry();
  }
}

void Simulation::ArmTelemetry() {
  telemetry_ = std::make_unique<obs::Telemetry>(config_.telemetry);
  obs::TraceWriter* trace = telemetry_->trace();
  // The sampler alone needs no probes, histograms, or tracks.
  if (!config_.telemetry.histograms && trace == nullptr) {
    return;
  }
  if (trace != nullptr) {
    name_op_read_ = trace->RegisterName("op.read");
    name_op_write_ = trace->RegisterName("op.write");
  }
  for (int h = 0; h < config_.num_hosts; ++h) {
    HostRig& host = *hosts_[static_cast<size_t>(h)];
    const std::string prefix = std::string("h").append(std::to_string(h)).append(".");
    int pid = 0;
    if (trace != nullptr) {
      pid = trace->RegisterProcess("host" + std::to_string(h));
      for (int t = 0; t < config_.threads_per_host; ++t) {
        thread_tracks_.push_back(trace->RegisterTrack(pid, "thread" + std::to_string(t)));
      }
    }
    op_hist_read_.push_back(telemetry_->RegisterHistogram(prefix + "op.read"));
    op_hist_write_.push_back(telemetry_->RegisterHistogram(prefix + "op.write"));
    host.ram_dev.set_probe(telemetry_->RegisterProbe(prefix + "ram.access", pid, "ram", 1));
    host.flash_dev.set_read_probe(telemetry_->RegisterProbe(
        prefix + "flash.read", pid, "flash.read", config_.timing.flash_concurrency));
    host.flash_dev.set_write_probe(telemetry_->RegisterProbe(
        prefix + "flash.write", pid, "flash.write", config_.timing.flash_concurrency));
    host.link.set_to_filer_probe(
        telemetry_->RegisterProbe(prefix + "net.to_filer", pid, "net.to_filer", 1));
    host.link.set_from_filer_probe(
        telemetry_->RegisterProbe(prefix + "net.from_filer", pid, "net.from_filer", 1));
  }
  // One probe pair per filer shard. The single-filer names ("filer.read",
  // process "filer") are pinned by the golden Chrome-trace fixture; sharded
  // runs get per-shard names so saturation is attributable per filer.
  const int shards = backend_->num_shards();
  for (int s = 0; s < shards; ++s) {
    const std::string base = shards == 1 ? "filer" : "filer.s" + std::to_string(s);
    int filer_pid = 0;
    if (trace != nullptr) {
      filer_pid = trace->RegisterProcess(shards == 1 ? "filer" : "filer" + std::to_string(s));
    }
    Filer& shard = backend_->shard(s);
    shard.set_read_probe(telemetry_->RegisterProbe(base + ".read", filer_pid, base + ".read",
                                                   config_.timing.filer_concurrency));
    shard.set_write_probe(telemetry_->RegisterProbe(base + ".write", filer_pid, base + ".write",
                                                    config_.timing.filer_concurrency));
    // Control-plane probe only when a modeled protocol can generate the
    // traffic: the single-filer probe set ("filer.read"/"filer.write") is
    // pinned by the golden Chrome-trace fixture and must not grow under
    // the default perfect model.
    if (config_.coherence != CoherenceModel::kPerfect) {
      shard.set_ctrl_probe(telemetry_->RegisterProbe(base + ".ctrl", filer_pid, base + ".ctrl",
                                                     config_.timing.filer_concurrency));
    }
  }
}

Simulation::~Simulation() = default;

CacheStack& Simulation::stack(int host) { return *hosts_[static_cast<size_t>(host)]->stack; }

FlashDevice& Simulation::flash_device(int host) {
  return hosts_[static_cast<size_t>(host)]->flash_dev;
}

bool Simulation::NextOpFor(int thread_index, TraceRecord* record) {
  const size_t queue = static_cast<size_t>(thread_index);
  if (!backlog_.empty(queue)) {
    *record = backlog_.front(queue);
    backlog_.pop_front(queue);
    return true;
  }
  while (!source_exhausted_) {
    TraceRecord next;
    if (!source_->Next(&next)) {
      source_exhausted_ = true;
      break;
    }
    // Clamp stray host/thread ids into range rather than dropping work:
    // imported traces may have more threads than the configuration.
    const int host = next.host % config_.num_hosts;
    const int thread = next.thread % config_.threads_per_host;
    const int target = ThreadIndex(host, thread);
    if (target == thread_index) {
      *record = next;
      return true;
    }
    backlog_.push_back(static_cast<size_t>(target), next);
  }
  return false;
}

const TraceRecord* Simulation::PeekOpFor(int thread_index) {
  const size_t queue = static_cast<size_t>(thread_index);
  while (backlog_.empty(queue) && !source_exhausted_) {
    TraceRecord next;
    if (!source_->Next(&next)) {
      source_exhausted_ = true;
      break;
    }
    const int host = next.host % config_.num_hosts;
    const int thread = next.thread % config_.threads_per_host;
    backlog_.push_back(static_cast<size_t>(ThreadIndex(host, thread)), next);
  }
  return backlog_.empty(queue) ? nullptr : &backlog_.front(queue);
}

SimTime Simulation::ExecuteOp(SimTime now, const TraceRecord& record) {
  const int host_id = record.host % config_.num_hosts;
  HostRig& host = *hosts_[static_cast<size_t>(host_id)];
  const bool measured = !record.warmup;
  SimTime t = now;
  for (uint32_t i = 0; i < record.block_count; ++i) {
    const BlockKey key = MakeBlockKey(record.file_id, record.block + i);
    if (auditor_ != nullptr) {
      auditor_->OnBlockOp(host_id, record.op == TraceOp::kRead);
    }
    if (record.op == TraceOp::kRead) {
      if (coherence_active_) {
        // Protocol work first: directory lookup round trip on a miss,
        // remote-Dirty reconciliation, lease renewal. Silent (t unchanged)
        // on a covered cache hit.
        t = coherence_->BeforeRead(host_id, key, t);
      }
      HitLevel level = HitLevel::kRam;
      t = host.stack->Read(t, key, &level);
      if (measured) {
        ++metrics_.read_level_blocks[static_cast<size_t>(level)];
        ++metrics_.measured_read_blocks;
      }
    } else {
      t = host.stack->Write(t, key);
      if (measured) {
        ++metrics_.measured_write_blocks;
      }
      // A new version exists: the coherence protocol updates the directory
      // and invalidates stale copies elsewhere. PerfectProtocol is the
      // paper's §3.8 model — instant, free invalidation with global
      // knowledge; modeled protocols put the messages on the network and
      // may block `t`.
      t = coherence_->OnWrite(host_id, key, t, measured);
    }
  }
  return t;
}

std::optional<SimTime> Simulation::TryFastExecute(CacheStack& stack, const TraceRecord& record,
                                                  SimTime now, bool measured) {
  if (record.block_count == 0 || record.op == TraceOp::kWrite) {
    return std::nullopt;
  }
  // A single-block read inlines when it is a hit that changes no residency
  // (TryReadFastPath); a multi-block read only when every block is a RAM
  // hit. Neither schedules anything: the device charges run inline at the
  // same simulated time the event path would have used.
  HitLevel level = HitLevel::kRam;
  const std::optional<SimTime> done =
      record.block_count == 1
          ? stack.TryReadFastPath(now, MakeBlockKey(record.file_id, record.block), &level)
          : stack.TryReadRamHits(now, record.file_id, record.block, record.block_count);
  // The per-block accounting ExecuteOp's read branch would have done.
  if (done.has_value() && measured) {
    metrics_.read_level_blocks[static_cast<size_t>(level)] += record.block_count;
    metrics_.measured_read_blocks += record.block_count;
  }
  return done;
}

void Simulation::FinishOp(int thread_index, const TraceRecord& record, SimTime now,
                          SimTime done) {
  if (done > last_op_completion_) {
    last_op_completion_ = done;
  }
  if (!thread_tracks_.empty()) {
    // One op in flight per thread, so its track never self-overlaps.
    telemetry_->trace()->AddSpan(
        thread_tracks_[static_cast<size_t>(thread_index)],
        record.op == TraceOp::kRead ? name_op_read_ : name_op_write_, now, done);
  }
  if (!record.warmup) {
    const int64_t latency = done - now;
    const size_t host_id = static_cast<size_t>(record.host % config_.num_hosts);
    if (record.op == TraceOp::kRead) {
      metrics_.read_latency.Record(latency);
      if (!op_hist_read_.empty()) {
        op_hist_read_[host_id]->Record(latency);
      }
      if (read_series_ != nullptr) {
        read_series_->Record(now, static_cast<double>(latency));
      }
    } else {
      metrics_.write_latency.Record(latency);
      if (!op_hist_write_.empty()) {
        op_hist_write_[host_id]->Record(latency);
      }
    }
  } else {
    metrics_.warmup_blocks += record.block_count;
  }
  ++metrics_.trace_records;
}

void Simulation::StartThread(int thread_index, SimTime now) {
  TraceRecord record;
  if (!NextOpFor(thread_index, &record)) {
    --live_threads_;
    return;
  }
  SimTime done = ExecuteOp(now, record);
  if (auditor_ != nullptr) {
    AuditAfterRecord(record.host % config_.num_hosts);
  }
  FinishOp(thread_index, record, now, done);
  // Serial read fast path (DESIGN.md §13): while this thread's completion
  // at `done` is provably the next dispatch — the heap is empty or its head
  // fires strictly later (at equal times the queued entry's older seq wins,
  // so ties must take the event path) — and the thread's next record
  // provably schedules nothing (TryFastExecute), run it inline.
  // NoteInlineDispatch leaves the queue's
  // clock, event count, and seq counter exactly as the skipped
  // ScheduleEvent + DispatchHead round trip would, so the event-visible
  // schedule — and therefore every metric — is byte-identical.
  while (serial_fast_path_ && (queue_.empty() || done < queue_.HeadTime())) {
    const TraceRecord* next = PeekOpFor(thread_index);
    if (next == nullptr) {
      // Thread exit, inlined: the completion event would have dispatched
      // straight into NextOpFor returning false.
      queue_.NoteInlineDispatch(done);
      --live_threads_;
      return;
    }
    const size_t host_id = static_cast<size_t>(thread_index / config_.threads_per_host);
    const std::optional<SimTime> fast_done =
        TryFastExecute(*hosts_[host_id]->stack, *next, done, !next->warmup);
    if (!fast_done.has_value()) {
      break;  // not inlinable: fall back to the event path
    }
    record = *next;
    backlog_.pop_front(static_cast<size_t>(thread_index));
    queue_.NoteInlineDispatch(done);
    now = done;
    done = *fast_done;
    FinishOp(thread_index, record, now, done);
  }
  queue_.ScheduleEvent(done, this, kEvThreadStart, static_cast<uint64_t>(thread_index));
}

void Simulation::HandleEvent(SimTime now, uint32_t code, uint64_t arg) {
  switch (static_cast<EventCode>(code)) {
    case kEvThreadStart:
      StartThread(static_cast<int>(arg), now);
      return;
    case kEvSyncerTick:
      SyncerTick(arg != 0, now);
      return;
    case kEvSyncerStep:
      SyncerStep(static_cast<int>(arg & 0xffffffffULL), (arg >> 32) != 0, now);
      return;
    case kEvSample:
      SampleTelemetry(now);
      return;
  }
  FLASHSIM_CHECK(false);  // unreachable: unknown event code
}

void Simulation::AuditAfterRecord(int host) {
  HostRig& hs = *hosts_[static_cast<size_t>(host)];
  auditor_->AuditCounters(host, *hs.stack, hs.writer);
  if (++records_since_structural_audit_ >= config_.audit_stride) {
    records_since_structural_audit_ = 0;
    AuditStructures();
  }
}

void Simulation::AuditStructures() {
  std::vector<InvariantAuditor::HostRefs> refs;
  refs.reserve(hosts_.size());
  // One-host runs keep no directory state to check residency against.
  const Directory* directory = config_.num_hosts > 1 ? directory_.get() : nullptr;
  for (size_t h = 0; h < hosts_.size(); ++h) {
    auditor_->AuditStructure(static_cast<int>(h), *hosts_[h]->stack, directory);
    if (const Ftl* ftl = hosts_[h]->flash_dev.ftl(); ftl != nullptr) {
      ftl->CheckInvariants();  // page maps and the GC victim index
    }
    refs.push_back({hosts_[h]->stack.get(), &hosts_[h]->writer});
  }
  auditor_->AuditGlobal(refs, *backend_);
}

void Simulation::SyncerStep(int host, bool ram_tier, SimTime now) {
  // One syncer thread per host per tier: it writes back one block, sleeps
  // until that write completes, and repeats until the tier is clean. A
  // syncer that cannot keep up with dirty production simply falls behind
  // (§7.6); it never dumps the whole dirty list into the network at once.
  auto& busy = ram_tier ? ram_syncer_busy_ : flash_syncer_busy_;
  CacheStack& stack = *hosts_[static_cast<size_t>(host)]->stack;
  // kDelayed1 flushes only blocks dirty for at least the policy's age.
  const WritebackPolicy policy = ram_tier ? config_.ram_policy : config_.flash_policy;
  const SimDuration min_age = PolicyDirtyAgeNs(policy);
  const SimTime dirtied_before = min_age == 0 ? kSimTimeNever : now - min_age;
  const std::optional<SimTime> done = ram_tier
                                          ? stack.FlushOneRamBlock(now, dirtied_before)
                                          : stack.FlushOneFlashBlock(now, dirtied_before);
  if (done.has_value()) {
    busy[static_cast<size_t>(host)] = true;
    queue_.ScheduleEvent(*done, this, kEvSyncerStep,
                         static_cast<uint64_t>(host) | (ram_tier ? (1ULL << 32) : 0));
  } else {
    busy[static_cast<size_t>(host)] = false;
  }
}

void Simulation::SyncerTick(bool ram_tier, SimTime now) {
  // A repeating wake-up that kicks every idle host syncer of its tier.
  // Wake-ups stop once every thread has finished: remaining dirty data
  // would be flushed at shutdown in a real system, but no application is
  // left to observe it.
  if (live_threads_ == 0) {
    return;
  }
  const auto& busy = ram_tier ? ram_syncer_busy_ : flash_syncer_busy_;
  for (int h = 0; h < static_cast<int>(hosts_.size()); ++h) {
    if (!busy[static_cast<size_t>(h)]) {
      SyncerStep(h, ram_tier, now);
    }
  }
  const WritebackPolicy policy = ram_tier ? config_.ram_policy : config_.flash_policy;
  queue_.ScheduleEvent(now + PolicyPeriodNs(policy), this, kEvSyncerTick, ram_tier ? 1 : 0);
}

void Simulation::SampleTelemetry(SimTime now) {
  // Snapshot the run: cumulative read-serving counters plus instantaneous
  // occupancies. Reads state only — the sampler event never changes what
  // the simulation does, so arming it cannot perturb results (it does
  // consume event sequence numbers, which the queue orders by time first).
  obs::Sample sample;
  sample.t = now;
  for (const auto& host : hosts_) {
    const StackCounters& c = host->stack->counters();
    sample.ram_hits += c.ram_hits;
    sample.flash_hits += c.flash_hits;
    sample.filer_reads += c.filer_reads;
    sample.dirty_resident += host->stack->DirtyBlocks();
    sample.writeback_in_flight += host->writer.pending();
  }
  sample.queue_depth = queue_.size();
  telemetry_->RecordSample(sample);
  if (live_threads_ > 0) {
    queue_.ScheduleEvent(now + config_.telemetry.sample_stride_ns, this, kEvSample, 0);
  }
}

void Simulation::ScheduleSyncers() {
  ram_syncer_busy_.assign(hosts_.size(), false);
  flash_syncer_busy_.assign(hosts_.size(), false);
  for (const bool ram_tier : {true, false}) {
    const WritebackPolicy policy = ram_tier ? config_.ram_policy : config_.flash_policy;
    if (!IsSyncerDriven(policy)) {
      continue;
    }
    queue_.ScheduleEvent(PolicyPeriodNs(policy), this, kEvSyncerTick, ram_tier ? 1 : 0);
  }
}

Metrics Simulation::Run(TraceSource& source) {
  FLASHSIM_CHECK(!ran_);
  ran_ = true;
  source_ = &source;
  live_threads_ = NumThreads();
  // Pre-size the event heap for the run's pending-event bound: one
  // completion per live thread, one tick per tier, one step per host and
  // tier, one pending telemetry sample, and one completion per
  // background-writer window slot.
  queue_.Reserve(static_cast<size_t>(NumThreads()) + 3 + 2 * hosts_.size() +
                 hosts_.size() * static_cast<size_t>(config_.timing.writeback_window));
  // Pre-size the backlog pool from the trace's size hint. The backlogs
  // only hold read-ahead for threads whose ops arrive out of order, so cap
  // the reservation per thread; the pool still grows if a trace turns out
  // badly skewed. The reservation is address space: only chunks actually
  // queued into are ever touched.
  if (const uint64_t hint = source.SizeHint(); hint > 0) {
    const uint64_t per_thread =
        std::min<uint64_t>(hint / static_cast<uint64_t>(NumThreads()) + 1, 16384);
    backlog_.Reserve(static_cast<size_t>(per_thread) * static_cast<size_t>(NumThreads()));
  }
  for (int t = 0; t < NumThreads(); ++t) {
    queue_.ScheduleEvent(0, this, kEvThreadStart, static_cast<uint64_t>(t));
  }
  ScheduleSyncers();
  if (telemetry_ != nullptr && telemetry_->sampler() != nullptr) {
    queue_.ScheduleEvent(config_.telemetry.sample_stride_ns, this, kEvSample, 0);
  }
  queue_.RunToCompletion();
  if (auditor_ != nullptr) {
    // Final audit: at quiescence the writer pipelines have drained, so the
    // conservation identities must hold exactly.
    for (int h = 0; h < static_cast<int>(hosts_.size()); ++h) {
      auditor_->AuditCounters(h, *hosts_[static_cast<size_t>(h)]->stack,
                              hosts_[static_cast<size_t>(h)]->writer);
    }
    AuditStructures();
  }
  // End of run = completion of the last application operation; trailing
  // syncer wake-ups that found nothing to do are not workload time.
  metrics_.end_time = last_op_completion_;

  metrics_.filer_fast_reads = backend_->fast_reads();
  metrics_.filer_slow_reads = backend_->slow_reads();
  metrics_.filer_writes = backend_->writes();
  metrics_.filer_shards.reserve(static_cast<size_t>(backend_->num_shards()));
  for (int s = 0; s < backend_->num_shards(); ++s) {
    const Filer& shard = backend_->shard(s);
    ShardMetrics sm;
    sm.fast_reads = shard.fast_reads();
    sm.slow_reads = shard.slow_reads();
    sm.writes = shard.writes();
    sm.queued_requests = shard.queued_requests();
    sm.max_wait_ns = shard.max_wait();
    sm.busy_ns = shard.busy_time();
    sm.wait_ns = shard.wait_time();
    sm.control_messages = shard.control_messages();
    metrics_.filer_shards.push_back(sm);
  }
  metrics_.consistency_writes = directory_->measured_writes();
  metrics_.invalidating_writes = directory_->invalidating_writes();
  metrics_.invalidations = directory_->invalidations();
  metrics_.coherence = coherence_->totals();
  // invalidation_messages predates the protocol layer; it repeats the
  // protocol's wire-packet total (always zero under perfect).
  metrics_.invalidation_messages = metrics_.coherence.invalidation_messages;
  metrics_.coherence_model = config_.coherence;
  // The directory and FTL maps, pre-sized from SimConfig. Cache indexes are
  // not counted: they double with their live blocks by design (DESIGN.md §8).
  metrics_.index_rehashes = directory_->index_rehashes();
  uint64_t ftl_host_writes = 0;
  uint64_t ftl_programs = 0;
  for (auto& host : hosts_) {
    metrics_.index_rehashes += host->flash_dev.index_rehashes();
    if (host->flash_dev.ftl_enabled()) {
      metrics_.ftl_enabled = true;
      ftl_host_writes += host->flash_dev.ftl()->host_writes();
      ftl_programs += host->flash_dev.ftl()->total_programs();
      metrics_.ftl_erases += host->flash_dev.ftl()->total_erases();
      metrics_.ftl_gc_relocations += host->flash_dev.ftl()->relocated_pages();
    }
    const StackCounters& c = host->stack->counters();
    metrics_.stack_totals.ram_hits += c.ram_hits;
    metrics_.stack_totals.flash_hits += c.flash_hits;
    metrics_.stack_totals.filer_reads += c.filer_reads;
    metrics_.stack_totals.sync_ram_evictions += c.sync_ram_evictions;
    metrics_.stack_totals.sync_flash_evictions += c.sync_flash_evictions;
    metrics_.stack_totals.flash_installs += c.flash_installs;
    metrics_.stack_totals.filer_writebacks += c.filer_writebacks;
    metrics_.stack_totals.sync_filer_writes += c.sync_filer_writes;
    metrics_.stack_totals.flash_admission_rejects += c.flash_admission_rejects;
    metrics_.writebacks_enqueued += host->writer.enqueued();
    metrics_.writebacks_completed += host->writer.completed();
    metrics_.writebacks_in_flight += host->writer.pending();
    metrics_.dirty_resident += host->stack->DirtyBlocks();
  }
  if (ftl_host_writes > 0) {
    metrics_.ftl_write_amplification =
        static_cast<double>(ftl_programs) / static_cast<double>(ftl_host_writes);
  }
  // Flash-endurance accounting: every flash install moves one block of data
  // into the flash medium, so total device wear is installs × block size.
  metrics_.block_bytes = config_.block_bytes;
  metrics_.flash_bytes_written = metrics_.stack_totals.flash_installs * config_.block_bytes;
  return metrics_;
}

void Simulation::CheckInvariants() const {
  for (const auto& host : hosts_) {
    host->stack->CheckInvariants();
  }
}

}  // namespace flashsim
