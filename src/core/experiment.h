// Experiment runner: paper-units workloads over scaled simulations.
//
// Benchmarks describe runs in the paper's units (GB of working set, GB of
// cache) plus a scale divisor; this module converts to a SimConfig plus a
// SyntheticTraceSpec, builds (and memoizes) the Impressions-style file
// server model, runs the simulation, and returns metrics. Scaling divides
// every capacity — RAM, flash, working set, filer size, trace volume — by
// the same factor and leaves timing untouched, so hit ratios and latency
// shapes are preserved (DESIGN.md §5).
#ifndef FLASHSIM_SRC_CORE_EXPERIMENT_H_
#define FLASHSIM_SRC_CORE_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/core/metrics.h"
#include "src/tracegen/generator.h"
#include "src/util/time_series.h"

namespace flashsim {

struct ExperimentParams {
  // Paper-units capacities (pre-scale).
  double working_set_gib = 80.0;
  double ram_gib = 8.0;
  double flash_gib = 64.0;
  double filer_tib = 1.4;

  // Scale divisor applied to all capacities. 64 keeps every figure's sweep
  // within minutes; tests use larger values.
  uint64_t scale = 64;

  Architecture arch = Architecture::kNaive;
  WritebackPolicy ram_policy = WritebackPolicy::kPeriodic1;
  WritebackPolicy flash_policy = WritebackPolicy::kAsync;
  ReplacementPolicy replacement = ReplacementPolicy::kLru;
  AdmissionPolicy admission = AdmissionPolicy::kAll;
  // Arm the shadow-LRU miss-ratio-curve collector (disables the serial read
  // fast path; results are otherwise unchanged).
  bool collect_mrc = false;
  TimingModel timing;

  int hosts = 1;
  int threads_per_host = 8;
  // Storage backend shape: number of filer shards (1 = paper topology) and
  // the block->shard routing strategy.
  int num_filers = 1;
  ShardStrategy shard_strategy = ShardStrategy::kHash;
  // Coherence protocol axis (DESIGN.md §15); perfect is the paper's model.
  CoherenceModel coherence = CoherenceModel::kPerfect;
  double write_fraction = 0.30;
  double working_set_io_fraction = 0.80;
  double volume_multiplier = 4.0;
  bool shared_working_set = true;
  bool skip_warmup = false;  // cold-start runs (Fig 10)

  // Arms the invariant auditor (src/check/audit.h) for the run: cheap
  // accounting checks every record, structural scans every 64 records.
  bool audit = false;

  uint64_t seed = 1;

  // Optional: measured read latencies are also streamed into this series
  // (warming curves). Not owned; may be null.
  TimeSeriesRecorder* read_latency_series = nullptr;

  // Telemetry collectors to arm for this run (src/obs/); all off by
  // default. When any are on, ExperimentResult::telemetry carries them out.
  obs::TelemetryConfig telemetry;
};

struct ExperimentResult {
  SimConfig config;
  SyntheticTraceSpec trace_spec;
  Metrics metrics;
  double wall_seconds = 0.0;
  // The run's collected telemetry; null unless params.telemetry armed a
  // collector. shared_ptr because results are copied through sweep tables.
  std::shared_ptr<obs::Telemetry> telemetry;
};

// Derives the scaled SimConfig / trace spec without running (test access).
SimConfig BuildSimConfig(const ExperimentParams& params);
SyntheticTraceSpec BuildTraceSpec(const ExperimentParams& params);

// Every reason `params` cannot run, one sentence each: scale and sizes,
// the synthetic trace's rules when `synthetic_trace` (RunExperiment
// generates the trace), and the scaled SimConfig's Violations(). Empty when
// BuildSimConfig — and, if synthetic, RunExperiment — accept the params.
// Front ends print these and exit 2 before building anything.
std::vector<std::string> ParamsViolations(const ExperimentParams& params, bool synthetic_trace);

// Builds everything and runs the simulation to completion.
//
// Thread-safety contract: RunExperiment is safe to call concurrently from
// multiple threads (the harness's ParallelRunner does). Each call builds
// its own Simulation, trace source, and Rngs from params; the only shared
// state is the FsModel memoization cache below, which is internally
// mutex-guarded. Results depend only on params — never on thread
// interleaving — except wall_seconds, which measures this call's host time.
// The params.read_latency_series pointer, when set, must be distinct per
// concurrent call (the recorder itself is not synchronized).
ExperimentResult RunExperiment(const ExperimentParams& params);

// Returns the memoized file-server model for these parameters (built on
// first use; keyed by size and seed). The reference stays valid for the
// process lifetime. Exposed so examples can inspect the model. Thread-safe:
// lookups and first-builds are serialized by an internal mutex, and the
// returned model is immutable (all sampling takes the caller's Rng).
const FsModel& GetFsModel(uint64_t total_bytes, uint32_t block_bytes, uint64_t seed);

// Shared bench header: prints Table 1 timing parameters and the scale.
void PrintExperimentHeader(const std::string& title, const ExperimentParams& params);

}  // namespace flashsim

#endif  // FLASHSIM_SRC_CORE_EXPERIMENT_H_
