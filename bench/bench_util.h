// Shared helpers for the figure-reproduction benches, built on the sweep
// harness (src/harness/).
//
// Every bench prints the Table 1 timing parameters and its scale factor,
// then one aligned table (or CSV / JSON with --csv / --out=FMT) with the
// same series the paper's figure plots. Scale can be overridden with
// --scale=N; larger N is faster and coarser. Timings never scale
// (DESIGN.md §5). Sweeps run on --jobs=N worker threads (default:
// hardware concurrency) with output identical to --jobs=1.
//
// Benches with their own knobs register them on BenchFlags before parsing:
//
//   BenchFlags flags;
//   flags.parser().AddDouble("ws", "working set GiB", &ws_gib);
//   const BenchOptions options = flags.ParseOrExit(argc, argv);
//
// Unknown flags exit with status 2 (the old ParseBenchOptions printed a
// usage line and kept going).
#ifndef FLASHSIM_BENCH_BENCH_UTIL_H_
#define FLASHSIM_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/harness/harness.h"
#include "src/util/table.h"

namespace flashsim {

// Default scale for bench runs: 8 GB RAM -> 64 MiB, 64 GB flash -> 512 MiB,
// an 80 GB working-set trace issues ~650k block I/Os (~1 s of host time).
constexpr uint64_t kDefaultBenchScale = 128;

struct BenchOptions {
  uint64_t scale = kDefaultBenchScale;
  int jobs = 0;  // 0 = hardware concurrency
  OutputFormat out = OutputFormat::kAligned;
  // Arms the invariant auditor for every experiment in the sweep
  // (src/check/audit.h); slower, but every run self-checks.
  bool audit = false;

  // Telemetry outputs (src/obs/). When set, the sweep's first point
  // (index 0) runs with the matching collectors armed and its stats/trace
  // are written after the sweep; the other points are untouched.
  std::string stats_json;
  std::string trace_out;
  SimDuration sample_stride_ns = 0;

  bool TelemetryRequested() const {
    return !stats_json.empty() || !trace_out.empty() || sample_stride_ns > 0;
  }

  // Collector set for an armed point, derived from the output flags.
  obs::TelemetryConfig TelemetryFor() const {
    obs::TelemetryConfig telemetry;
    telemetry.histograms = !stats_json.empty();
    telemetry.spans = !trace_out.empty();
    telemetry.sample_stride_ns = sample_stride_ns;
    return telemetry;
  }

  ParallelRunner MakeRunner() const { return ParallelRunner(jobs); }
};

// The standard bench flags (--scale, --jobs, --csv, --out) plus whatever
// the individual bench registers via parser().
class BenchFlags {
 public:
  BenchFlags() {
    parser_.AddUint64("scale", "capacity scale divisor (timings unchanged)", &options_.scale);
    parser_.AddInt("jobs", "worker threads (default: hardware concurrency)", &options_.jobs);
    parser_.AddBool("csv", "shorthand for --out=csv", &csv_);
    parser_.AddBool("audit", "run the invariant auditor during every experiment",
                    &options_.audit);
    parser_.AddCustom("out", "table|csv|json", "output format", [this](const std::string& v) {
      const auto format = ParseOutputFormat(v);
      if (!format) {
        return false;
      }
      options_.out = *format;
      return true;
    });
    parser_.AddString("stats_json", "write first point's metrics + telemetry JSON to PATH",
                      &options_.stats_json);
    parser_.AddString("trace_out", "write first point's Chrome trace JSON to PATH",
                      &options_.trace_out);
    parser_.AddDuration("sample_stride", "telemetry sampling stride (sim-ms, 0 = off)",
                        kMillisecond, /*whole_units=*/true, &options_.sample_stride_ns);
  }

  FlagParser& parser() { return parser_; }

  BenchOptions ParseOrExit(int argc, char** argv) {
    parser_.ParseOrExit(argc, argv);
    if (csv_) {
      options_.out = OutputFormat::kCsv;
    }
    if (options_.scale == 0) {
      options_.scale = 1;
    }
    return options_;
  }

 private:
  FlagParser parser_;
  BenchOptions options_;
  bool csv_ = false;
};

inline BenchOptions ParseBenchOptions(int argc, char** argv) {
  BenchFlags flags;
  return flags.ParseOrExit(argc, argv);
}

inline void PrintTable(const Table& table, const BenchOptions& options) {
  EmitTable(table, options.out, std::cout);
}

// The working-set sizes (paper GB units) used by the WSS-sweep figures.
inline std::vector<double> WorkingSetSweepGib() {
  return {5, 10, 20, 40, 60, 80, 120, 160, 240, 320, 480, 640};
}

inline ExperimentParams BaselineParams(const BenchOptions& options) {
  ExperimentParams params;
  params.scale = options.scale;
  params.audit = options.audit;
  return params;
}

// Axis helpers shared across the figure benches.

inline std::vector<Sweep::AxisValue> WorkingSetAxis(const std::vector<double>& sizes) {
  std::vector<Sweep::AxisValue> values;
  values.reserve(sizes.size());
  for (double ws : sizes) {
    values.push_back({Table::Cell(ws, 0),
                      [ws](ExperimentParams& p) { p.working_set_gib = ws; }});
  }
  return values;
}

inline std::vector<Sweep::AxisValue> FlashSizeAxis(const std::vector<double>& sizes) {
  std::vector<Sweep::AxisValue> values;
  values.reserve(sizes.size());
  for (double flash : sizes) {
    values.push_back({Table::Cell(flash, 0),
                      [flash](ExperimentParams& p) { p.flash_gib = flash; }});
  }
  return values;
}

inline std::vector<Sweep::AxisValue> ArchitectureAxis() {
  std::vector<Sweep::AxisValue> values;
  for (Architecture arch : kAllArchitectures) {
    values.push_back({ArchitectureName(arch), [arch](ExperimentParams& p) { p.arch = arch; }});
  }
  return values;
}

inline std::vector<Sweep::AxisValue> RamPolicyAxis(
    const std::vector<WritebackPolicy>& policies) {
  std::vector<Sweep::AxisValue> values;
  values.reserve(policies.size());
  for (WritebackPolicy policy : policies) {
    values.push_back({PolicyName(policy), [policy](ExperimentParams& p) {
                        p.ram_policy = policy;
                      }});
  }
  return values;
}

inline std::vector<Sweep::AxisValue> FlashPolicyAxis(
    const std::vector<WritebackPolicy>& policies) {
  std::vector<Sweep::AxisValue> values;
  values.reserve(policies.size());
  for (WritebackPolicy policy : policies) {
    values.push_back({PolicyName(policy), [policy](ExperimentParams& p) {
                        p.flash_policy = policy;
                      }});
  }
  return values;
}

// Replacement-policy zoo axis (SimConfig::replacement); lru is the paper's
// fixed policy, the rest are the flash-write-aware extension zoo.
inline std::vector<Sweep::AxisValue> PolicyAxis(
    const std::vector<ReplacementPolicy>& policies) {
  std::vector<Sweep::AxisValue> values;
  values.reserve(policies.size());
  for (ReplacementPolicy policy : policies) {
    values.push_back({ReplacementPolicyName(policy), [policy](ExperimentParams& p) {
                        p.replacement = policy;
                      }});
  }
  return values;
}

inline std::vector<ReplacementPolicy> AllReplacementPolicies() {
  return std::vector<ReplacementPolicy>(kAllReplacementPolicies.begin(),
                                        kAllReplacementPolicies.end());
}

// Flash admission axis (SimConfig::admission). Only meaningful for the
// lookaside and unified architectures; naive CHECKs admission == all.
inline std::vector<Sweep::AxisValue> AdmissionAxis(
    const std::vector<AdmissionPolicy>& policies) {
  std::vector<Sweep::AxisValue> values;
  values.reserve(policies.size());
  for (AdmissionPolicy policy : policies) {
    values.push_back({AdmissionPolicyName(policy), [policy](ExperimentParams& p) {
                        p.admission = policy;
                      }});
  }
  return values;
}

// Coherence protocol members (DESIGN.md §15). perfect is the paper's
// zero-cost model; directory/lease put the protocol on the network path.
inline std::vector<Sweep::AxisValue> CoherenceAxis(const std::vector<CoherenceModel>& models) {
  std::vector<Sweep::AxisValue> values;
  values.reserve(models.size());
  for (CoherenceModel model : models) {
    values.push_back({CoherenceModelName(model),
                      [model](ExperimentParams& p) { p.coherence = model; }});
  }
  return values;
}

// Storage-backend shard counts (SimConfig::num_filers); 1 is the paper's
// single-filer topology.
inline std::vector<Sweep::AxisValue> FilersAxis(const std::vector<int>& counts) {
  std::vector<Sweep::AxisValue> values;
  values.reserve(counts.size());
  for (int filers : counts) {
    values.push_back({Table::Cell(static_cast<int64_t>(filers)),
                      [filers](ExperimentParams& p) { p.num_filers = filers; }});
  }
  return values;
}

inline std::vector<WritebackPolicy> AllWritebackPolicies() {
  return std::vector<WritebackPolicy>(kAllWritebackPolicies.begin(),
                                      kAllWritebackPolicies.end());
}

// Runs the sweep on options.jobs workers and adds one row per point, in
// sweep order, as results complete (deterministic regardless of jobs).
// When --stats_json / --trace_out / --sample_stride request telemetry, the
// sweep's first point runs instrumented and its outputs are written here.
template <typename RowFn>
void RunSweepIntoTable(const Sweep& sweep, const BenchOptions& options, Table* table,
                       RowFn row) {
  const bool telemetry = options.TelemetryRequested();
  std::shared_ptr<obs::Telemetry> collected;
  Metrics first_metrics;
  options.MakeRunner().RunOrdered(
      sweep.Expand(),
      [telemetry, &options](const SweepPoint& point) {
        if (telemetry && point.index == 0) {
          SweepPoint armed = point;
          armed.params.telemetry = options.TelemetryFor();
          return RunExperiment(armed.params);
        }
        return RunExperiment(point.params);
      },
      [table, &row, telemetry, &collected, &first_metrics](const SweepPoint& point,
                                                           const ExperimentResult& result) {
        if (telemetry && point.index == 0) {
          collected = result.telemetry;
          first_metrics = result.metrics;
        }
        table->AddRow(row(point, result));
      });
  if (!telemetry) {
    return;
  }
  std::string error;
  if (!options.stats_json.empty() &&
      !WriteStatsJsonFile(options.stats_json, first_metrics, collected.get(), &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
  }
  if (!options.trace_out.empty()) {
    if (collected == nullptr || !WriteChromeTraceFile(options.trace_out, *collected, &error)) {
      std::fprintf(stderr, "%s\n", error.empty() ? "no telemetry collected" : error.c_str());
    }
  }
}

}  // namespace flashsim

#endif  // FLASHSIM_BENCH_BENCH_UTIL_H_
