// flashbench: host time per simulated block on paper-shaped runs.
//
//   flashbench --workload NAME --seed N --seconds S --trace 0|1
//              [--trace-file PATH]
//
// Each workload is one whole simulation built through the library's public
// API (BuildSimConfig/BuildTraceSpec, the file-server model, a TraceSource,
// Simulation construction and Simulation::Run) on the serial engine with
// default flags, telemetry off and the auditor off, in one thread.
//
// --trace 0 repeats set-up + run until S seconds are used (at least three
// times) and reports the medians of the end-to-end metrics. --trace 1 makes
// one plain run and one traced run, then times each layer from outside
// (layer_replay.h) and reports the per-layer split. Every run's Metrics are
// checked: accounting identities always, the digest against the pinned one
// at the default seed, and traced against untraced. A run that fails a
// check counts as failed.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Bad arguments print a message and exit 2.
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "perfbench/layer_replay.h"
#include "src/core/experiment.h"
#include "src/core/simulation.h"
#include "src/harness/sinks.h"
#include "src/trace/fast_source.h"
#include "src/trace/trace_file.h"
#include "src/tracegen/fs_model.h"
#include "src/tracegen/generator.h"
#include "src/util/json.h"
#include "src/util/rng.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FLASHBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
#define FLASHBENCH_SANITIZED 1
#endif
#endif

namespace flashbench {
namespace {

using flashsim::Metrics;
using flashsim::TraceRecord;

constexpr uint64_t kDefaultSeed = 1;
constexpr int kMinReps = 3;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  flashsim::ExperimentParams params;
  // Set-up writes the seeded trace to a binary file and the run replays it
  // through OpenTraceSource (mmap) instead of generating it inline.
  bool replay_file = false;
  // Metrics digest of a run at kDefaultSeed (FNV-1a of MetricsToJson).
  uint64_t pinned_digest = 0;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> all;

  // The paper's default configuration (§3.4) at a realistic footprint:
  // 1 host x 8 threads, naive, p1/a, 80 GiB shared working set, 8 GiB RAM,
  // 64 GiB flash, 30% writes. Cache metadata dominates; coherence idles.
  Workload naive{"naive_s16", {}, false, 0x782653408f2b81a4ULL};
  naive.params.scale = 16;
  all.push_back(naive);

  // 8 hosts x 8 threads on one shared 80 GiB set with 30% writes under
  // directory coherence: invalidations, protocol messages, filer queueing
  // and the background writer are all busy, on the unified stack.
  Workload shared{"shared_dir_h8", {}, false, 0xd3329fedf2e959f0ULL};
  shared.params.scale = 32;
  shared.params.hosts = 8;
  shared.params.arch = flashsim::Architecture::kUnified;
  shared.params.coherence = flashsim::CoherenceModel::kDirectory;
  all.push_back(shared);

  // examples/boot_storm on the serial engine with one filer: 1024 desktops
  // x 2 threads read one 4 GiB golden image (unified, io fraction 0.95).
  // Volume is 16 x hosts replays of the image (the example uses 4 x) so the
  // measured phase is long: RAM hits, the read fast path and 2048
  // outstanding events dominate, and every cache index is tiny.
  Workload boot{"boot_storm_h1024", {}, false, 0xcc9e321a4648db5aULL};
  boot.params.scale = 4096;
  boot.params.hosts = 1024;
  boot.params.threads_per_host = 2;
  boot.params.arch = flashsim::Architecture::kUnified;
  boot.params.working_set_gib = 4.0;
  boot.params.write_fraction = 0.0;
  boot.params.working_set_io_fraction = 0.95;
  boot.params.volume_multiplier = 16.0 * boot.params.hosts;
  all.push_back(boot);

  // 1 host, lookaside, page-mapped FTL under the flash cache, replayed from
  // a binary trace file: the only workload that runs src/ftl and the file
  // trace reader.
  Workload ftl{"ftl_replay", {}, true, 0xc3fc870d39979b1dULL};
  ftl.params.scale = 32;
  ftl.params.arch = flashsim::Architecture::kLookaside;
  ftl.params.timing.use_ftl = true;
  all.push_back(ftl);

  return all;
}

// ---------------------------------------------------------------------------
// Set-up and run

struct SetupTimes {
  double fs_model_s = 0.0;
  double trace_source_s = 0.0;
  double sim_ctor_s = 0.0;
  double total_s = 0.0;
};

// One workload instance, ready to run.
struct Prepared {
  flashsim::SimConfig config;
  flashsim::SyntheticTraceSpec spec;
  std::unique_ptr<flashsim::FsModel> fs;
  std::unique_ptr<flashsim::SyntheticTraceSource> generator;
  std::unique_ptr<flashsim::TraceSource> file;  // replay_file workloads only
  std::unique_ptr<flashsim::Simulation> sim;
  SetupTimes times;

  flashsim::TraceSource& source() {
    return file != nullptr ? *file : static_cast<flashsim::TraceSource&>(*generator);
  }
};

double SecondsSince(Clock::time_point start) { return static_cast<double>(NsSince(start)) / 1e9; }

bool WriteTraceFile(flashsim::TraceSource& source, const std::string& path, std::string* error) {
  std::unique_ptr<flashsim::TraceFileWriter> writer =
      flashsim::TraceFileWriter::Create(path, flashsim::TraceFormat::kBinary, error);
  if (writer == nullptr) {
    return false;
  }
  TraceRecord record;
  while (source.Next(&record)) {
    writer->Write(record);
  }
  if (!writer->Close()) {
    *error = "cannot write trace file " + path;
    return false;
  }
  return true;
}

// Builds everything a run needs and times each part. The file-server model
// is constructed directly rather than through GetFsModel, whose memo would
// hide the cost after the first repetition.
std::unique_ptr<Prepared> Prepare(const Workload& workload, uint64_t seed,
                                  const std::string& trace_file, std::string* error) {
  auto p = std::make_unique<Prepared>();
  flashsim::ExperimentParams params = workload.params;
  params.seed = seed;

  const Clock::time_point start = Clock::now();
  p->config = flashsim::BuildSimConfig(params);
  p->spec = flashsim::BuildTraceSpec(params);
  flashsim::FsModelParams fs_params;
  fs_params.total_bytes = static_cast<uint64_t>(
      params.filer_tib * static_cast<double>(flashsim::kTiB) / static_cast<double>(params.scale));
  fs_params.block_bytes = p->config.block_bytes;
  // The seed RunExperiment gives GetFsModel: the file server is fixed and
  // the trace seed alone varies the workload, as with flashsim_cli --seed.
  p->fs = std::make_unique<flashsim::FsModel>(fs_params, flashsim::Mix64(0xf5ULL));
  const Clock::time_point fs_done = Clock::now();

  p->generator = std::make_unique<flashsim::SyntheticTraceSource>(*p->fs, p->spec);
  if (workload.replay_file) {
    if (!WriteTraceFile(*p->generator, trace_file, error)) {
      return nullptr;
    }
    p->file = flashsim::OpenTraceSource(trace_file, error);
    if (p->file == nullptr) {
      return nullptr;
    }
  }
  const Clock::time_point source_done = Clock::now();

  p->sim = std::make_unique<flashsim::Simulation>(p->config);
  const Clock::time_point end = Clock::now();

  p->times.fs_model_s = std::chrono::duration<double>(fs_done - start).count();
  p->times.trace_source_s = std::chrono::duration<double>(source_done - fs_done).count();
  p->times.sim_ctor_s = std::chrono::duration<double>(end - source_done).count();
  p->times.total_s = std::chrono::duration<double>(end - start).count();
  return p;
}

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

struct RunResult {
  Metrics metrics;
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  uint64_t events = 0;
  uint64_t inline_events = 0;
  uint64_t blocks = 0;
};

RunResult Run(flashsim::Simulation& sim, flashsim::TraceSource& source) {
  RunResult r;
  const int64_t cpu_start = CpuNs();
  const Clock::time_point start = Clock::now();
  r.metrics = sim.Run(source);
  r.wall_ns = NsSince(start);
  r.cpu_ns = CpuNs() - cpu_start;
  r.events = sim.events_processed();
  r.inline_events = sim.fast_path_events();
  r.blocks = r.metrics.warmup_blocks + r.metrics.measured_read_blocks +
             r.metrics.measured_write_blocks;
  return r;
}

// ---------------------------------------------------------------------------
// Output checks

uint64_t Digest(const Metrics& m) {
  uint64_t hash = 14695981039346656037ULL;
  for (const unsigned char c : flashsim::MetricsToJson(m).Dump()) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

// Model-independent identities every run must satisfy.
std::vector<std::string> IdentityViolations(const RunResult& r) {
  const Metrics& m = r.metrics;
  std::vector<std::string> bad;
  uint64_t served = 0;
  for (const uint64_t blocks : m.read_level_blocks) {
    served += blocks;
  }
  if (m.measured_read_blocks != served) {
    bad.push_back("measured_read_blocks != ram + flash + filer hits");
  }
  if (m.stack_totals.filer_writebacks !=
      m.stack_totals.sync_filer_writes + m.writebacks_enqueued) {
    bad.push_back("filer_writebacks != sync_filer_writes + writebacks_enqueued");
  }
  if (m.index_rehashes != 0) {
    bad.push_back("index_rehashes != 0");
  }
  if (r.blocks == 0 || m.trace_records == 0) {
    bad.push_back("empty run");
  }
  return bad;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// What the benchmark keeps of one set-up + run. Plain data, so that a run
// made in a child process can hand it back through a pipe.
struct RepSummary {
  double setup_s = 0.0;
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  double peak_rss_mb = 0.0;
  uint64_t records = 0;
  uint64_t blocks = 0;
  uint64_t digest = 0;
  uint32_t violations = 0;
};

// Digests a run and checks its identities, printing each violation.
RepSummary Summarize(const std::string& label, const RunResult& r, const SetupTimes& setup) {
  RepSummary s;
  s.setup_s = setup.total_s;
  s.wall_ns = r.wall_ns;
  s.cpu_ns = r.cpu_ns;
  s.peak_rss_mb = PeakRssMb();
  s.records = r.metrics.trace_records;
  s.blocks = r.blocks;
  s.digest = Digest(r.metrics);
  for (const std::string& violation : IdentityViolations(r)) {
    std::printf("  %s: FAILED identity: %s\n", label.c_str(), violation.c_str());
    ++s.violations;
  }
  return s;
}

// Whether a run passed: no identity violations, and the digest it must
// reproduce (`expected`; 0 = none) reproduced. Prints a digest mismatch.
bool Passed(const std::string& label, const RepSummary& s, uint64_t expected) {
  if (expected != 0 && s.digest != expected) {
    std::printf("  %s: FAILED digest %016" PRIx64 ", expected %016" PRIx64 "\n", label.c_str(),
                s.digest, expected);
    return false;
  }
  return s.violations == 0;
}

// ---------------------------------------------------------------------------
// Fingerprint and result line

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void PrintFingerprint() {
  flashsim::JsonValue fingerprint = flashsim::JsonValue::Object();
  fingerprint.Set("cpu", CpuModel());
  fingerprint.Set("nproc", Nproc());
  fingerprint.Set("compiler", Compiler());
  fingerprint.Set("build_type", FLASHBENCH_BUILD_TYPE);
  fingerprint.Set("cxx_flags", FLASHBENCH_CXX_FLAGS);
  std::printf("fingerprint: %s\n", fingerprint.Dump().c_str());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Prints every metric by name and unit, then the one-line JSON result.
void PrintResult(bool correct, int attempted, int failed, const std::vector<Metric>& metrics) {
  flashsim::JsonValue values = flashsim::JsonValue::Object();
  for (const Metric& m : metrics) {
    std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    flashsim::JsonValue metric = flashsim::JsonValue::Object();
    metric.Set("value", m.value);
    metric.Set("unit", m.unit);
    values.Set(m.name, std::move(metric));
  }
  flashsim::JsonValue result = flashsim::JsonValue::Object();
  result.Set("correct", correct);
  result.Set("attempted", attempted);
  result.Set("failed", failed);
  result.Set("metrics", std::move(values));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double PerUnit(double total, uint64_t units) {
  return units == 0 ? 0.0 : total / static_cast<double>(units);
}

// ---------------------------------------------------------------------------
// The two modes

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  int seconds = 0;
  int trace = -1;
  std::string trace_file;
};

struct Outcome {
  int attempted = 0;
  int failed = 0;
  std::vector<Metric> metrics;
};

// Prepares a workload instance; refuses to time a library built with the
// invariant auditor forced on (FLASHSIM_AUDIT). Exits on error.
std::unique_ptr<Prepared> PrepareOrExit(const Workload& workload, const Options& options) {
  std::string error;
  std::unique_ptr<Prepared> p = Prepare(workload, options.seed, options.trace_file, &error);
  if (p == nullptr) {
    std::fprintf(stderr, "flashbench: %s\n", error.c_str());
    std::exit(2);
  }
  if (p->sim->auditor() != nullptr) {
    std::fprintf(stderr, "flashbench: refusing to time a FLASHSIM_AUDIT build\n");
    std::exit(2);
  }
  return p;
}

void PrintRun(const std::string& label, const RepSummary& s, bool ok) {
  std::printf("%s: setup %.3f s, run %.3f s, %" PRIu64 " records, %" PRIu64
              " blocks, %.2f ns/block, peak %.1f MB, digest %016" PRIx64 "%s\n",
              label.c_str(), s.setup_s, static_cast<double>(s.wall_ns) / 1e9, s.records,
              s.blocks, PerUnit(static_cast<double>(s.wall_ns), s.blocks), s.peak_rss_mb,
              s.digest, ok ? "" : " FAILED");
  std::fflush(stdout);
}

// Makes one set-up + run in a child process, so that every repetition
// starts from a fresh address space, as a user's run of the simulator does,
// instead of reusing the heap an earlier repetition freed. The child's exit
// status is passed on if it fails.
RepSummary ForkRep(const Workload& workload, const Options& options, const std::string& label) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("flashbench: pipe");
    std::exit(1);
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("flashbench: fork");
    std::exit(1);
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    close(fds[0]);
    std::unique_ptr<Prepared> p = PrepareOrExit(workload, options);
    const RunResult r = Run(*p->sim, p->source());
    const RepSummary s = Summarize(label, r, p->times);
    std::fflush(stdout);
    const bool sent = write(fds[1], &s, sizeof(s)) == static_cast<ssize_t>(sizeof(s));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  RepSummary s;
  const ssize_t got = read(fds[0], &s, sizeof(s));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
  if (code != 0 || got != static_cast<ssize_t>(sizeof(s))) {
    std::fprintf(stderr, "flashbench: %s did not finish\n", label.c_str());
    std::exit(code != 0 ? code : 1);
  }
  return s;
}

// Repeats set-up + run until the time is used (at least kMinReps times);
// reports medians. Every repetition must reproduce the same digest: the
// pinned one at the default seed, the first repetition's otherwise.
Outcome RunEndToEnd(const Workload& workload, const Options& options) {
  uint64_t expected = options.seed == kDefaultSeed ? workload.pinned_digest : 0;
  std::vector<double> ns_per_block;
  std::vector<double> cpu_ns_per_block;
  std::vector<double> setup_s;
  std::vector<double> peak_rss_mb;
  Outcome out;
  const Clock::time_point start = Clock::now();
  double last_rep_s = 0.0;
  while (out.attempted < kMinReps || SecondsSince(start) + last_rep_s <= options.seconds) {
    const Clock::time_point rep_start = Clock::now();
    ++out.attempted;
    const std::string label = "rep " + std::to_string(out.attempted);
    const RepSummary s = ForkRep(workload, options, label);
    const bool ok = Passed(label, s, expected);
    if (expected == 0) {
      expected = s.digest;
    }
    out.failed += ok ? 0 : 1;
    PrintRun(label, s, ok);
    ns_per_block.push_back(PerUnit(static_cast<double>(s.wall_ns), s.blocks));
    cpu_ns_per_block.push_back(PerUnit(static_cast<double>(s.cpu_ns), s.blocks));
    setup_s.push_back(s.setup_s);
    peak_rss_mb.push_back(s.peak_rss_mb);
    last_rep_s = SecondsSince(rep_start);
  }
  out.metrics = {
      {"ns_per_block", Median(ns_per_block), "ns"},
      {"cpu_ns_per_block", Median(cpu_ns_per_block), "ns"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", Median(peak_rss_mb), "MB"},
  };
  return out;
}

// Counts from the run's Metrics and Simulation accessors; exact.
std::vector<Metric> CountMetrics(const RunResult& r) {
  const Metrics& m = r.metrics;
  uint64_t queued = 0;
  flashsim::SimDuration max_wait_ns = 0;
  for (const flashsim::ShardMetrics& shard : m.filer_shards) {
    queued += shard.queued_requests;
    max_wait_ns = std::max(max_wait_ns, shard.max_wait_ns);
  }
  const auto count = [](uint64_t v) { return static_cast<double>(v); };
  return {
      {"trace.records", count(m.trace_records), "count"},
      {"core.blocks", count(r.blocks), "count"},
      {"sim.events", count(r.events), "count"},
      {"sim.events_per_block", PerUnit(count(r.events), r.blocks), "ratio"},
      {"sim.inline_ratio", PerUnit(count(r.inline_events), r.events), "ratio"},
      {"cache.ram_hit_ratio", m.ram_hit_rate(), "ratio"},
      {"cache.flash_hit_ratio", m.flash_hit_rate(), "ratio"},
      {"cache.index_rehashes", count(m.index_rehashes), "count"},
      {"arch.sync_evictions",
       count(m.stack_totals.sync_ram_evictions + m.stack_totals.sync_flash_evictions), "count"},
      {"arch.flash_installs", count(m.stack_totals.flash_installs), "count"},
      {"arch.filer_writebacks", count(m.stack_totals.filer_writebacks), "count"},
      {"device.writebacks_enqueued", count(m.writebacks_enqueued), "count"},
      {"backend.filer_reads", count(m.filer_fast_reads + m.filer_slow_reads), "count"},
      {"backend.queued_requests", count(queued), "count"},
      {"backend.max_wait_us", static_cast<double>(max_wait_ns) / 1000.0, "sim_us"},
      {"consistency.invalidations", count(m.invalidations), "count"},
      {"consistency.messages",
       count(m.coherence.invalidation_messages + m.invalidation_messages), "count"},
      {"consistency.stalled_ops", count(m.coherence.stalled_reads + m.coherence.stalled_writes),
       "count"},
      {"ftl.write_amp", m.ftl_enabled ? m.ftl_write_amplification : 0.0, "ratio"},
      {"ftl.gc_relocations", count(m.ftl_gc_relocations), "count"},
      {"ftl.erases", count(m.ftl_erases), "count"},
  };
}

// One plain run, one traced run, then the layer replays. Host times are
// single measurements; shares and unattributed_pct are of the traced run's
// Simulation::Run wall time.
Outcome RunTraced(const Workload& workload, const Options& options) {
  const uint64_t pinned = options.seed == kDefaultSeed ? workload.pinned_digest : 0;
  Outcome out;

  // The plain run is made in a child process and the traced one in this
  // process, so that both start from a fresh address space.
  const RepSummary plain = ForkRep(workload, options, "plain");
  const bool plain_ok = Passed("plain", plain, pinned);
  PrintRun("plain", plain, plain_ok);

  const int64_t clock_cost = ClockCostNs();
  std::unique_ptr<Prepared> p = PrepareOrExit(workload, options);
  const SetupTimes setup = p->times;
  TimingSource timed(p->source(), clock_cost);
  const RunResult traced = Run(*p->sim, timed);
  p->sim.reset();
  const RepSummary traced_summary = Summarize("traced", traced, setup);
  bool traced_ok = Passed("traced", traced_summary, plain.digest);
  const std::vector<TraceRecord>& records = timed.records();
  const uint64_t blocks = traced.blocks;
  if (CountBlocks(records) != blocks || records.size() != traced.metrics.trace_records) {
    std::printf("  traced: FAILED the wrapper saw %zu records, %" PRIu64 " blocks\n",
                records.size(), CountBlocks(records));
    traced_ok = false;
  }
  PrintRun("traced", traced_summary, traced_ok);
  out.attempted = 2;
  out.failed = (plain_ok ? 0 : 1) + (traced_ok ? 0 : 1);

  const flashsim::SimConfig config = p->config;
  const double run_ns = static_cast<double>(traced.wall_ns);
  const double source_ns = static_cast<double>(timed.self_ns());
  const double plain_ns = static_cast<double>(plain.wall_ns);

  // The layer that feeds the run is timed in it; the other trace layer is
  // timed on its own over the same records.
  double tracegen_ns = source_ns;
  double trace_ns = source_ns;
  if (workload.replay_file) {
    flashsim::SyntheticTraceSource generator(*p->fs, p->spec);
    uint64_t generated = 0;
    tracegen_ns = static_cast<double>(DrainSource(generator, &generated));
  } else {
    std::string error;
    trace_ns = static_cast<double>(ReplayTraceFile(options.trace_file, records, &error));
    if (trace_ns < 0) {
      std::fprintf(stderr, "flashbench: %s\n", error.c_str());
      std::exit(2);
    }
  }
  p.reset();

  const double cache_ns = static_cast<double>(ReplayCache(config, records));
  const double arch_ns = static_cast<double>(ReplayArch(config, records, config.timing.use_ftl));
  const double arch_toggled_ns =
      static_cast<double>(ReplayArch(config, records, !config.timing.use_ftl));
  const double ftl_ns =
      config.timing.use_ftl ? arch_ns - arch_toggled_ns : arch_toggled_ns - arch_ns;
  const uint64_t heap_events = traced.events - traced.inline_events;
  const double sim_ns = static_cast<double>(
      PumpEvents(heap_events, config.num_hosts * config.threads_per_host));

  const auto pct = [run_ns](double ns) { return 100.0 * ns / run_ns; };
  out.metrics = CountMetrics(traced);
  const std::vector<Metric> times = {
      {"setup.fs_model_s", setup.fs_model_s, "s"},
      {"setup.trace_source_s", setup.trace_source_s, "s"},
      {"setup.sim_ctor_s", setup.sim_ctor_s, "s"},
      {"tracegen.ns_per_record", PerUnit(tracegen_ns, records.size()), "ns"},
      {"trace.ns_per_record", PerUnit(trace_ns, records.size()), "ns"},
      {"core.run_self_ns_per_block", PerUnit(run_ns - source_ns, blocks), "ns"},
      {"cache.replay_ns_per_access", PerUnit(cache_ns, blocks), "ns"},
      {"arch.replay_ns_per_block", PerUnit(arch_ns, blocks), "ns"},
      {"sim.replay_ns_per_event", PerUnit(sim_ns, heap_events), "ns"},
      {"ftl.self_ns_per_block", PerUnit(ftl_ns, blocks), "ns"},
      {"trace.source_share_pct", pct(source_ns), "%"},
      {"cache.replay_share_pct", pct(cache_ns), "%"},
      {"arch.replay_share_pct", pct(arch_ns), "%"},
      {"sim.replay_share_pct", pct(sim_ns), "%"},
      {"trace_overhead_pct", 100.0 * (run_ns - plain_ns) / plain_ns, "%"},
      {"unattributed_pct", pct(run_ns - source_ns - arch_ns - sim_ns), "%"},
  };
  out.metrics.insert(out.metrics.end(), times.begin(), times.end());
  return out;
}

// ---------------------------------------------------------------------------
// Command line

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr, "flashbench: %s\n", problem.c_str());
  std::string names;
  for (const Workload& w : Workloads()) {
    names += std::string(names.empty() ? "" : "|") + w.name;
  }
  std::fprintf(stderr,
               "usage: flashbench --workload %s --seed N --seconds S --trace 0|1 "
               "[--trace-file PATH]\n",
               names.c_str());
  std::exit(2);
}

std::optional<uint64_t> ParseUint(const std::string& text) {
  if (text.empty() || text.size() > 20 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE) {
    return std::nullopt;
  }
  return static_cast<uint64_t>(value);
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage("missing value for " + flag);
    }
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      const std::optional<uint64_t> seed = ParseUint(value);
      if (!seed) {
        Usage("malformed --seed '" + value + "' (want an integer in [0, 2^64))");
      }
      options.seed = *seed;
    } else if (flag == "--seconds") {
      const std::optional<uint64_t> seconds = ParseUint(value);
      if (!seconds || *seconds < 1 || *seconds > 3600) {
        Usage("malformed --seconds '" + value + "' (want an integer in [1, 3600])");
      }
      options.seconds = static_cast<int>(*seconds);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("malformed --trace '" + value + "' (want 0 or 1)");
      }
      options.trace = value == "1" ? 1 : 0;
    } else if (flag == "--trace-file") {
      options.trace_file = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (options.workload.empty() || options.seconds == 0 || options.trace < 0 ||
      options.trace_file.empty()) {
    Usage("--workload, --seconds, --trace and --trace-file are required");
  }
  return options;
}

// Fails fast, before any timing, when the trace file cannot be created.
void CheckTraceFileWritable(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "flashbench: cannot write trace file %s: %s\n", path.c_str(),
                 std::strerror(errno));
    std::exit(2);
  }
  std::fclose(f);
  std::remove(path.c_str());
}

int Main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  std::optional<Workload> workload;
  for (const Workload& w : Workloads()) {
    if (options.workload == w.name) {
      workload = w;
    }
  }
  if (!workload) {
    Usage("unknown workload '" + options.workload + "'");
  }
#ifdef FLASHBENCH_SANITIZED
  std::fprintf(stderr, "flashbench: refusing to time a sanitizer build\n");
  return 2;
#endif
  if (std::strstr(FLASHBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    std::fprintf(stderr, "flashbench: refusing to time a sanitizer build\n");
    return 2;
  }
  CheckTraceFileWritable(options.trace_file);

  std::printf("flashbench: workload=%s seed=%" PRIu64 " seconds=%d trace=%d\n",
              workload->name, options.seed, options.seconds, options.trace);
  PrintFingerprint();
  const Outcome out =
      options.trace == 1 ? RunTraced(*workload, options) : RunEndToEnd(*workload, options);
  std::remove(options.trace_file.c_str());
  PrintResult(out.failed == 0, out.attempted, out.failed, out.metrics);
  return 0;
}

}  // namespace
}  // namespace flashbench

int main(int argc, char** argv) { return flashbench::Main(argc, argv); }
