// Serial read fast path (DESIGN.md §13): the inline dispatch must be
// byte-invisible — metrics with the fast path on are bit-identical to the
// event-path run, including the raw Welford accumulator state (double
// addition is not associative, so matching mean bits proves the fast path
// preserved the exact dispatch order) — while fast_path_events() proves the
// path actually fired where it should and stayed cold where it must.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/simulation.h"
#include "src/util/rng.h"

namespace flashsim {
namespace {

// FLASHSIM_AUDIT builds force the auditor on, which disarms the fast path
// in every run: there the tests below still check byte identity, but not
// that the path fired.
#ifdef FLASHSIM_AUDIT
constexpr bool kFastPathArmed = false;
#else
constexpr bool kFastPathArmed = true;
#endif

// Field-exhaustive bit-level metrics comparison.
void ExpectMetricsIdentical(const Metrics& a, const Metrics& b, const std::string& label) {
  SCOPED_TRACE(label);
  auto expect_latency_equal = [](const LatencyRecorder& x, const LatencyRecorder& y,
                                 const char* which) {
    SCOPED_TRACE(which);
    EXPECT_EQ(x.stats().count(), y.stats().count());
    EXPECT_EQ(x.stats().mean(), y.stats().mean());
    EXPECT_EQ(x.stats().raw_m2(), y.stats().raw_m2());
    EXPECT_EQ(x.stats().raw_min(), y.stats().raw_min());
    EXPECT_EQ(x.stats().raw_max(), y.stats().raw_max());
    EXPECT_EQ(x.stats().sum(), y.stats().sum());
    EXPECT_EQ(x.histogram().buckets(), y.histogram().buckets());
  };
  expect_latency_equal(a.read_latency, b.read_latency, "read_latency");
  expect_latency_equal(a.write_latency, b.write_latency, "write_latency");
  EXPECT_EQ(a.read_level_blocks, b.read_level_blocks);
  EXPECT_EQ(a.measured_read_blocks, b.measured_read_blocks);
  EXPECT_EQ(a.measured_write_blocks, b.measured_write_blocks);
  EXPECT_EQ(a.warmup_blocks, b.warmup_blocks);
  EXPECT_EQ(a.trace_records, b.trace_records);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.filer_fast_reads, b.filer_fast_reads);
  EXPECT_EQ(a.filer_slow_reads, b.filer_slow_reads);
  EXPECT_EQ(a.filer_writes, b.filer_writes);
  EXPECT_TRUE(a.stack_totals == b.stack_totals);
  EXPECT_EQ(a.writebacks_enqueued, b.writebacks_enqueued);
  EXPECT_EQ(a.writebacks_completed, b.writebacks_completed);
  EXPECT_EQ(a.dirty_resident, b.dirty_resident);
}

// Mixed workload: reads and writes over `blocks` distinct blocks, some
// multi-block records, 10% warmup prefix.
std::vector<TraceRecord> Workload(int hosts, int threads, uint64_t ops, uint64_t blocks,
                                  double write_fraction, uint64_t seed) {
  std::vector<TraceRecord> records;
  records.reserve(ops);
  Rng rng(seed);
  for (uint64_t i = 0; i < ops; ++i) {
    TraceRecord r;
    r.op = rng.NextBool(write_fraction) ? TraceOp::kWrite : TraceOp::kRead;
    r.warmup = i < ops / 10;
    r.host = static_cast<uint16_t>(rng.NextBounded(static_cast<uint64_t>(hosts)));
    r.thread = static_cast<uint16_t>(rng.NextBounded(static_cast<uint64_t>(threads)));
    r.file_id = 1;
    r.block = rng.NextBounded(blocks);
    r.block_count = rng.NextBool(0.1) ? static_cast<uint32_t>(rng.NextBounded(4)) + 1 : 1;
    records.push_back(r);
  }
  return records;
}

SimConfig BaseConfig(int hosts, int threads) {
  SimConfig config;
  config.ram_bytes = 1024ULL * 4096;
  config.flash_bytes = 8192ULL * 4096;
  config.num_hosts = hosts;
  config.threads_per_host = threads;
  return config;
}

struct RunResult {
  Metrics metrics;
  uint64_t events = 0;
  uint64_t fast_path_events = 0;
};

// fast_path = false runs the event-path reference through
// Simulation::test_only_disable_fast_path.
RunResult RunWorkload(SimConfig config, std::vector<TraceRecord> records,
                      bool fast_path = true) {
  Simulation sim(config);
  if (!fast_path) {
    sim.test_only_disable_fast_path();
  }
  VectorTraceSource source(std::move(records));
  RunResult result;
  result.metrics = sim.Run(source);
  result.events = sim.events_processed();
  result.fast_path_events = sim.fast_path_events();
  return result;
}

// The core contract: fast path on vs. off is bit-identical across all
// three architectures — on a single-stream hot workload where the path
// demonstrably fires, and on a multi-thread eviction-heavy one.
TEST(FastPath, ByteIdenticalAcrossArchitectures) {
  for (const Architecture arch : kAllArchitectures) {
    for (const bool hot : {true, false}) {
      SimConfig config = hot ? BaseConfig(1, 1) : BaseConfig(2, 4);
      config.arch = arch;
      const auto records = hot ? Workload(1, 1, 20000, 512, 0.2, 3)
                               : Workload(2, 4, 20000, 4096, 0.3, 5);
      const RunResult with = RunWorkload(config, records);
      const RunResult without = RunWorkload(config, records, /*fast_path=*/false);
      const std::string label =
          std::string(ArchitectureName(arch)) + (hot ? " hot-1x1" : " mixed-2x4");
      ExpectMetricsIdentical(with.metrics, without.metrics, label);
      // The inline dispatch consumes the same events the heap would have.
      EXPECT_EQ(with.events, without.events) << label;
      EXPECT_EQ(without.fast_path_events, 0u) << label;
      if (hot && kFastPathArmed) {
        // Single stream + RAM-resident hot set: the path must actually fire.
        EXPECT_GT(with.fast_path_events, 0u) << label;
      }
    }
  }
}

// The replacement-policy plugin layer must keep the fast path
// byte-invisible for every registered policy: a fast-path RAM hit goes
// through the same policy OnHit notification as the event path, so turning
// the path off cannot change a single bit of the metrics.
TEST(FastPath, ByteIdenticalAcrossReplacementPolicies) {
  for (const ReplacementPolicy replacement : kAllReplacementPolicies) {
    for (const Architecture arch : kAllArchitectures) {
      SimConfig config = BaseConfig(1, 1);
      config.arch = arch;
      config.replacement = replacement;
      const auto records = Workload(1, 1, 20000, 512, 0.2, 3);
      const RunResult with = RunWorkload(config, records);
      const RunResult without = RunWorkload(config, records, /*fast_path=*/false);
      const std::string label = std::string(ArchitectureName(arch)) + " policy=" +
                                ReplacementPolicyName(replacement);
      ExpectMetricsIdentical(with.metrics, without.metrics, label);
      EXPECT_EQ(with.events, without.events) << label;
      EXPECT_EQ(with.fast_path_events > 0, kFastPathArmed) << label;
      EXPECT_EQ(without.fast_path_events, 0u) << label;
    }
  }
}

// Miss-heavy single stream (working set 4x RAM, 30% writes): most inlined
// records are flash hits and sole-holder private writes, not RAM hits. Each
// inlined RAM-hit record adds at least one ram_hits, and the one thread
// exits once, so more inline dispatches than that proves the other two
// classes fired — and the metrics must still match the event path bit for
// bit.
TEST(FastPath, ByteIdenticalOnMissHeavyStream) {
  for (const Architecture arch : kAllArchitectures) {
    SimConfig config = BaseConfig(1, 1);
    config.arch = arch;
    const auto records = Workload(1, 1, 20000, 4096, 0.3, 13);
    const RunResult with = RunWorkload(config, records);
    const RunResult without = RunWorkload(config, records, /*fast_path=*/false);
    const std::string label = std::string(ArchitectureName(arch)) + " miss-heavy-1x1";
    ExpectMetricsIdentical(with.metrics, without.metrics, label);
    EXPECT_EQ(with.events, without.events) << label;
    if (kFastPathArmed) {
      EXPECT_GT(with.fast_path_events, with.metrics.stack_totals.ram_hits + 1) << label;
    }
  }
}

// Same contract under the flash admission filter (admission only gates
// miss-path inserts; RAM hits — the fast path's territory — are untouched,
// but the full-metrics comparison proves that end to end).
TEST(FastPath, ByteIdenticalUnderAdmissionFilter) {
  for (const Architecture arch : {Architecture::kLookaside, Architecture::kUnified}) {
    SimConfig config = BaseConfig(1, 1);
    config.arch = arch;
    config.admission = AdmissionPolicy::kFlashield;
    const auto records = Workload(1, 1, 20000, 512, 0.2, 3);
    const RunResult with = RunWorkload(config, records);
    const RunResult without = RunWorkload(config, records, /*fast_path=*/false);
    const std::string label = std::string(ArchitectureName(arch)) + " flashield";
    ExpectMetricsIdentical(with.metrics, without.metrics, label);
    EXPECT_EQ(with.fast_path_events > 0, kFastPathArmed) << label;
    EXPECT_GT(with.metrics.stack_totals.flash_admission_rejects, 0u) << label;
  }
}

// The auditor must observe every op through the full event path, so arming
// it disables the fast path.
TEST(FastPath, AuditorDisablesFastPath) {
  SimConfig config = BaseConfig(1, 1);
  config.audit_stride = 64;
  const RunResult audited = RunWorkload(config, Workload(1, 1, 5000, 512, 0.2, 3));
  EXPECT_EQ(audited.fast_path_events, 0u);

  SimConfig clean = BaseConfig(1, 1);
  clean.audit_stride = 0;
  const RunResult unaudited = RunWorkload(clean, Workload(1, 1, 5000, 512, 0.2, 3));
  ExpectMetricsIdentical(audited.metrics, unaudited.metrics, "audited vs fast path");
  EXPECT_EQ(unaudited.fast_path_events > 0, kFastPathArmed);
}

// TryReadFastPath is a fused certify-and-execute: for every key it succeeds
// exactly where ClassifyAccess certifies a RAM or flash hit, and reports
// that level, on all three architectures.
TEST(FastPath, TryReadFastPathAgreesWithCertification) {
  for (const Architecture arch : kAllArchitectures) {
    SimConfig config = BaseConfig(1, 1);
    config.arch = arch;
    Simulation sim(config);
    VectorTraceSource source(Workload(1, 1, 20000, 4096, 0.3, 11));
    const Metrics m = sim.Run(source);
    CacheStack& stack = sim.stack(0);
    int ram_hits = 0;
    int flash_hits = 0;
    int misses = 0;
    for (uint64_t b = 0; b < 4096; ++b) {
      const BlockKey key = MakeBlockKey(1, b);
      const AccessVerdict verdict = stack.ClassifyAccess(TraceOp::kRead, key);
      const bool certified =
          verdict == AccessVerdict::kPureRamHit || verdict == AccessVerdict::kFlashHit;
      HitLevel level = HitLevel::kFilerSlow;
      const std::optional<SimTime> fast = stack.TryReadFastPath(m.end_time, key, &level);
      EXPECT_EQ(certified, fast.has_value()) << ArchitectureName(arch) << " block " << b;
      if (!fast.has_value()) {
        ++misses;
      } else if (verdict == AccessVerdict::kPureRamHit) {
        // A pure RAM hit completes after exactly the RAM access charge.
        EXPECT_EQ(level, HitLevel::kRam);
        EXPECT_EQ(*fast, m.end_time + config.timing.ram_access_ns);
        ++ram_hits;
      } else {
        EXPECT_EQ(level, HitLevel::kFlash);
        ++flash_hits;
      }
    }
    // The workload must have produced all three populations or the loop
    // above proved nothing.
    EXPECT_GT(ram_hits, 0) << ArchitectureName(arch);
    EXPECT_GT(flash_hits, 0) << ArchitectureName(arch);
    EXPECT_GT(misses, 0) << ArchitectureName(arch);
  }
}

// A lone host's holder set can never name another host, so a one-host run
// leaves the directory empty — and private writes still inline, because a
// resident block's lone host is its sole holder without asking.
TEST(FastPath, OneHostRunKeepsNoDirectory) {
  for (const Architecture arch : kAllArchitectures) {
    SimConfig config = BaseConfig(1, 1);
    config.arch = arch;
    Simulation sim(config);
    VectorTraceSource source(Workload(1, 1, 20000, 4096, 0.3, 13));
    const Metrics m = sim.Run(source);
    const std::string label = ArchitectureName(arch);
    int resident = 0;
    for (uint64_t b = 0; b < 4096; ++b) {
      const BlockKey key = MakeBlockKey(1, b);
      if (sim.stack(0).Holds(key)) {
        ++resident;
        EXPECT_EQ(sim.directory().holder_count(key), 0) << label << " block " << b;
      }
    }
    EXPECT_GT(resident, 0) << label;
    EXPECT_GT(m.consistency_writes, 0u) << label;  // the directory still counts writes
    if (kFastPathArmed) {
      EXPECT_GT(sim.fast_path_events(), m.stack_totals.ram_hits + 1) << label;
    }
  }
}

}  // namespace
}  // namespace flashsim
