// Golden-digest regression for the two headline figure sweeps: the full
// fig02 architecture x policy grid and the fig08 write-ratio sweep. Each
// sweep's result rows are hashed (FNV-1a) and compared against a digest
// committed in tests/golden/, both serial and on 4 worker threads — so a
// run catches (a) any silent behavior change in the simulation and (b) any
// ordering or determinism break in the parallel runner.
//
// Scales deviate from the benches' default (ISSUE satellite 1 names
// --scale=64): the committed digests use fig02 at scale=2048 and fig08 at
// scale=512, which keep the test a few seconds on one core instead of
// minutes. The digest covers the same sweep axes either way.
//
// To regenerate after an intentional behavior change, run
//   build/tests/golden_digest_test --gtest_also_run_disabled_tests
// with --gtest_filter='*PrintDigests*' and copy the printed lines into
// tests/golden/digests.txt.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace flashsim {
namespace {

uint64_t Fnv1a(const std::string& text, uint64_t hash) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

// Runs the sweep on `jobs` workers and digests every row in emit order.
uint64_t DigestSweep(const Sweep& sweep, int jobs,
                     const std::function<std::vector<std::string>(
                         const SweepPoint&, const ExperimentResult&)>& row) {
  uint64_t hash = 14695981039346656037ULL;
  ParallelRunner(jobs).RunOrdered(
      sweep.Expand(), [](const SweepPoint& point) { return RunExperiment(point.params); },
      [&](const SweepPoint& point, const ExperimentResult& result) {
        for (const std::string& cell : row(point, result)) {
          hash = Fnv1a(cell, Fnv1a("|", hash));
        }
      });
  return hash;
}

// The same sweep + row set fig02_policy_grid.cc prints, at scale 2048.
Sweep Fig02Sweep() {
  ExperimentParams base;
  base.scale = 2048;
  base.working_set_gib = 80.0;
  Sweep sweep(base);
  sweep.AddAxis("arch", ArchitectureAxis())
      .AddAxis("ram_policy", RamPolicyAxis(AllWritebackPolicies()))
      .AddAxis("flash_policy", FlashPolicyAxis(AllWritebackPolicies()));
  return sweep;
}

std::vector<std::string> Fig02Row(const SweepPoint& point, const ExperimentResult& result) {
  const Metrics& m = result.metrics;
  return {point.label(0), point.label(1), point.label(2), Table::Cell(m.mean_read_us(), 2),
          Table::Cell(m.mean_write_us(), 2), Table::Cell(100.0 * m.flash_hit_rate(), 1),
          Table::Cell(m.stack_totals.sync_ram_evictions +
                      m.stack_totals.sync_flash_evictions)};
}

// The same sweep + row set fig08_write_ratio.cc prints, at scale 512.
Sweep Fig08Sweep() {
  ExperimentParams base;
  base.scale = 512;
  std::vector<Sweep::AxisValue> write_axis;
  for (int write_pct = 0; write_pct <= 100; write_pct += 10) {
    write_axis.push_back({Table::Cell(static_cast<int64_t>(write_pct)),
                          [write_pct](ExperimentParams& p) {
                            p.write_fraction = write_pct / 100.0;
                          }});
  }
  Sweep sweep(base);
  sweep.AddAxis("write_pct", std::move(write_axis))
      .AddAxis("ws_gib", WorkingSetAxis({60.0, 80.0}));
  return sweep;
}

std::vector<std::string> Fig08Row(const SweepPoint& point, const ExperimentResult& result) {
  const Metrics& m = result.metrics;
  return {point.label(0), point.label(1), Table::Cell(m.mean_read_us(), 2),
          Table::Cell(m.mean_write_us(), 2), Table::Cell(m.stack_totals.sync_ram_evictions),
          Table::Cell(100.0 * m.invalidation_rate(), 1)};
}

// An 8-host fig02 architecture sweep: the headline fig02 grid is
// single-host, so this is the digest that covers the multi-host directory.
Sweep Fig02HostsSweep(ReplacementPolicy replacement = ReplacementPolicy::kLru,
                      double flash_noise_sigma = 0.0) {
  ExperimentParams base;
  base.scale = 2048;
  base.working_set_gib = 80.0;
  base.hosts = 8;
  base.threads_per_host = 4;
  base.replacement = replacement;
  base.timing.flash_noise_sigma = flash_noise_sigma;
  Sweep sweep(base);
  sweep.AddAxis("arch", ArchitectureAxis());
  return sweep;
}

std::vector<std::string> Fig02HostsRow(const SweepPoint& point,
                                       const ExperimentResult& result) {
  const Metrics& m = result.metrics;
  return {point.label(0), Table::Cell(m.mean_read_us(), 2), Table::Cell(m.mean_write_us(), 2),
          Table::Cell(100.0 * m.ram_hit_rate(), 1), Table::Cell(100.0 * m.flash_hit_rate(), 1),
          Table::Cell(m.stack_totals.sync_ram_evictions + m.stack_totals.sync_flash_evictions),
          Table::Cell(static_cast<int64_t>(m.invalidations))};
}

// A fig08-style write-sharing sweep with the directory coherence protocol
// live on the network path: 8 hosts over a shared working set, write
// fraction swept across the contention range, per-protocol counters in the
// digest rows so any change to the message schedule is caught.
Sweep WriteSharingDirectorySweep() {
  ExperimentParams base;
  base.scale = 512;
  base.working_set_gib = 80.0;
  base.hosts = 8;
  base.threads_per_host = 4;
  base.coherence = CoherenceModel::kDirectory;
  std::vector<Sweep::AxisValue> write_axis;
  for (int write_pct = 0; write_pct <= 60; write_pct += 20) {
    write_axis.push_back({Table::Cell(static_cast<int64_t>(write_pct)),
                          [write_pct](ExperimentParams& p) {
                            p.write_fraction = write_pct / 100.0;
                          }});
  }
  Sweep sweep(base);
  sweep.AddAxis("write_pct", std::move(write_axis)).AddAxis("arch", ArchitectureAxis());
  return sweep;
}

std::vector<std::string> WriteSharingRow(const SweepPoint& point,
                                         const ExperimentResult& result) {
  const Metrics& m = result.metrics;
  const CoherenceCounters& c = m.coherence;
  return {point.label(0),
          point.label(1),
          Table::Cell(m.mean_read_us(), 2),
          Table::Cell(m.mean_write_us(), 2),
          Table::Cell(100.0 * m.flash_hit_rate(), 1),
          Table::Cell(100.0 * m.invalidation_rate(), 1),
          Table::Cell(c.lookups),
          Table::Cell(c.invalidation_messages),
          Table::Cell(c.acks),
          Table::Cell(c.dirty_fetches),
          Table::Cell(c.stalled_reads),
          Table::Cell(c.stalled_writes)};
}

// One host under each modeled coherence protocol: a single host's holder
// set can never name another host, so these runs must not depend on the
// directory's residency bookkeeping at all. Counters are in the rows so a
// change to the message schedule is caught.
Sweep OneHostCoherenceSweep() {
  ExperimentParams base;
  base.scale = 2048;
  base.working_set_gib = 80.0;
  base.hosts = 1;
  base.threads_per_host = 4;
  Sweep sweep(base);
  sweep.AddAxis("arch", ArchitectureAxis())
      .AddAxis("coherence", CoherenceAxis({CoherenceModel::kDirectory, CoherenceModel::kLease}));
  return sweep;
}

std::vector<std::string> OneHostCoherenceRow(const SweepPoint& point,
                                             const ExperimentResult& result) {
  const Metrics& m = result.metrics;
  const CoherenceCounters& c = m.coherence;
  return {point.label(0),
          point.label(1),
          Table::Cell(m.mean_read_us(), 2),
          Table::Cell(m.mean_write_us(), 2),
          Table::Cell(100.0 * m.ram_hit_rate(), 1),
          Table::Cell(100.0 * m.flash_hit_rate(), 1),
          Table::Cell(m.stack_totals.sync_ram_evictions + m.stack_totals.sync_flash_evictions),
          Table::Cell(c.lookups),
          Table::Cell(c.invalidation_messages),
          Table::Cell(c.lease_grants),
          Table::Cell(c.lease_renewals),
          Table::Cell(c.dirty_fetches),
          Table::Cell(c.stalled_reads),
          Table::Cell(c.stalled_read_ns),
          Table::Cell(c.stalled_writes)};
}

// The FTL-backed flash device under every architecture, with caching TRIM
// on and off and greedy vs. wear-aware GC: the digest rows carry the FTL's
// write amplification, erases and relocations, so any change to victim
// selection, page allocation or the key->page map is caught.
Sweep FtlSweep() {
  ExperimentParams base;
  base.scale = 2048;
  base.working_set_gib = 80.0;
  base.timing.use_ftl = true;
  std::vector<Sweep::AxisValue> trim_axis;
  for (const bool trim : {true, false}) {
    trim_axis.push_back(
        {trim ? "on" : "off", [trim](ExperimentParams& p) { p.timing.ftl_trim_enabled = trim; }});
  }
  std::vector<Sweep::AxisValue> wear_axis;
  for (const double wear : {0.0, 4.0}) {
    wear_axis.push_back(
        {Table::Cell(wear, 0), [wear](ExperimentParams& p) { p.timing.ftl_wear_weight = wear; }});
  }
  Sweep sweep(base);
  sweep.AddAxis("arch", ArchitectureAxis())
      .AddAxis("trim", std::move(trim_axis))
      .AddAxis("wear_weight", std::move(wear_axis));
  return sweep;
}

std::vector<std::string> FtlRow(const SweepPoint& point, const ExperimentResult& result) {
  const Metrics& m = result.metrics;
  return {point.label(0),
          point.label(1),
          point.label(2),
          Table::Cell(m.mean_read_us(), 2),
          Table::Cell(m.mean_write_us(), 2),
          Table::Cell(100.0 * m.flash_hit_rate(), 1),
          Table::Cell(m.ftl_write_amplification, 6),
          Table::Cell(m.ftl_erases),
          Table::Cell(m.ftl_gc_relocations)};
}

// A wide fleet booting one shared image (examples/boot_storm.cpp's shape,
// 128 desktops x 2 threads, unified): past the directory's 64-host inline
// ceiling, so its holder sets live in slot mode, and 256 threads' trace
// backlogs fill and drain. Writes into the image invalidate other desktops'
// copies, and the directory protocol prices them, so the rows carry
// invalidations and coherence messages.
Sweep WideFleetSweep() {
  ExperimentParams base;
  base.scale = 2048;
  base.hosts = 128;
  base.threads_per_host = 2;
  base.arch = Architecture::kUnified;
  base.working_set_gib = 4.0;
  base.shared_working_set = true;
  base.working_set_io_fraction = 0.95;
  base.volume_multiplier = 4.0 * base.hosts;
  std::vector<Sweep::AxisValue> write_axis;
  for (const int write_pct : {0, 5}) {
    write_axis.push_back({Table::Cell(static_cast<int64_t>(write_pct)),
                          [write_pct](ExperimentParams& p) {
                            p.write_fraction = write_pct / 100.0;
                          }});
  }
  Sweep sweep(base);
  sweep.AddAxis("write_pct", std::move(write_axis))
      .AddAxis("coherence", CoherenceAxis({CoherenceModel::kPerfect, CoherenceModel::kDirectory}));
  return sweep;
}

std::vector<std::string> WideFleetRow(const SweepPoint& point, const ExperimentResult& result) {
  const Metrics& m = result.metrics;
  return {point.label(0),
          point.label(1),
          Table::Cell(m.mean_read_us(), 2),
          Table::Cell(m.mean_write_us(), 2),
          Table::Cell(100.0 * m.ram_hit_rate(), 1),
          Table::Cell(100.0 * m.flash_hit_rate(), 1),
          Table::Cell(m.invalidations),
          Table::Cell(m.coherence.lookups),
          Table::Cell(m.coherence.invalidation_messages)};
}

std::map<std::string, uint64_t> LoadGoldenDigests() {
  const std::string path = std::string(FLASHSIM_SOURCE_DIR) + "/tests/golden/digests.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::map<std::string, uint64_t> digests;
  std::string name;
  std::string hex;
  while (in >> name >> hex) {
    digests[name] = std::stoull(hex, nullptr, 16);
  }
  return digests;
}

struct SweepCase {
  const char* name;
  Sweep sweep;
  std::function<std::vector<std::string>(const SweepPoint&, const ExperimentResult&)> row;
};

std::vector<SweepCase> GoldenCases() {
  std::vector<SweepCase> cases;
  cases.push_back({"fig02_scale2048", Fig02Sweep(), Fig02Row});
  cases.push_back({"fig08_scale512", Fig08Sweep(), Fig08Row});
  cases.push_back({"fig02_scale2048_hosts8", Fig02HostsSweep(), Fig02HostsRow});
  // One non-LRU member of the replacement-policy zoo gets the same pinned
  // determinism contract: the plugin layer must be as reproducible as the
  // exact-LRU policy it generalizes.
  cases.push_back(
      {"fig02_scale2048_hosts8_slru", Fig02HostsSweep(ReplacementPolicy::kSlru), Fig02HostsRow});
  // Flash latency noise armed: every draw is keyed by (host stream, that
  // device's op counter), so the noisy path is pinned to a committed value
  // like any other, not just compared with itself.
  cases.push_back({"fig02_scale2048_hosts8_noise", Fig02HostsSweep(ReplacementPolicy::kLru, 0.25),
                   Fig02HostsRow});
  return cases;
}

TEST(GoldenDigest, SerialMatchesCommittedAndParallelMatchesSerial) {
  const std::map<std::string, uint64_t> golden = LoadGoldenDigests();
  for (const SweepCase& c : GoldenCases()) {
    const uint64_t serial = DigestSweep(c.sweep, 1, c.row);
    const uint64_t parallel = DigestSweep(c.sweep, 4, c.row);
    EXPECT_EQ(serial, parallel) << c.name << ": --jobs=4 diverged from serial";
    auto it = golden.find(c.name);
    ASSERT_NE(it, golden.end()) << c.name << " missing from tests/golden/digests.txt";
    EXPECT_EQ(serial, it->second)
        << c.name << ": digest changed — if intentional, regenerate via the "
        << "PrintDigests test (see file header)";
  }
}

// Byte-identity contract for the storage backend (DESIGN.md §11): running
// the same sweeps with num_filers pinned to 1 explicitly — one shard of the
// src/backend/ StorageBackend, rather than whatever the default happens to
// be — must reproduce the committed digests bit-for-bit, serial and on 4
// workers. This is the guard that lets the sharded backend evolve without
// silently perturbing every paper figure.
TEST(GoldenDigest, ExplicitSingleFilerIsByteIdentical) {
  const std::map<std::string, uint64_t> golden = LoadGoldenDigests();
  for (SweepCase& c : GoldenCases()) {
    c.sweep.AddAxis("filers", FilersAxis({1}));
    const uint64_t serial = DigestSweep(c.sweep, 1, c.row);
    const uint64_t parallel = DigestSweep(c.sweep, 4, c.row);
    EXPECT_EQ(serial, parallel) << c.name << ": --jobs=4 diverged from serial with filers=1";
    auto it = golden.find(c.name);
    ASSERT_NE(it, golden.end()) << c.name << " missing from tests/golden/digests.txt";
    EXPECT_EQ(serial, it->second)
        << c.name << ": num_filers=1 is not byte-identical to the single-filer golden "
        << "digest — the backend refactor changed the default path";
  }
}

// The coherence axis must default away: pinning coherence=perfect
// *explicitly* on every golden sweep must reproduce every committed digest
// byte-identically — the protocol plumbing (BeforeRead/OnWrite hooks on the
// ExecuteOp paths) is provably free when the model is the paper's zero-cost
// one.
TEST(GoldenDigest, CoherencePerfectIsByteIdentical) {
  const std::map<std::string, uint64_t> golden = LoadGoldenDigests();
  for (SweepCase& c : GoldenCases()) {
    c.sweep.AddAxis("coherence", CoherenceAxis({CoherenceModel::kPerfect}));
    const uint64_t serial = DigestSweep(c.sweep, 1, c.row);
    auto it = golden.find(c.name);
    ASSERT_NE(it, golden.end()) << c.name << " missing from tests/golden/digests.txt";
    EXPECT_EQ(serial, it->second)
        << c.name << ": coherence=perfect is not byte-identical to the committed digest "
        << "— the protocol hooks leaked into the zero-cost model";
  }
}

// Golden pin for the coherence tentpole: the 8-host write-sharing sweep
// under coherence=directory, bit-for-bit stable across sweep jobs ∈ {1, 4}.
TEST(GoldenDigest, WriteSharingDirectoryDigestPinned) {
  const std::map<std::string, uint64_t> golden = LoadGoldenDigests();
  auto it = golden.find("fig08_scale512_hosts8_dir");
  ASSERT_NE(it, golden.end())
      << "fig08_scale512_hosts8_dir missing from tests/golden/digests.txt";
  const Sweep sweep = WriteSharingDirectorySweep();
  for (const int jobs : {1, 4}) {
    EXPECT_EQ(DigestSweep(sweep, jobs, WriteSharingRow), it->second)
        << "coherence=directory jobs=" << jobs
        << " diverged from the pinned write-sharing digest";
  }
}

// One-host runs under directory and lease coherence, serial and on 4
// workers: the pin that lets such runs keep no directory state.
TEST(GoldenDigest, OneHostCoherenceDigestPinned) {
  const std::map<std::string, uint64_t> golden = LoadGoldenDigests();
  auto it = golden.find("fig02_scale2048_hosts1_coh");
  ASSERT_NE(it, golden.end())
      << "fig02_scale2048_hosts1_coh missing from tests/golden/digests.txt";
  const Sweep sweep = OneHostCoherenceSweep();
  for (const int jobs : {1, 4}) {
    EXPECT_EQ(DigestSweep(sweep, jobs, OneHostCoherenceRow), it->second)
        << "one-host coherence jobs=" << jobs << " diverged from the pinned digest";
  }
}

// The FTL-backed device, serial and on 4 workers.
TEST(GoldenDigest, FtlDigestPinned) {
  const std::map<std::string, uint64_t> golden = LoadGoldenDigests();
  auto it = golden.find("fig02_scale2048_ftl");
  ASSERT_NE(it, golden.end()) << "fig02_scale2048_ftl missing from tests/golden/digests.txt";
  const Sweep sweep = FtlSweep();
  for (const int jobs : {1, 4}) {
    EXPECT_EQ(DigestSweep(sweep, jobs, FtlRow), it->second)
        << "ftl jobs=" << jobs << " diverged from the pinned digest";
  }
}

// The wide fleet (slot-mode directory, hundreds of backlogs), serial and
// on 4 workers.
TEST(GoldenDigest, WideFleetDigestPinned) {
  const std::map<std::string, uint64_t> golden = LoadGoldenDigests();
  auto it = golden.find("boot_storm_scale2048_hosts128");
  ASSERT_NE(it, golden.end())
      << "boot_storm_scale2048_hosts128 missing from tests/golden/digests.txt";
  const Sweep sweep = WideFleetSweep();
  for (const int jobs : {1, 4}) {
    EXPECT_EQ(DigestSweep(sweep, jobs, WideFleetRow), it->second)
        << "wide fleet jobs=" << jobs << " diverged from the pinned digest";
  }
}

// Regeneration helper, skipped in normal runs.
TEST(GoldenDigest, DISABLED_PrintDigests) {
  for (const SweepCase& c : GoldenCases()) {
    std::printf("%s %016llx\n", c.name,
                static_cast<unsigned long long>(DigestSweep(c.sweep, 1, c.row)));
  }
  std::printf("fig08_scale512_hosts8_dir %016llx\n",
              static_cast<unsigned long long>(
                  DigestSweep(WriteSharingDirectorySweep(), 1, WriteSharingRow)));
  std::printf("fig02_scale2048_hosts1_coh %016llx\n",
              static_cast<unsigned long long>(
                  DigestSweep(OneHostCoherenceSweep(), 1, OneHostCoherenceRow)));
  std::printf("fig02_scale2048_ftl %016llx\n",
              static_cast<unsigned long long>(DigestSweep(FtlSweep(), 1, FtlRow)));
  std::printf("boot_storm_scale2048_hosts128 %016llx\n",
              static_cast<unsigned long long>(DigestSweep(WideFleetSweep(), 1, WideFleetRow)));
}

}  // namespace
}  // namespace flashsim
