#include "src/check/audit.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/consistency/coherence.h"
#include "src/consistency/rig_transport.h"
#include "src/core/simulation.h"
#include "src/tracegen/generator.h"
#include "src/util/units.h"
#include "tests/stack_test_util.h"

namespace flashsim {
namespace {

SimConfig AuditConfig(Architecture arch, uint64_t stride) {
  SimConfig config;
  config.ram_bytes = 8 * 4096;
  config.flash_bytes = 32 * 4096;
  config.arch = arch;
  config.audit_stride = stride;
  config.timing.filer_fast_read_rate = 1.0;
  return config;
}

const FsModel& AuditFs() {
  static FsModel* fs = [] {
    FsModelParams p;
    p.total_bytes = 16 * kMiB;
    return new FsModel(p, 77);
  }();
  return *fs;
}

SyntheticTraceSpec AuditSpec(uint16_t hosts = 1) {
  SyntheticTraceSpec spec;
  spec.working_set_bytes = 1 * kMiB;
  spec.num_hosts = hosts;
  spec.seed = 13;
  return spec;
}

// Healthy simulations must pass the full per-record audit (stride 1: cheap
// accounting checks and structural scans after every trace record) for all
// three architectures. The auditor aborts on violation, so simply finishing
// is the assertion.
TEST(Audit, HealthyRunPassesFullStrideAudit) {
  for (Architecture arch : kAllArchitectures) {
    Simulation sim(AuditConfig(arch, 1));
    ASSERT_NE(sim.auditor(), nullptr) << ArchitectureName(arch);
    SyntheticTraceSource source(AuditFs(), AuditSpec());
    const Metrics m = sim.Run(source);
    EXPECT_GT(m.trace_records, 0u);
    EXPECT_GT(sim.auditor()->counter_audits(), 0u);
    EXPECT_GT(sim.auditor()->structure_audits(), 0u);
  }
}

TEST(Audit, MultiHostStridedAuditPasses) {
  for (Architecture arch : kAllArchitectures) {
    SimConfig config = AuditConfig(arch, 64);
    config.num_hosts = 3;
    Simulation sim(config);
    SyntheticTraceSource source(AuditFs(), AuditSpec(3));
    sim.Run(source);
    // Strided: cheap checks every record, structural scans every 64.
    EXPECT_GT(sim.auditor()->counter_audits(), sim.auditor()->structure_audits());
  }
}

TEST(Audit, AuditorCountsApplicationOps) {
  Simulation sim(AuditConfig(Architecture::kNaive, 16));
  SyntheticTraceSource source(AuditFs(), AuditSpec());
  const Metrics m = sim.Run(source);
  const uint64_t ops = sim.auditor()->reads_issued(0) + sim.auditor()->writes_issued(0);
  EXPECT_EQ(ops, m.measured_read_blocks + m.measured_write_blocks + m.warmup_blocks);
}

// The writeback counters the auditor cross-checks are also exported into
// Metrics; the conservation identity must hold at end of run.
TEST(Audit, MetricsWritebackConservation) {
  for (Architecture arch : kAllArchitectures) {
    Simulation sim(AuditConfig(arch, 0));
    SyntheticTraceSource source(AuditFs(), AuditSpec());
    const Metrics m = sim.Run(source);
    EXPECT_EQ(m.writebacks_enqueued, m.writebacks_completed + m.writebacks_in_flight)
        << ArchitectureName(arch);
    EXPECT_EQ(m.stack_totals.filer_writebacks,
              m.stack_totals.sync_filer_writes + m.writebacks_enqueued)
        << ArchitectureName(arch);
  }
}

// The full-stride audit must hold across the replacement-policy zoo and —
// on the architectures that allow it — under the flash admission filter,
// whose RAM-not-in-flash states relax the subset scan but none of the
// accounting identities.
TEST(Audit, PolicyZooPassesFullStrideAudit) {
  for (Architecture arch : kAllArchitectures) {
    for (ReplacementPolicy replacement : kAllReplacementPolicies) {
      SimConfig config = AuditConfig(arch, 1);
      config.replacement = replacement;
      Simulation sim(config);
      SyntheticTraceSource source(AuditFs(), AuditSpec());
      sim.Run(source);
      EXPECT_GT(sim.auditor()->structure_audits(), 0u)
          << ArchitectureName(arch) << " " << ReplacementPolicyName(replacement);
    }
  }
}

TEST(Audit, AdmissionFilterPassesFullStrideAudit) {
  for (Architecture arch : {Architecture::kLookaside, Architecture::kUnified}) {
    SimConfig config = AuditConfig(arch, 1);
    config.admission = AdmissionPolicy::kFlashield;
    Simulation sim(config);
    SyntheticTraceSource source(AuditFs(), AuditSpec());
    const Metrics m = sim.Run(source);
    EXPECT_GT(m.stack_totals.flash_admission_rejects, 0u) << ArchitectureName(arch);
    EXPECT_GT(sim.auditor()->structure_audits(), 0u) << ArchitectureName(arch);
  }
}

TEST(Audit, AuditStrideZeroDisablesAuditor) {
#ifndef FLASHSIM_AUDIT  // the audit build forces a default stride instead
  Simulation sim(AuditConfig(Architecture::kNaive, 0));
  EXPECT_EQ(sim.auditor(), nullptr);
#endif
}

// A workload whose flash victims are RAM-resident: the hot keys are
// re-read every iteration (RAM hits, which never touch the flash LRU), so
// their flash entries age out while the cold scan floods flash — exactly
// the case the subset-eviction path must handle by dropping the RAM copy.
template <typename Audit>
void RunHotColdReads(StackHarness& h, Audit&& audit) {
  SimTime now = 0;
  for (uint64_t i = 0; i < 2048; ++i) {
    now = h.Read(now, MakeBlockKey(0, i % 8));            // hot, stays in RAM
    now = h.Read(now, MakeBlockKey(0, 100 + (i % 64)));   // cold, floods flash
    h.queue().RunUntil(now);
    audit();
  }
}

using AuditDeathTest = ::testing::Test;

// The auditor must catch the same deliberately-injected eviction bug the
// differential oracle catches (differential_test.cc): the test seam makes
// the subset stacks keep a RAM copy of a flash-evicted block, violating
// RAM ⊆ flash.
TEST(AuditDeathTest, StructuralAuditCatchesInjectedSubsetBug) {
  EXPECT_DEATH(
      {
        StackHarness h(Architecture::kNaive, 32, 40, WritebackPolicy::kPeriodic1,
                       WritebackPolicy::kNone);
        static_cast<SubsetStackBase&>(h.stack()).test_only_break_subset_eviction();
        InvariantAuditor auditor(Architecture::kNaive, 1, CoherenceModel::kPerfect);
        RunHotColdReads(h, [&] { auditor.AuditStructure(0, h.stack(), nullptr); });
      },
      "CHECK failed");
}

// Sanity check on the death test itself: the identical loop without the
// injected bug passes every structural audit.
TEST(AuditDeathTest, SameLoopWithoutBugPasses) {
  StackHarness h(Architecture::kNaive, 32, 40, WritebackPolicy::kPeriodic1,
                 WritebackPolicy::kNone);
  InvariantAuditor auditor(Architecture::kNaive, 1, CoherenceModel::kPerfect);
  RunHotColdReads(h, [&] { auditor.AuditStructure(0, h.stack(), nullptr); });
  EXPECT_EQ(auditor.structure_audits(), 2048u);
}

// Two hosts wired as the simulator wires them (HostRig, RigTransport and
// the directory) under the lease protocol. RAM never writes back, so a
// written block stays dirty.
struct LeaseNet {
  static constexpr int kHosts = 2;

  LeaseNet()
      : timing(MakeTiming()),
        backend(timing, /*num_shards=*/1, ShardStrategy::kHash, /*seed=*/3),
        directory(kHosts) {
    StackConfig config;
    config.ram_blocks = 8;
    config.flash_blocks = 32;
    config.ram_policy = WritebackPolicy::kNone;
    for (int h = 0; h < kHosts; ++h) {
      hosts.push_back(std::make_unique<HostRig>(Architecture::kUnified, config, timing,
                                                /*block_bytes=*/4096, queue, backend));
    }
    transport = std::make_unique<RigTransport>(hosts, backend, directory);
    protocol = MakeCoherenceProtocol(MakeCoherenceParams(CoherenceModel::kLease, kHosts, timing),
                                     &directory, transport.get());
  }

  static TimingModel MakeTiming() {
    TimingModel timing;
    timing.filer_fast_read_rate = 1.0;  // deterministic
    return timing;
  }

  SimTime Read(int host, BlockKey key, SimTime now) {
    HitLevel level = HitLevel::kRam;
    return hosts[static_cast<size_t>(host)]->stack->Read(
        protocol->BeforeRead(host, key, now), key, &level);
  }
  SimTime Write(int host, BlockKey key, SimTime now) {
    const SimTime t = hosts[static_cast<size_t>(host)]->stack->Write(now, key);
    return protocol->OnWrite(host, key, t, /*measured=*/true);
  }

  // Host 1 reads (taking a live lease), then host 0 writes and reads the
  // same block; the auditor checks both hosts after every step.
  void ReadThenWrite(InvariantAuditor& auditor) {
    SimTime now = 0;
    for (BlockKey key = 0; key < 4; ++key) {
      now = Read(1, key, now);
      Audit(auditor);
      now = Write(0, key, now);
      Audit(auditor);
      now = Read(0, key, now);
      Audit(auditor);
      queue.RunUntil(now);
    }
  }

  void Audit(InvariantAuditor& auditor) {
    for (int h = 0; h < kHosts; ++h) {
      auditor.AuditStructure(h, *hosts[static_cast<size_t>(h)]->stack, &directory);
    }
  }

  // Devices keep references into the timing model; it must outlive them.
  TimingModel timing;
  EventQueue queue;
  StorageBackend backend;
  Directory directory;
  std::vector<std::unique_ptr<HostRig>> hosts;
  std::unique_ptr<RigTransport> transport;
  std::unique_ptr<CoherenceProtocol> protocol;
};

// The armed lease seam skips the break of a live lease, so the reader keeps
// its copy while the writer holds the block dirty: the structural audit
// must catch the dirty copy's co-holder.
TEST(AuditDeathTest, DirtyCopyWithACoHolderFailsUnderModeledCoherence) {
  EXPECT_DEATH(
      {
        LeaseNet net;
        net.protocol->test_only_break_protocol();
        InvariantAuditor auditor(Architecture::kUnified, LeaseNet::kHosts, CoherenceModel::kLease);
        net.ReadThenWrite(auditor);
      },
      "CHECK failed: directory->SoleHolder");
}

// The same steps without the seam: the write breaks the lease and drops the
// reader's copy, so every audit passes. Under perfect coherence the check
// is off: there reads never reconcile, and a clean copy may sit beside a
// dirty one.
TEST(AuditDeathTest, DirtyCopyIsTheSoleCopyWithoutTheSeam) {
  LeaseNet net;
  InvariantAuditor auditor(Architecture::kUnified, LeaseNet::kHosts, CoherenceModel::kLease);
  net.ReadThenWrite(auditor);
  EXPECT_EQ(auditor.structure_audits(), 4u * 3u * LeaseNet::kHosts);
  EXPECT_GT(net.protocol->totals().lease_breaks, 0u);

  LeaseNet armed;
  armed.protocol->test_only_break_protocol();
  InvariantAuditor perfect(Architecture::kUnified, LeaseNet::kHosts, CoherenceModel::kPerfect);
  armed.ReadThenWrite(perfect);
  EXPECT_EQ(armed.directory.holder_count(0), 2);
  EXPECT_TRUE(armed.hosts[0]->stack->HoldsDirty(0));
}

}  // namespace
}  // namespace flashsim
