#include "src/check/differential.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/tracegen/generator.h"
#include "src/util/units.h"

namespace flashsim {
namespace {

// The acceptance bar for the differential suite: every architecture x
// (RAM policy, flash policy) pair, 10k random ops, zero divergence. ~4 s
// for all 147 configurations.
TEST(Differential, FullPolicyGridTenThousandOps) {
  for (Architecture arch : kAllArchitectures) {
    for (WritebackPolicy ram_policy : kAllWritebackPolicies) {
      for (WritebackPolicy flash_policy : kAllWritebackPolicies) {
        DiffConfig config;
        config.arch = arch;
        config.ram_policy = ram_policy;
        config.flash_policy = flash_policy;
        config.num_ops = 10000;
        const DiffResult result = RunDifferential(config);
        EXPECT_TRUE(result.ok) << config.Summary() << ": " << result.message;
      }
    }
  }
}

// Multi-host runs exercise the consistency directory: writes on one host
// must invalidate exactly the hosts the oracle says are resident.
TEST(Differential, MultiHostInvalidation) {
  for (Architecture arch : kAllArchitectures) {
    DiffConfig config;
    config.arch = arch;
    config.num_hosts = 4;
    config.key_space = 256;  // force cross-host sharing
    config.num_ops = 10000;
    config.seed = 11;
    const DiffResult result = RunDifferential(config);
    EXPECT_TRUE(result.ok) << config.Summary() << ": " << result.message;
  }
}

TEST(Differential, TraceDrivenSchedule) {
  FsModelParams fs_params;
  fs_params.total_bytes = 64 * kMiB;
  const FsModel fs(fs_params, 33);
  SyntheticTraceSpec spec;
  spec.working_set_bytes = 8 * kMiB;
  spec.num_hosts = 2;
  spec.seed = 9;
  SyntheticTraceSource source(fs, spec);

  DiffConfig config;
  config.num_hosts = 2;
  const std::vector<DiffOp> ops = ScheduleFromTrace(source, config.num_hosts, 5000);
  ASSERT_GT(ops.size(), 1000u);
  for (Architecture arch : kAllArchitectures) {
    config.arch = arch;
    const DiffResult result = RunSchedule(config, ops);
    EXPECT_TRUE(result.ok) << config.Summary() << ": " << result.message;
  }
}

// The replacement-policy zoo: every architecture x replacement policy, with
// a writeback pair that keeps both tiers dirty-heavy, 10k ops, zero
// divergence against each policy's longhand oracle model.
TEST(Differential, ReplacementZooZeroDivergence) {
  for (Architecture arch : kAllArchitectures) {
    for (ReplacementPolicy replacement : kAllReplacementPolicies) {
      DiffConfig config;
      config.arch = arch;
      config.replacement = replacement;
      config.num_ops = 10000;
      const DiffResult result = RunDifferential(config);
      EXPECT_TRUE(result.ok) << config.Summary() << ": " << result.message;
    }
  }
}

// Replacement zoo again under multi-host invalidation pressure.
TEST(Differential, ReplacementZooMultiHost) {
  for (ReplacementPolicy replacement : kAllReplacementPolicies) {
    DiffConfig config;
    config.arch = Architecture::kUnified;
    config.replacement = replacement;
    config.num_hosts = 4;
    config.key_space = 256;
    config.num_ops = 8000;
    config.seed = 23;
    const DiffResult result = RunDifferential(config);
    EXPECT_TRUE(result.ok) << config.Summary() << ": " << result.message;
  }
}

// Coherence axis of the zero-divergence grid: the modeled protocols
// (directory lookups + invalidation acks, time-bounded leases) against the
// longhand OracleCoherence model, across all three stacks under cross-host
// sharing pressure. Writeback pairs keep dirty blocks resident so read
// misses exercise the dirty-fetch reconciliation path too.
TEST(Differential, CoherenceZeroDivergenceGrid) {
  for (Architecture arch : kAllArchitectures) {
    for (CoherenceModel model : {CoherenceModel::kPerfect, CoherenceModel::kDirectory,
                                 CoherenceModel::kLease}) {
      DiffConfig config;
      config.arch = arch;
      config.coherence = model;
      config.num_hosts = 4;
      config.key_space = 256;
      config.ram_policy = WritebackPolicy::kNone;
      config.flash_policy = WritebackPolicy::kAsync;
      config.num_ops = 8000;
      config.seed = 17;
      const DiffResult result = RunDifferential(config);
      EXPECT_TRUE(result.ok) << config.Summary() << ": " << result.message;
    }
  }
}

// Each protocol's injected bug must be caught by the longhand model: the
// directory seam stops sending (and counting) invalidation acks, the lease
// seam forgets to break live leases so a stale copy stays resident.
TEST(Differential, InjectedCoherenceBugsDiverge) {
  for (CoherenceModel model : {CoherenceModel::kDirectory, CoherenceModel::kLease}) {
    DiffConfig config;
    config.arch = Architecture::kUnified;
    config.coherence = model;
    config.inject_coherence_bug = true;
    config.num_hosts = 4;
    config.key_space = 128;  // heavy sharing: contended writes come fast
    config.num_ops = 5000;
    const DiffResult result = RunDifferential(config);
    EXPECT_FALSE(result.ok) << config.Summary() << ": injected coherence bug not caught";
    EXPECT_FALSE(result.message.empty());
  }
}

// .diverge headers round-trip the coherence axis.
TEST(Differential, DivergeFileRoundTripsCoherenceFields) {
  DiffConfig config;
  config.arch = Architecture::kLookaside;
  config.coherence = CoherenceModel::kLease;
  config.inject_coherence_bug = true;
  config.num_hosts = 4;
  const std::vector<DiffOp> ops = {{DiffOpKind::kRead, 1, 9}, {DiffOpKind::kWrite, 2, 9}};
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "flashsim_coherence_roundtrip.diverge";
  ASSERT_TRUE(WriteDivergeFile(path.string(), config, ops));
  DiffConfig loaded;
  std::vector<DiffOp> loaded_ops;
  ASSERT_TRUE(LoadDivergeFile(path.string(), &loaded, &loaded_ops));
  EXPECT_EQ(loaded.coherence, CoherenceModel::kLease);
  EXPECT_TRUE(loaded.inject_coherence_bug);
  ASSERT_EQ(loaded_ops.size(), 2u);
  EXPECT_EQ(loaded_ops[1].host, 2);
  std::filesystem::remove(path);
}

// The flash admission filter on the two architectures that support it,
// crossed with the replacement zoo: the independent OracleAdmissionFilter
// must agree with the real ghost doorkeeper decision-for-decision.
TEST(Differential, FlashAdmissionZeroDivergence) {
  for (Architecture arch : {Architecture::kLookaside, Architecture::kUnified}) {
    for (ReplacementPolicy replacement : kAllReplacementPolicies) {
      DiffConfig config;
      config.arch = arch;
      config.replacement = replacement;
      config.admission = AdmissionPolicy::kFlashield;
      config.num_ops = 10000;
      const DiffResult result = RunDifferential(config);
      EXPECT_TRUE(result.ok) << config.Summary() << ": " << result.message;
    }
  }
}

// Every policy with an injected-bug seam must be caught by its oracle:
// SLRU stops promoting probationary hits, CLOCK stops granting second
// chances, LRU-2 ranks by most-recent access. A seam that nothing catches
// is a dead test hook.
TEST(Differential, InjectedReplacementBugsDiverge) {
  for (Architecture arch : kAllArchitectures) {
    for (ReplacementPolicy replacement :
         {ReplacementPolicy::kClock, ReplacementPolicy::kSlru, ReplacementPolicy::kLruK}) {
      DiffConfig config;
      config.arch = arch;
      config.replacement = replacement;
      config.inject_replacement_bug = true;
      config.num_ops = 10000;
      const DiffResult result = RunDifferential(config);
      EXPECT_FALSE(result.ok)
          << config.Summary() << ": injected replacement bug not caught";
    }
  }
}

// The inverted admission filter must diverge immediately on both admitting
// architectures (first-touch installs flip from rejected to admitted).
TEST(Differential, InjectedAdmissionBugDiverges) {
  for (Architecture arch : {Architecture::kLookaside, Architecture::kUnified}) {
    DiffConfig config;
    config.arch = arch;
    config.admission = AdmissionPolicy::kFlashield;
    config.inject_admission_bug = true;
    config.num_ops = 5000;
    const DiffResult result = RunDifferential(config);
    EXPECT_FALSE(result.ok) << config.Summary() << ": injected admission bug not caught";
  }
}

// .diverge headers round-trip the policy-axis fields.
TEST(Differential, DivergeFileRoundTripsPolicyFields) {
  DiffConfig config;
  config.arch = Architecture::kUnified;
  config.replacement = ReplacementPolicy::kLruK;
  config.admission = AdmissionPolicy::kFlashield;
  config.inject_replacement_bug = true;
  config.inject_admission_bug = true;
  const std::vector<DiffOp> ops = {{DiffOpKind::kRead, 0, 42}, {DiffOpKind::kWrite, 0, 7}};
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "flashsim_policy_roundtrip.diverge";
  ASSERT_TRUE(WriteDivergeFile(path.string(), config, ops));
  DiffConfig loaded;
  std::vector<DiffOp> loaded_ops;
  ASSERT_TRUE(LoadDivergeFile(path.string(), &loaded, &loaded_ops));
  EXPECT_EQ(loaded.replacement, ReplacementPolicy::kLruK);
  EXPECT_EQ(loaded.admission, AdmissionPolicy::kFlashield);
  EXPECT_TRUE(loaded.inject_replacement_bug);
  EXPECT_TRUE(loaded.inject_admission_bug);
  ASSERT_EQ(loaded_ops.size(), 2u);
  EXPECT_EQ(loaded_ops[0].key, 42u);
  std::filesystem::remove(path);
}

// Geometry note: the subset-eviction bug only fires when flash evicts a
// block that is still RAM-resident, so RAM must cover most of flash.
DiffConfig BugConfig() {
  DiffConfig config;
  config.arch = Architecture::kNaive;
  config.ram_blocks = 32;
  config.flash_blocks = 40;
  config.key_space = 64;
  config.num_ops = 3000;
  config.inject_subset_eviction_bug = true;
  return config;
}

// The oracle must catch a real, deliberately-introduced eviction bug: the
// test seam makes EnsureFlashSlot skip dropping the evicted block's RAM
// copy, silently breaking RAM ⊆ flash.
TEST(Differential, InjectedSubsetEvictionBugDiverges) {
  for (Architecture arch : {Architecture::kNaive, Architecture::kLookaside}) {
    DiffConfig config = BugConfig();
    config.arch = arch;
    const DiffResult result = RunDifferential(config);
    EXPECT_FALSE(result.ok) << config.Summary() << ": injected bug not caught";
    EXPECT_FALSE(result.message.empty());
  }
}

TEST(Differential, DivergenceMinimizesAndRoundTrips) {
  const DiffConfig config = BugConfig();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "flashsim_diff_test";
  std::filesystem::remove_all(dir);

  const DiffResult result = RunDifferential(config, dir.string());
  ASSERT_FALSE(result.ok);
  ASSERT_FALSE(result.diverge_file.empty());
  ASSERT_TRUE(std::filesystem::exists(result.diverge_file));

  // The dumped file must load back to the same configuration and re-diverge.
  DiffConfig loaded;
  std::vector<DiffOp> ops;
  ASSERT_TRUE(LoadDivergeFile(result.diverge_file, &loaded, &ops));
  EXPECT_EQ(loaded.arch, config.arch);
  EXPECT_EQ(loaded.ram_blocks, config.ram_blocks);
  EXPECT_EQ(loaded.flash_blocks, config.flash_blocks);
  EXPECT_EQ(loaded.key_space, config.key_space);
  EXPECT_TRUE(loaded.inject_subset_eviction_bug);
  // Minimization shrank the schedule: the replay prefix ends at the
  // divergent op, and greedy chunk removal only ever removes ops.
  EXPECT_LT(ops.size(), config.num_ops);
  EXPECT_GT(ops.size(), 0u);

  const DiffResult replay = ReplayDivergeFile(result.diverge_file);
  EXPECT_FALSE(replay.ok);
  EXPECT_FALSE(replay.message.empty());

  std::filesystem::remove_all(dir);
}

TEST(Differential, MinimizedScheduleStillDiverges) {
  const DiffConfig config = BugConfig();
  const std::vector<DiffOp> full = GenerateSchedule(config);
  const DiffResult first = RunSchedule(config, full);
  ASSERT_FALSE(first.ok);
  std::vector<DiffOp> failing(full.begin(),
                              full.begin() + static_cast<long>(first.op_index) + 1);
  const std::vector<DiffOp> minimized = MinimizeSchedule(config, failing);
  EXPECT_LE(minimized.size(), failing.size());
  EXPECT_FALSE(RunSchedule(config, minimized).ok);
}

TEST(Differential, ReplayMissingFileFailsCleanly) {
  const DiffResult result = ReplayDivergeFile("/nonexistent/no.diverge");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.message.find("load:"), std::string::npos);
}

// Inputs that used to abort check_cli inside Directory's or LruBlockCache's
// constructor are reported instead, one sentence per broken rule.
TEST(Differential, ViolationsReportEachBadInput) {
  EXPECT_TRUE(DiffConfig().Violations().empty());
  const auto only = [](const DiffConfig& config, const std::string& expected) {
    const std::vector<std::string> violations = config.Violations();
    ASSERT_EQ(violations.size(), 1u) << expected;
    EXPECT_NE(violations[0].find(expected), std::string::npos) << violations[0];
  };
  {
    DiffConfig config;
    config.num_hosts = 0;
    only(config, "hosts must be in [1, 4096], got 0");
  }
  {
    DiffConfig config;
    config.num_hosts = 5000;
    only(config, "hosts must be in [1, 4096], got 5000");
  }
  {
    DiffConfig config;
    config.ram_blocks = uint64_t{1} << 32;
    only(config, "RAM + flash must be at most 2^31 blocks");
  }
  {
    // A sum that would wrap around to a small number is still too large.
    DiffConfig config;
    config.ram_blocks = 2;
    config.flash_blocks = UINT64_MAX - 1;
    only(config, "RAM + flash must be at most 2^31 blocks");
  }
  {
    DiffConfig config;
    config.admission = AdmissionPolicy::kFlashield;
    only(config, "naive architecture requires admission=all");
  }
  DiffConfig lookaside;
  lookaside.arch = Architecture::kLookaside;
  lookaside.admission = AdmissionPolicy::kFlashield;
  EXPECT_TRUE(lookaside.Violations().empty());
}

// A hand-written .diverge file that declares a configuration the rig
// cannot build fails to load, and its replay reports why.
TEST(Differential, ReplayRefusesABadDivergeFile) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "flashsim_bad_header.diverge";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"arch lookaside\nhosts 0\n", "hosts must be in [1, 4096], got 0"},
      {"arch lookaside\nhosts 5000\n", "hosts must be in [1, 4096], got 5000"},
      {"arch lookaside\nram_blocks 4294967296\n", "RAM + flash must be at most 2^31 blocks"},
      {"arch naive\nadmission flashield\n", "naive architecture requires admission=all"},
  };
  for (const auto& [header, expected] : cases) {
    {
      std::ofstream out(path);
      out << "flashsim-diverge v1\n" << header << "ops 1\nr 0 7\n";
    }
    DiffConfig config;
    std::vector<DiffOp> ops;
    EXPECT_FALSE(LoadDivergeFile(path.string(), &config, &ops)) << header;
    const DiffResult result = ReplayDivergeFile(path.string());
    EXPECT_FALSE(result.ok) << header;
    EXPECT_EQ(result.message.rfind("load:", 0), 0u) << result.message;
    EXPECT_NE(result.message.find(expected), std::string::npos) << result.message;
  }
  std::filesystem::remove(path);
}

TEST(Differential, SameSeedSameSchedule) {
  DiffConfig config;
  config.num_ops = 500;
  const std::vector<DiffOp> a = GenerateSchedule(config);
  const std::vector<DiffOp> b = GenerateSchedule(config);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].host, b[i].host);
    EXPECT_EQ(a[i].key, b[i].key);
  }
  config.seed = 2;
  const std::vector<DiffOp> c = GenerateSchedule(config);
  bool any_different = c.size() != a.size();
  for (size_t i = 0; !any_different && i < a.size(); ++i) {
    any_different = a[i].kind != c[i].kind || a[i].key != c[i].key;
  }
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace flashsim
