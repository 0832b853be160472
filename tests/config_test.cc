#include "src/core/config.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "src/consistency/directory.h"
#include "src/core/experiment.h"

namespace flashsim {
namespace {

TEST(SimConfig, PaperBaselineDefaults) {
  SimConfig config;
  EXPECT_EQ(config.block_bytes, 4096u);
  EXPECT_EQ(config.ram_bytes, 8 * kGiB);
  EXPECT_EQ(config.flash_bytes, 64 * kGiB);
  EXPECT_EQ(config.num_hosts, 1);
  EXPECT_EQ(config.threads_per_host, 8);
  EXPECT_EQ(config.arch, Architecture::kNaive);
  EXPECT_EQ(config.ram_policy, WritebackPolicy::kPeriodic1);
  EXPECT_EQ(config.flash_policy, WritebackPolicy::kAsync);
}

TEST(SimConfig, BlockConversions) {
  SimConfig config;
  EXPECT_EQ(config.ram_blocks(), 8 * kGiB / 4096);
  EXPECT_EQ(config.flash_blocks(), 64 * kGiB / 4096);
  config.ram_bytes = 256 * kKiB;
  EXPECT_EQ(config.ram_blocks(), 64u);
}

TEST(SimConfig, ValidateAcceptsDefaults) {
  SimConfig config;
  config.Validate();  // must not abort
}

TEST(SimConfigDeathTest, ValidateRejectsBadValues) {
  {
    SimConfig config;
    config.num_hosts = 0;
    EXPECT_DEATH(config.Validate(), "CHECK failed");
  }
  {
    SimConfig config;
    // 100 hosts died under the old one-word directory bitmask; the slot-
    // mode directory allows fleets up to kMaxHosts.
    config.num_hosts = Directory::kMaxHosts + 1;
    EXPECT_DEATH(config.Validate(), "CHECK failed");
  }
  {
    SimConfig config;
    config.timing.filer_fast_read_rate = 1.5;
    EXPECT_DEATH(config.Validate(), "CHECK failed");
  }
  {
    SimConfig config;
    config.threads_per_host = 0;
    EXPECT_DEATH(config.Validate(), "CHECK failed");
  }
}

TEST(SimConfigDeathTest, ValidateRejectsBadShardCounts) {
  {
    SimConfig config;
    config.num_filers = 0;
    EXPECT_DEATH(config.Validate(), "CHECK failed");
  }
  {
    SimConfig config;
    config.num_filers = -1;
    EXPECT_DEATH(config.Validate(), "CHECK failed");
  }
  {
    // Shard counts above the router's map width are not representable.
    SimConfig config;
    config.num_filers = ShardRouter::kMaxShards + 1;
    EXPECT_DEATH(config.Validate(), "CHECK failed");
  }
}

TEST(SimConfig, ValidateAcceptsShardCountRange) {
  for (int filers : {1, 2, ShardRouter::kMaxShards}) {
    SimConfig config;
    config.num_filers = filers;
    config.Validate();  // must not abort
  }
}

// Each rule, broken alone, yields exactly one violation naming it; the
// defaults break none.
TEST(SimConfig, ViolationsNameEachBrokenRule) {
  EXPECT_TRUE(SimConfig().Violations().empty());
  struct Case {
    const char* expected;  // substring of the one violation
    std::function<void(SimConfig&)> breaks;
  };
  const std::vector<Case> cases = {
      {"block size must be positive", [](SimConfig& c) { c.block_bytes = 0; }},
      {"hosts must be in [1, 4096], got 0", [](SimConfig& c) { c.num_hosts = 0; }},
      {"hosts must be in [1, 4096], got 5000", [](SimConfig& c) { c.num_hosts = 5000; }},
      {"threads per host must be in [1, 65535], got 0",
       [](SimConfig& c) { c.threads_per_host = 0; }},
      {"threads per host must be in [1, 65535], got 65536",
       [](SimConfig& c) { c.threads_per_host = 65536; }},
      {"filers must be in [1, 64], got 65",
       [](SimConfig& c) { c.num_filers = ShardRouter::kMaxShards + 1; }},
      {"RAM + flash per host must be at most 2^31 blocks",
       [](SimConfig& c) { c.flash_bytes = (LruBlockCache::kMaxCapacity + 1) * c.block_bytes; }},
      {"naive architecture requires admission=all",
       [](SimConfig& c) { c.admission = AdmissionPolicy::kFlashield; }},
      {"RAM access time must not be negative", [](SimConfig& c) { c.timing.ram_access_ns = -1; }},
      {"flash read and write times must not be negative",
       [](SimConfig& c) { c.timing.flash_write_ns = -1; }},
      {"filer fast-read rate must be in [0, 1]",
       [](SimConfig& c) { c.timing.filer_fast_read_rate = 1.5; }},
      {"filer concurrency must be at least 1",
       [](SimConfig& c) { c.timing.filer_concurrency = 0; }},
      {"flash noise sigma must be finite and at least 0, got inf",
       [](SimConfig& c) {
         c.timing.flash_noise_sigma = std::numeric_limits<double>::infinity();
       }},
      {"flash noise sigma must be finite and at least 0, got -0.5",
       [](SimConfig& c) { c.timing.flash_noise_sigma = -0.5; }},
      {"coherence control-message time must not be negative",
       [](SimConfig& c) { c.timing.coherence_ctrl_ns = -1; }},
      {"coherence=lease requires a positive lease time",
       [](SimConfig& c) {
         c.coherence = CoherenceModel::kLease;
         c.timing.lease_ns = 0;
       }},
  };
  for (const Case& c : cases) {
    SimConfig config;
    c.breaks(config);
    const std::vector<std::string> violations = config.Violations();
    ASSERT_EQ(violations.size(), 1u) << c.expected;
    EXPECT_NE(violations[0].find(c.expected), std::string::npos)
        << "got: " << violations[0] << "\nwant: " << c.expected;
  }
}

// With the FTL on, each bad FTL parameter is one violation instead of an
// abort in Ftl's constructor (or, for a NaN wear weight, a silently
// index-ordered GC).
TEST(SimConfig, ViolationsNameEachBadFtlParameter) {
  struct Case {
    const char* expected;  // substring of the one violation
    std::function<void(TimingModel&)> breaks;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Case> cases = {
      {"FTL overprovision must be finite and above 0, got 0",
       [](TimingModel& t) { t.ftl_overprovision = 0.0; }},
      {"FTL overprovision must be finite and above 0, got -0.5",
       [](TimingModel& t) { t.ftl_overprovision = -0.5; }},
      {"FTL overprovision must be finite and above 0, got nan",
       [nan](TimingModel& t) { t.ftl_overprovision = nan; }},
      {"FTL overprovision must be finite and above 0, got inf",
       [inf](TimingModel& t) { t.ftl_overprovision = inf; }},
      {"FTL pages per block must be at least 1",
       [](TimingModel& t) { t.ftl_pages_per_block = 0; }},
      {"FTL wear weight must be finite and at least 0, got -1",
       [](TimingModel& t) { t.ftl_wear_weight = -1.0; }},
      {"FTL wear weight must be finite and at least 0, got nan",
       [nan](TimingModel& t) { t.ftl_wear_weight = nan; }},
      {"FTL wear weight must be finite and at least 0, got inf",
       [inf](TimingModel& t) { t.ftl_wear_weight = inf; }},
      {"FTL page read, page program and block erase times must not be negative",
       [](TimingModel& t) { t.ftl_page_read_ns = -1; }},
      {"FTL page read, page program and block erase times must not be negative",
       [](TimingModel& t) { t.ftl_page_program_ns = -1; }},
      {"FTL page read, page program and block erase times must not be negative",
       [](TimingModel& t) { t.ftl_block_erase_ns = -1; }},
  };
  SimConfig ftl;
  ftl.timing.use_ftl = true;
  EXPECT_TRUE(ftl.Violations().empty());
  for (const Case& c : cases) {
    SimConfig config;
    config.timing.use_ftl = true;
    c.breaks(config.timing);
    const std::vector<std::string> violations = config.Violations();
    ASSERT_EQ(violations.size(), 1u) << c.expected;
    EXPECT_NE(violations[0].find(c.expected), std::string::npos)
        << "got: " << violations[0] << "\nwant: " << c.expected;
    // The average-latency device never builds an FTL, so the same values
    // are harmless without it.
    config.timing.use_ftl = false;
    EXPECT_TRUE(config.Violations().empty()) << c.expected;
  }
  // Through the front ends' entry point too.
  ExperimentParams params;
  params.timing.use_ftl = true;
  params.timing.ftl_wear_weight = nan;
  const std::vector<std::string> violations = ParamsViolations(params, true);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("FTL wear weight"), std::string::npos) << violations[0];
}

// The footprint estimate on one small config, summed by hand from the
// per-block sizes: 33 bytes of slot records per cached block (16 hot,
// 1 flags, 16 cold), an 8-byte index entry per slot of a power-of-two index
// at least twice the capacity, and 16-byte directory slots, ceil(8n/7) of
// them for n = (RAM + flash) x hosts.
TEST(SimConfig, MetadataEstimatePinsItsFormula) {
  SimConfig config;
  config.ram_bytes = 64 * 4096;
  config.flash_bytes = 256 * 4096;
  config.num_hosts = 2;
  config.arch = Architecture::kNaive;
  const uint64_t ram_cache = 64 * 33 + 128 * 8;      // 3136
  const uint64_t flash_cache = 256 * 33 + 512 * 8;   // 12544
  const uint64_t directory = (8 * 640 + 6) / 7 * 16;  // 732 slots: 11712
  EXPECT_EQ(config.MetadataBytes(), 2 * (ram_cache + flash_cache) + directory);
  EXPECT_EQ(config.MetadataBytes(), 43072u);
  // Unified: one cache over both tiers.
  config.arch = Architecture::kUnified;
  EXPECT_EQ(config.MetadataBytes(), 2 * (320 * 33 + 1024 * 8) + directory);
  // One host keeps no directory.
  config.arch = Architecture::kNaive;
  config.num_hosts = 1;
  EXPECT_EQ(config.MetadataBytes(), ram_cache + flash_cache);
}

TEST(SimConfig, ViolationsReportEveryBrokenRule) {
  SimConfig config;
  config.num_hosts = 0;
  config.threads_per_host = 0;
  config.admission = AdmissionPolicy::kFlashield;
  EXPECT_EQ(config.Violations().size(), 3u);
}

// The inputs that used to abort flashsim_cli are reported instead, before
// anything is built.
TEST(ParamsViolations, ReportsBadFlagCombinations) {
  const auto only = [](const ExperimentParams& params, const std::string& expected) {
    const std::vector<std::string> violations = ParamsViolations(params, true);
    ASSERT_EQ(violations.size(), 1u) << expected;
    EXPECT_NE(violations[0].find(expected), std::string::npos) << violations[0];
  };
  EXPECT_TRUE(ParamsViolations(ExperimentParams(), true).empty());
  {
    ExperimentParams params;
    params.admission = AdmissionPolicy::kFlashield;
    only(params, "naive architecture requires admission=all");
  }
  {
    // flashsim_cli --flash-noise=inf: the lognormal factor would be NaN.
    ExperimentParams params;
    params.timing.flash_noise_sigma = std::numeric_limits<double>::infinity();
    only(params, "flash noise sigma must be finite and at least 0, got inf");
  }
  {
    ExperimentParams params;
    params.hosts = 5000;
    only(params, "hosts must be in [1, 4096], got 5000");
  }
  {
    ExperimentParams params;
    params.threads_per_host = 0;
    only(params, "threads per host must be in [1, 65535], got 0");
  }
  {
    // flashsim_cli --hosts=4096 --scale=1 died in std::bad_alloc: its cache
    // metadata alone is terabytes.
    ExperimentParams params;
    params.hosts = 4096;
    params.scale = 1;
    ASSERT_GT(BuildSimConfig(params).MetadataBytes(), uint64_t{1} << 42);
    only(params, "exceeds physical memory");
  }
  {
    ExperimentParams params;
    params.ram_gib = -1;
    only(params, "RAM size must be in [0, 1e9] GiB, got -1");
  }
  {
    ExperimentParams params;
    params.scale = 0;
    only(params, "scale must be at least 1");
  }
  {
    ExperimentParams params;
    params.write_fraction = 1.5;
    only(params, "write fraction must be in [0, 1], got 1.5");
  }
  {
    ExperimentParams params;
    params.working_set_gib = 4096.0;
    params.filer_tib = 1.0;
    only(params, "must be smaller than the file server");
    // A replayed trace file never samples the file server.
    EXPECT_TRUE(ParamsViolations(params, false).empty());
  }
}

TEST(SimConfig, SummaryDescribesConfiguration) {
  SimConfig config;
  const std::string summary = config.Summary();
  EXPECT_NE(summary.find("naive"), std::string::npos);
  EXPECT_NE(summary.find("ram=8.0G"), std::string::npos);
  EXPECT_NE(summary.find("flash=64.0G"), std::string::npos);
  EXPECT_NE(summary.find("ram_policy=p1"), std::string::npos);
  EXPECT_NE(summary.find("flash_policy=a"), std::string::npos);
  EXPECT_EQ(summary.find("persistent"), std::string::npos);
  config.timing.persistent_flash = true;
  EXPECT_NE(config.Summary().find("persistent"), std::string::npos);
}

TEST(ArchitectureNames, RoundTrip) {
  for (Architecture arch : kAllArchitectures) {
    const auto parsed = ParseArchitecture(ArchitectureName(arch));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, arch);
  }
  EXPECT_FALSE(ParseArchitecture("bogus").has_value());
}

}  // namespace
}  // namespace flashsim
