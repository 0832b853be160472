// Property-based churn over every architecture and replacement policy:
// cache structures stay consistent, residency respects capacity, Holds()
// agrees with hit levels, time never runs backwards, and the
// InvariantAuditor's accounting and structural checks hold after every
// operation.
#include <gtest/gtest.h>

#include "src/check/audit.h"
#include "tests/stack_test_util.h"

namespace flashsim {
namespace {

struct PropertyCase {
  Architecture arch;
  uint64_t ram_blocks;
  uint64_t flash_blocks;
  WritebackPolicy ram_policy;
  WritebackPolicy flash_policy;
  ReplacementPolicy replacement = ReplacementPolicy::kLru;
  AdmissionPolicy admission = AdmissionPolicy::kAll;
};

class StackPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(StackPropertyTest, RandomChurnPreservesInvariants) {
  const PropertyCase& c = GetParam();
  StackHarness h(c.arch, c.ram_blocks, c.flash_blocks, c.ram_policy, c.flash_policy,
                 c.replacement, c.admission);
  InvariantAuditor auditor(c.arch, 1, CoherenceModel::kPerfect);
  Rng rng(0xfeedULL + static_cast<uint64_t>(c.arch) * 131 + c.ram_blocks +
          static_cast<uint64_t>(c.replacement) * 7919);
  SimTime t = 0;
  uint64_t reads = 0;
  uint64_t hits = 0;
  for (int i = 0; i < 8000; ++i) {
    const BlockKey key = rng.NextBounded(3 * (c.ram_blocks + c.flash_blocks) + 8);
    const SimTime before = t;
    const int action = static_cast<int>(rng.NextBounded(10));
    if (action < 4) {
      HitLevel level;
      const bool held = h.stack().Holds(key);
      t = h.Read(t, key, &level);
      auditor.OnBlockOp(0, /*is_read=*/true);
      ++reads;
      // A block the union cache holds must never be served by the filer.
      if (held) {
        ASSERT_NE(level, HitLevel::kFilerFast) << "i=" << i;
        ASSERT_NE(level, HitLevel::kFilerSlow) << "i=" << i;
        ++hits;
      }
      // After a read the block is resident (if there is any cache at all).
      // Exception: the unified stack has a single cache, so an admission
      // veto on a first-touch miss legitimately leaves the block uncached.
      if (c.ram_blocks + c.flash_blocks > 0 &&
          !(c.arch == Architecture::kUnified && c.admission == AdmissionPolicy::kFlashield)) {
        ASSERT_TRUE(h.stack().Holds(key));
      }
    } else if (action < 7) {
      t = h.Write(t, key);
      auditor.OnBlockOp(0, /*is_read=*/false);
    } else if (action == 7) {
      h.stack().Invalidate(key);
      ASSERT_FALSE(h.stack().Holds(key));
    } else if (action == 8) {
      if (auto done = h.stack().FlushOneRamBlock(t)) {
        ASSERT_GE(*done, t);
      }
    } else {
      if (auto done = h.stack().FlushOneFlashBlock(t)) {
        ASSERT_GE(*done, t);
      }
    }
    ASSERT_GE(t, before) << "time ran backwards at op " << i;
    ASSERT_LE(h.stack().RamResident(), c.ram_blocks + c.flash_blocks);
    ASSERT_LE(h.stack().FlashResident(), c.flash_blocks == 0 && c.arch != Architecture::kUnified
                                             ? 0
                                             : c.ram_blocks + c.flash_blocks);
    auditor.AuditCounters(0, h.stack(), h.writer());
    if (i % 500 == 0) {
      auditor.AuditStructure(0, h.stack(), /*directory=*/nullptr);
    }
  }
  auditor.AuditStructure(0, h.stack(), /*directory=*/nullptr);
  EXPECT_EQ(auditor.counter_audits(), 8000u);
  h.queue().RunToCompletion();
  if (c.ram_blocks + c.flash_blocks > 8) {
    EXPECT_GT(hits, 0u) << "cache never hit in " << reads << " reads";
  }
  // Dirty data is bounded by total capacity.
  EXPECT_LE(h.stack().DirtyBlocks(), c.ram_blocks + c.flash_blocks);
}

std::string CaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  const PropertyCase& c = info.param;
  std::string name = ArchitectureName(c.arch);
  name += "_r" + std::to_string(c.ram_blocks) + "_f" + std::to_string(c.flash_blocks);
  name += "_";
  name += PolicyName(c.ram_policy);
  name += "_";
  name += PolicyName(c.flash_policy);
  if (c.replacement != ReplacementPolicy::kLru) {
    name += "_";
    name += ReplacementPolicyName(c.replacement);
  }
  if (c.admission != AdmissionPolicy::kAll) {
    name += "_";
    name += AdmissionPolicyName(c.admission);
  }
  return name;
}

// Every replacement policy on every architecture (and the flashield
// admission filter where it is legal: lookaside/unified with flash).
std::vector<PropertyCase> PolicyZooCases() {
  std::vector<PropertyCase> cases;
  for (Architecture arch : kAllArchitectures) {
    for (ReplacementPolicy replacement : kAllReplacementPolicies) {
      cases.push_back(PropertyCase{arch, 8, 32, WritebackPolicy::kPeriodic1,
                                   WritebackPolicy::kAsync, replacement});
      // Tiny capacities shake out segment/tick boundary bugs.
      cases.push_back(PropertyCase{arch, 1, 3, WritebackPolicy::kNone, WritebackPolicy::kNone,
                                   replacement});
    }
  }
  for (Architecture arch : {Architecture::kLookaside, Architecture::kUnified}) {
    for (ReplacementPolicy replacement : kAllReplacementPolicies) {
      cases.push_back(PropertyCase{arch, 8, 32, WritebackPolicy::kPeriodic1,
                                   WritebackPolicy::kAsync, replacement,
                                   AdmissionPolicy::kFlashield});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StackPropertyTest,
    ::testing::Values(
        PropertyCase{Architecture::kNaive, 8, 64, WritebackPolicy::kPeriodic1,
                     WritebackPolicy::kAsync},
        PropertyCase{Architecture::kNaive, 1, 4, WritebackPolicy::kNone, WritebackPolicy::kNone},
        PropertyCase{Architecture::kNaive, 0, 32, WritebackPolicy::kAsync,
                     WritebackPolicy::kPeriodic5},
        PropertyCase{Architecture::kNaive, 16, 0, WritebackPolicy::kPeriodic1,
                     WritebackPolicy::kAsync},
        PropertyCase{Architecture::kNaive, 4, 4, WritebackPolicy::kSync, WritebackPolicy::kSync},
        PropertyCase{Architecture::kLookaside, 8, 64, WritebackPolicy::kPeriodic1,
                     WritebackPolicy::kAsync},
        PropertyCase{Architecture::kLookaside, 2, 8, WritebackPolicy::kNone,
                     WritebackPolicy::kNone},
        PropertyCase{Architecture::kLookaside, 0, 16, WritebackPolicy::kAsync,
                     WritebackPolicy::kAsync},
        PropertyCase{Architecture::kUnified, 8, 64, WritebackPolicy::kPeriodic1,
                     WritebackPolicy::kAsync},
        PropertyCase{Architecture::kUnified, 1, 8, WritebackPolicy::kNone,
                     WritebackPolicy::kNone},
        PropertyCase{Architecture::kUnified, 0, 16, WritebackPolicy::kSync,
                     WritebackPolicy::kPeriodic15},
        PropertyCase{Architecture::kUnified, 16, 0, WritebackPolicy::kPeriodic1,
                     WritebackPolicy::kPeriodic1}),
    CaseName);

INSTANTIATE_TEST_SUITE_P(PolicyZoo, StackPropertyTest, ::testing::ValuesIn(PolicyZooCases()),
                         CaseName);

}  // namespace
}  // namespace flashsim
