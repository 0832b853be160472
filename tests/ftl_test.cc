#include "src/ftl/ftl.h"

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace flashsim {
namespace {

FtlParams SmallParams(uint64_t logical_pages = 256) {
  FtlParams params;
  params.logical_pages = logical_pages;
  params.pages_per_block = 16;
  params.overprovision = 0.25;
  return params;
}

TEST(Ftl, FirstWriteCostsOneProgram) {
  Ftl ftl(SmallParams());
  const FtlCost cost = ftl.Write(0);
  EXPECT_EQ(cost.page_programs, 1u);
  EXPECT_EQ(cost.block_erases, 0u);
  EXPECT_EQ(ftl.host_writes(), 1u);
  EXPECT_EQ(ftl.total_programs(), 1u);
  ftl.CheckInvariants();
}

TEST(Ftl, SequentialFillNeedsNoGc) {
  Ftl ftl(SmallParams());
  for (uint64_t lpn = 0; lpn < 256; ++lpn) {
    ftl.Write(lpn);
  }
  EXPECT_EQ(ftl.total_erases(), 0u);
  EXPECT_DOUBLE_EQ(ftl.write_amplification(), 1.0);
  ftl.CheckInvariants();
}

TEST(Ftl, OverwritesInvalidateOldVersions) {
  Ftl ftl(SmallParams());
  ftl.Write(5);
  ftl.Write(5);
  ftl.Write(5);
  EXPECT_EQ(ftl.host_writes(), 3u);
  ftl.CheckInvariants();  // exactly one live mapping for lpn 5
}

TEST(Ftl, SustainedOverwriteTriggersGc) {
  Ftl ftl(SmallParams());
  Rng rng(1);
  // Fill, then churn well past the raw capacity.
  for (int i = 0; i < 5000; ++i) {
    ftl.Write(rng.NextBounded(256));
  }
  EXPECT_GT(ftl.total_erases(), 0u);
  EXPECT_GT(ftl.write_amplification(), 1.0);
  ftl.CheckInvariants();
}

TEST(Ftl, HotColdSkewKeepsWriteAmplificationModerate) {
  // Greedy GC on skewed traffic: WA must stay well below the worst case.
  Ftl ftl(SmallParams(1024));
  Rng rng(2);
  for (int i = 0; i < 60000; ++i) {
    // 90% of writes to 10% of pages.
    const uint64_t lpn =
        rng.NextBool(0.9) ? rng.NextBounded(102) : 102 + rng.NextBounded(922);
    ftl.Write(lpn);
  }
  EXPECT_LT(ftl.write_amplification(), 4.0);
  ftl.CheckInvariants();
}

TEST(Ftl, TrimFreesPagesWithoutRelocation) {
  // The caching-FTL claim (§8 / FlashTier): trimming dead data before GC
  // reaches it eliminates relocations. Alternate writes with trims so the
  // device never holds live data beyond a small set.
  FtlParams params = SmallParams(512);
  params.overprovision = 0.10;
  Ftl with_trim(params);
  Ftl without_trim(params);
  Rng rng(3);
  uint64_t previous = UINT64_MAX;
  for (int i = 0; i < 40000; ++i) {
    const uint64_t lpn = rng.NextBounded(512);
    with_trim.Write(lpn);
    without_trim.Write(lpn);
    if (previous != UINT64_MAX && previous != lpn) {
      with_trim.Trim(previous);  // the cache evicted it
    }
    previous = lpn;
  }
  EXPECT_LT(with_trim.write_amplification(), without_trim.write_amplification());
  EXPECT_LT(with_trim.relocated_pages(), without_trim.relocated_pages());
  with_trim.CheckInvariants();
  without_trim.CheckInvariants();
}

TEST(Ftl, TrimIsIdempotentAndUnmappedTrimIsFree) {
  Ftl ftl(SmallParams());
  ftl.Trim(7);  // never written
  ftl.Write(7);
  ftl.Trim(7);
  ftl.Trim(7);
  ftl.CheckInvariants();
  // A trimmed page can be rewritten.
  ftl.Write(7);
  ftl.CheckInvariants();
}

TEST(Ftl, WearStaysBoundedUnderUniformChurn) {
  FtlParams params = SmallParams(512);
  Ftl ftl(params);
  Rng rng(4);
  for (int i = 0; i < 80000; ++i) {
    ftl.Write(rng.NextBounded(512));
  }
  // Uniform traffic with greedy GC spreads erases reasonably evenly.
  EXPECT_GT(ftl.mean_erase_count(), 0.0);
  EXPECT_LT(static_cast<double>(ftl.max_erase_count()), 4.0 * ftl.mean_erase_count());
}

TEST(Ftl, WearWeightReducesMaxWearUnderSkew) {
  // Static-wear-leveling-lite: biasing victim selection by erase count must
  // not make the wear spread worse on hot/cold traffic.
  auto run = [](double wear_weight) {
    FtlParams params = SmallParams(1024);
    params.wear_weight = wear_weight;
    Ftl ftl(params);
    Rng rng(5);
    for (int i = 0; i < 120000; ++i) {
      const uint64_t lpn =
          rng.NextBool(0.95) ? rng.NextBounded(64) : 64 + rng.NextBounded(960);
      ftl.Write(lpn);
    }
    return static_cast<double>(ftl.max_erase_count()) / ftl.mean_erase_count();
  };
  const double greedy_spread = run(0.0);
  const double leveled_spread = run(4.0);
  EXPECT_LE(leveled_spread, greedy_spread * 1.10);
}

TEST(Ftl, DeterministicGivenSameSequence) {
  Ftl a(SmallParams());
  Ftl b(SmallParams());
  Rng rng(6);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t lpn = rng.NextBounded(256);
    const FtlCost ca = a.Write(lpn);
    const FtlCost cb = b.Write(lpn);
    ASSERT_EQ(ca.page_programs, cb.page_programs);
    ASSERT_EQ(ca.page_reads, cb.page_reads);
    ASSERT_EQ(ca.block_erases, cb.block_erases);
  }
  EXPECT_EQ(a.total_erases(), b.total_erases());
}

TEST(Ftl, AccountingIsConsistent) {
  Ftl ftl(SmallParams());
  Rng rng(7);
  for (int i = 0; i < 30000; ++i) {
    ftl.Write(rng.NextBounded(256));
  }
  // Programs = host writes + relocations.
  EXPECT_EQ(ftl.total_programs(), ftl.host_writes() + ftl.relocated_pages());
  // Free blocks never exhausted below the invariant floor.
  EXPECT_GE(ftl.free_blocks(), 1u);
  ftl.CheckInvariants();
}

TEST(FtlDeathTest, OutOfRangePageAborts) {
  Ftl ftl(SmallParams(16));
  EXPECT_DEATH(ftl.Write(16), "CHECK failed");
  EXPECT_DEATH(ftl.Trim(16), "CHECK failed");
}

}  // namespace
}  // namespace flashsim
