#include <gtest/gtest.h>

#include "tests/stack_test_util.h"

namespace flashsim {
namespace {

TEST(LookasideStack, ReadPathMatchesNaive) {
  StackHarness h(Architecture::kLookaside, 8, 16, WritebackPolicy::kPeriodic1,
                 WritebackPolicy::kAsync);
  HitLevel level;
  SimTime t = h.Read(0, 1, &level);
  EXPECT_EQ(level, HitLevel::kFilerFast);
  EXPECT_EQ(t, kRemoteRead + kRam);
  const SimTime start = t;
  t = h.Read(t, 1, &level);
  EXPECT_EQ(level, HitLevel::kRam);
  EXPECT_EQ(t - start, kRam);
}

TEST(LookasideStack, SyncWriteBlocksToFilerNotFlash) {
  StackHarness h(Architecture::kLookaside, 8, 16, WritebackPolicy::kSync,
                 WritebackPolicy::kAsync);
  const SimTime done = h.Write(0, 5);
  // RAM copy + synchronous FILER write (not flash: writes bypass the flash).
  EXPECT_EQ(done, kRam + kRemoteWrite);
  EXPECT_EQ(h.filer().writes(), 1u);
  // Flash copy refreshed after the filer write; never dirty.
  EXPECT_EQ(h.stack().DirtyBlocks(), 0u);
  EXPECT_GE(h.flash_dev().busy_time(), kFlashWrite);
}

TEST(LookasideStack, FlashNeverDirtyUnderAnyPolicy) {
  for (WritebackPolicy ram_policy : kAllWritebackPolicies) {
    StackHarness h(Architecture::kLookaside, 4, 8, ram_policy, WritebackPolicy::kNone);
    SimTime t = 0;
    for (BlockKey key = 1; key <= 12; ++key) {
      t = h.Write(t, key);
      t = h.Read(t, key);
    }
    while (const std::optional<SimTime> done = h.stack().FlushOneRamBlock(t)) {
      t = *done;
    }
    h.queue().RunToCompletion();
    // All dirtiness lives in RAM only; the flash tier holds no dirty data.
    const auto& stack = static_cast<LookasideStack&>(h.stack());
    EXPECT_EQ(stack.flash_cache().dirty_count(), 0u) << PolicyName(ram_policy);
    h.stack().CheckInvariants();
  }
}

TEST(LookasideStack, PeriodicWriteIsRamSpeed) {
  StackHarness h(Architecture::kLookaside, 8, 16, WritebackPolicy::kPeriodic1,
                 WritebackPolicy::kAsync);
  EXPECT_EQ(h.Write(0, 5), kRam);
  EXPECT_EQ(h.stack().DirtyBlocks(), 1u);
}

TEST(LookasideStack, SyncerFlushesRamDirectlyToFiler) {
  StackHarness h(Architecture::kLookaside, 8, 16, WritebackPolicy::kPeriodic1,
                 WritebackPolicy::kAsync);
  h.Write(0, 5);
  auto done = h.stack().FlushOneRamBlock(1000);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(*done - 1000, kRemoteWrite);
  EXPECT_EQ(h.filer().writes(), 1u);
  EXPECT_EQ(h.stack().DirtyBlocks(), 0u);
}

TEST(LookasideStack, AsyncWriteDrainsThroughWriterAndRefreshesFlash) {
  StackHarness h(Architecture::kLookaside, 8, 16, WritebackPolicy::kAsync,
                 WritebackPolicy::kAsync);
  const SimTime done = h.Write(0, 5);
  EXPECT_EQ(done, kRam);  // application sees RAM speed
  h.queue().RunToCompletion();
  EXPECT_EQ(h.filer().writes(), 1u);
  EXPECT_GE(h.flash_dev().busy_time(), kFlashWrite);  // refresh happened
  EXPECT_EQ(h.stack().DirtyBlocks(), 0u);
}

TEST(LookasideStack, DirtyRamEvictionPaysFilerWrite) {
  StackHarness h(Architecture::kLookaside, 1, 16, WritebackPolicy::kNone,
                 WritebackPolicy::kNone);
  SimTime t = h.Write(0, 1);
  const SimTime start = t;
  t = h.Write(t, 2);  // evicts dirty block 1 -> synchronous filer write
  EXPECT_EQ(t - start, kRemoteWrite + kRam);
  EXPECT_EQ(h.stack().counters().sync_ram_evictions, 1u);
}

TEST(LookasideStack, FlashEvictionIsFree) {
  // Flash never dirty, so flash evictions never cost a writeback.
  StackHarness h(Architecture::kLookaside, 1, 2, WritebackPolicy::kSync,
                 WritebackPolicy::kNone);
  SimTime t = h.Write(0, 1);
  t = h.Write(t, 2);
  const SimTime start = t;
  t = h.Write(t, 3);  // flash evicts block 1; clean, no filer writeback charge
  EXPECT_EQ(t - start, kRam + kRemoteWrite);  // just this write's own sync writeback
  EXPECT_EQ(h.stack().counters().sync_flash_evictions, 0u);
}

TEST(LookasideStack, NoRamWriteIsSynchronousFilerPlusFlashRefresh) {
  StackHarness h(Architecture::kLookaside, 0, 16, WritebackPolicy::kPeriodic1,
                 WritebackPolicy::kAsync);
  const SimTime done = h.Write(0, 1);
  EXPECT_EQ(done, kRemoteWrite);
  EXPECT_TRUE(h.stack().Holds(1));
  EXPECT_EQ(h.stack().DirtyBlocks(), 0u);
}

TEST(LookasideStack, PersistenceGuaranteeMatchesNoFlashSystem) {
  // §3.3: applications see persistence guarantees identical to a system
  // without flash — after any write completes under sync policy, the data
  // is at the filer.
  StackHarness with_flash(Architecture::kLookaside, 4, 16, WritebackPolicy::kSync,
                          WritebackPolicy::kAsync);
  StackHarness no_flash(Architecture::kLookaside, 4, 0, WritebackPolicy::kSync,
                        WritebackPolicy::kAsync);
  with_flash.Write(0, 1);
  no_flash.Write(0, 1);
  EXPECT_EQ(with_flash.filer().writes(), 1u);
  EXPECT_EQ(no_flash.filer().writes(), 1u);
}

TEST(LookasideStack, SubsetInvariantUnderChurn) {
  StackHarness h(Architecture::kLookaside, 4, 8, WritebackPolicy::kPeriodic1,
                 WritebackPolicy::kAsync);
  Rng rng(4);
  SimTime t = 0;
  for (int i = 0; i < 5000; ++i) {
    const BlockKey key = rng.NextBounded(30);
    t = rng.NextBool(0.4) ? h.Write(t, key) : h.Read(t, key);
    if (i % 250 == 0) {
      h.stack().CheckInvariants();
    }
  }
  h.queue().RunToCompletion();
  h.stack().CheckInvariants();
}

}  // namespace
}  // namespace flashsim
