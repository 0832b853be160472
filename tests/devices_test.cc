#include <gtest/gtest.h>

#include "src/backend/storage_backend.h"
#include "src/device/background_writer.h"
#include "src/device/filer.h"
#include "src/device/flash_device.h"
#include "src/device/network_link.h"
#include "src/device/ram_device.h"
#include "src/sim/event_queue.h"

namespace flashsim {
namespace {

TimingModel TestTiming() {
  TimingModel t;  // Table 1 values
  return t;
}

TEST(RamDevice, ChargesFixedAccess) {
  TimingModel t = TestTiming();
  RamDevice ram(t);
  EXPECT_EQ(ram.Read(1000), 1400);
  EXPECT_EQ(ram.Write(1400), 1800);
  EXPECT_EQ(ram.accesses(), 2u);
}

TEST(FlashDevice, ReadAndWriteLatency) {
  TimingModel t = TestTiming();
  FlashDevice flash(t);
  EXPECT_EQ(flash.Read(0), 88000);
  EXPECT_EQ(flash.Write(0), 21000);
}

TEST(FlashDevice, PersistentModeDoublesWrites) {
  TimingModel t = TestTiming();
  t.persistent_flash = true;
  FlashDevice flash(t);
  EXPECT_EQ(flash.Write(0), 42000);
  EXPECT_EQ(flash.Read(0), 88000);  // reads unaffected
}

TEST(FlashDevice, SerialWhenConcurrencyOne) {
  TimingModel t = TestTiming();
  t.flash_concurrency = 1;
  FlashDevice flash(t);
  EXPECT_EQ(flash.Read(0), 88000);
  EXPECT_EQ(flash.Read(0), 176000);
}

TEST(FlashDevice, ConcurrentUpToQueueDepth) {
  TimingModel t = TestTiming();
  t.flash_concurrency = 4;
  FlashDevice flash(t);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(flash.Read(0), 88000);
  }
  EXPECT_EQ(flash.Read(0), 176000);
}

TEST(NetworkLink, PacketTimes) {
  TimingModel t = TestTiming();
  NetworkLink link(t, 4096);
  EXPECT_EQ(link.SmallPacketTime(), 8200);
  // 4 KB = 32768 bits at 1 ns/bit, plus the 8.2 us base.
  EXPECT_EQ(link.DataPacketTime(), 8200 + 32768);
}

TEST(NetworkLink, DirectionsAreIndependent) {
  TimingModel t = TestTiming();
  NetworkLink link(t, 4096);
  const SimTime out = link.SendToFiler(0, false);
  const SimTime in = link.SendToHost(0, false);
  EXPECT_EQ(out, 8200);
  EXPECT_EQ(in, 8200);  // no contention with the other direction
}

TEST(NetworkLink, SameDirectionSerializes) {
  TimingModel t = TestTiming();
  NetworkLink link(t, 4096);
  EXPECT_EQ(link.SendToFiler(0, true), 40968);
  EXPECT_EQ(link.SendToFiler(0, true), 81936);
}

TEST(Filer, FastAndSlowReadsFollowRate) {
  TimingModel t = TestTiming();
  Filer filer(t, 7);
  int fast = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    bool was_fast = false;
    filer.Read(0, &was_fast);
    fast += was_fast ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(fast) / n, 0.90, 0.01);
  EXPECT_EQ(filer.reads(), static_cast<uint64_t>(n));
  EXPECT_EQ(filer.fast_reads() + filer.slow_reads(), static_cast<uint64_t>(n));
}

TEST(Filer, WritesAreAlwaysBuffered) {
  TimingModel t = TestTiming();
  t.filer_concurrency = 1;
  Filer filer(t, 7);
  EXPECT_EQ(filer.Write(0), 92000);
  EXPECT_EQ(filer.Write(0), 184000);
  EXPECT_EQ(filer.writes(), 2u);
}

TEST(Filer, DeterministicAcrossSameSeed) {
  TimingModel t = TestTiming();
  Filer a(t, 123);
  Filer b(t, 123);
  for (int i = 0; i < 1000; ++i) {
    bool fa = false;
    bool fb = false;
    a.Read(0, &fa);
    b.Read(0, &fb);
    ASSERT_EQ(fa, fb);
  }
}

// The paper's topology: one shared filer behind the host's link.
StorageBackend OneFiler(const TimingModel& t) {
  return StorageBackend(t, /*num_shards=*/1, ShardStrategy::kHash, /*base_seed=*/1);
}

TEST(StorageService, ReadPathComposesStages) {
  // Request packet (8.2us) + fast filer read (92us) + data packet (40.968us).
  TimingModel t = TestTiming();
  t.filer_fast_read_rate = 1.0;
  NetworkLink link(t, 4096);
  StorageBackend backend = OneFiler(t);
  auto remote = backend.Connect(link);
  bool fast = false;
  EXPECT_EQ(remote->Read(0, /*key=*/1, &fast), 8200 + 92000 + 40968);
  EXPECT_TRUE(fast);
}

TEST(StorageService, WritePathComposesStages) {
  // Data packet out (40.968us) + filer write (92us) + ack (8.2us).
  TimingModel t = TestTiming();
  NetworkLink link(t, 4096);
  StorageBackend backend = OneFiler(t);
  auto remote = backend.Connect(link);
  EXPECT_EQ(remote->Write(0, /*key=*/1), 40968 + 92000 + 8200);
}

TEST(BackgroundWriter, SingleWindowSerializesWrites) {
  TimingModel t = TestTiming();
  EventQueue queue;
  NetworkLink link(t, 4096, queue.clock());
  StorageBackend backend = OneFiler(t);
  auto remote = backend.Connect(link);
  BackgroundWriter writer(queue, *remote, nullptr, 1);

  writer.EnqueueFilerWrite(0, false);
  writer.EnqueueFilerWrite(0, false);
  writer.EnqueueFilerWrite(0, false);
  EXPECT_EQ(writer.pending(), 3u);
  queue.RunToCompletion();
  EXPECT_EQ(writer.completed(), 3u);
  EXPECT_EQ(writer.pending(), 0u);
  // Each write is a full round trip (~141.168us); serialized, not stacked.
  EXPECT_EQ(backend.shard(0).writes(), 3u);
  EXPECT_EQ(queue.Now(), 3 * (40968 + 92000 + 8200));
}

TEST(BackgroundWriter, WiderWindowOverlaps) {
  TimingModel t = TestTiming();
  EventQueue queue;
  NetworkLink link(t, 4096, queue.clock());
  StorageBackend backend = OneFiler(t);
  auto remote = backend.Connect(link);
  BackgroundWriter writer(queue, *remote, nullptr, 4);
  for (int i = 0; i < 4; ++i) {
    writer.EnqueueFilerWrite(0, false);
  }
  queue.RunToCompletion();
  // Pipelined on the link: last data packet ends at 4*40968, then filer
  // write and ack.
  EXPECT_EQ(queue.Now(), 4 * 40968 + 92000 + 8200);
}

TEST(BackgroundWriter, ThenFlashRefreshesFlashCopy) {
  TimingModel t = TestTiming();
  EventQueue queue;
  NetworkLink link(t, 4096, queue.clock());
  StorageBackend backend = OneFiler(t);
  auto remote = backend.Connect(link);
  FlashDevice flash(t);
  BackgroundWriter writer(queue, *remote, &flash, 1);
  writer.EnqueueFilerWrite(0, true);
  queue.RunToCompletion();
  EXPECT_EQ(flash.reads_plus_writes(), 1u);
}

}  // namespace
}  // namespace flashsim
