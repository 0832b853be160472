// Background write-through daemon under load: FIFO draining, window
// semantics, interleaving fairness with foreground reads.
#include <gtest/gtest.h>

#include <vector>

#include "src/backend/storage_backend.h"
#include "src/device/background_writer.h"
#include "src/device/filer.h"
#include "src/device/flash_device.h"
#include "src/device/network_link.h"
#include "src/sim/event_queue.h"
#include "src/util/rng.h"

namespace flashsim {
namespace {

// One host's writer over a backend of `shards` filers, with a flash device
// for post-write refreshes. The rig is also an event handler, so tests can
// issue work at scheduled times: kEnqueue queues `arg` writes, kRead issues
// one foreground read and notes its completion.
struct WriterRig : EventHandler {
  enum : uint32_t { kEnqueue, kRead };

  explicit WriterRig(int window, int shards = 1) {
    timing.filer_fast_read_rate = 1.0;
    link = std::make_unique<NetworkLink>(timing, 4096, queue.clock());
    backend = std::make_unique<StorageBackend>(timing, shards, ShardStrategy::kHash, 3);
    remote = backend->Connect(*link);
    flash = std::make_unique<FlashDevice>(timing);
    writer = std::make_unique<BackgroundWriter>(queue, *remote, flash.get(), window);
  }

  void HandleEvent(SimTime now, uint32_t code, uint64_t arg) override {
    if (code == kEnqueue) {
      for (uint64_t i = 0; i < arg; ++i) {
        writer->EnqueueFilerWrite(now, false);
      }
    } else {
      bool fast = false;
      read_done = remote->Read(now, /*key=*/0, &fast);
    }
  }

  Filer& filer() { return backend->shard(0); }

  TimingModel timing;
  EventQueue queue;
  std::unique_ptr<NetworkLink> link;
  std::unique_ptr<StorageBackend> backend;
  std::unique_ptr<StorageService> remote;
  std::unique_ptr<FlashDevice> flash;
  std::unique_ptr<BackgroundWriter> writer;
  SimTime read_done = 0;
};

constexpr SimDuration kRoundTrip = 40968 + 92000 + 8200;  // write RTT

TEST(BackgroundWriter, BurstDrainsAtOnePerRoundTrip) {
  WriterRig rig(1);
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    rig.writer->EnqueueFilerWrite(0, false);
  }
  EXPECT_EQ(rig.writer->max_pending(), static_cast<uint64_t>(n));
  rig.queue.RunToCompletion();
  EXPECT_EQ(rig.writer->completed(), static_cast<uint64_t>(n));
  EXPECT_EQ(rig.queue.Now(), n * kRoundTrip);
}

TEST(BackgroundWriter, StaggeredEnqueuesKeepPendingBounded) {
  WriterRig rig(1);
  // Enqueue slower than the drain rate: pending never exceeds 2.
  SimTime t = 0;
  for (int i = 0; i < 50; ++i) {
    rig.queue.ScheduleEvent(t, &rig, WriterRig::kEnqueue, 1);
    t += 2 * kRoundTrip;
  }
  rig.queue.RunToCompletion();
  EXPECT_EQ(rig.writer->completed(), 50u);
  EXPECT_LE(rig.writer->max_pending(), 2u);
}

TEST(BackgroundWriter, ForegroundReadsInterleaveWithBacklog) {
  // With a deep write backlog draining one-at-a-time, a read issued later
  // still gets the link promptly: the writer leaves the link idle while it
  // waits for each ack, and the gap-aware link lets the read slip in.
  WriterRig rig(1);
  for (int i = 0; i < 50; ++i) {
    rig.writer->EnqueueFilerWrite(0, false);
  }
  rig.queue.ScheduleEvent(kRoundTrip / 2, &rig, WriterRig::kRead);
  rig.queue.RunToCompletion();
  // The read finishes in ~1-2 round trips, not after the 50-write backlog.
  EXPECT_GT(rig.read_done, 0);
  EXPECT_LT(rig.read_done, kRoundTrip * 4);
}

TEST(BackgroundWriter, WindowNStartsNWritesTogether) {
  for (int window : {2, 4, 8}) {
    WriterRig rig(window);
    for (int i = 0; i < window; ++i) {
      rig.writer->EnqueueFilerWrite(0, false);
    }
    rig.queue.RunToCompletion();
    // Data packets serialize on the link; filer work overlaps. The last
    // completion is window data packets + one filer write + one ack.
    EXPECT_EQ(rig.queue.Now(), window * 40968 + 92000 + 8200) << window;
  }
}

TEST(BackgroundWriter, CountsStayConsistentUnderRandomLoad) {
  WriterRig rig(3);
  Rng rng(5);
  uint64_t enqueued = 0;
  SimTime t = 0;
  for (int i = 0; i < 500; ++i) {
    t += static_cast<SimTime>(rng.NextBounded(200000));
    const int burst = static_cast<int>(rng.NextBounded(4)) + 1;
    rig.queue.ScheduleEvent(t, &rig, WriterRig::kEnqueue, static_cast<uint64_t>(burst));
    enqueued += static_cast<uint64_t>(burst);
  }
  rig.queue.RunToCompletion();
  EXPECT_EQ(rig.writer->enqueued(), enqueued);
  EXPECT_EQ(rig.writer->completed(), enqueued);
  EXPECT_EQ(rig.writer->pending(), 0u);
  EXPECT_EQ(rig.filer().writes(), enqueued);
}

// A deep burst (over 150 of the queue's 64-entry chunks) of distinct keys
// with a mixed refresh flag. The writer issues each filer write, and its
// flash refresh, when the write leaves the queue, so at every step the
// writes issued so far must be exactly the first started() writebacks in
// enqueue order: each shard has served the keys of that prefix the router
// sends it, and the flash has taken the prefix's flagged refreshes.
TEST(BackgroundWriter, DeepBurstDrainsInOrderWithItsKeysAndFlags) {
  constexpr int kShards = 4;
  constexpr uint64_t kBurst = 10007;
  WriterRig rig(/*window=*/3, kShards);
  Rng rng(23);
  std::vector<BlockKey> keys;
  std::vector<bool> flagged;
  for (uint64_t i = 0; i < kBurst; ++i) {
    // Distinct keys that use the file bits as well as the block bits.
    const uint32_t file = static_cast<uint32_t>(rng.NextBounded(uint64_t{1} << 24));
    keys.push_back(MakeBlockKey(file, (uint64_t{1} << 39) | i));
    flagged.push_back(rng.NextBounded(3) == 0);
    rig.writer->EnqueueFilerWrite(0, flagged.back(), keys.back());
  }
  EXPECT_EQ(rig.writer->max_pending(), kBurst);

  std::vector<uint64_t> expected_writes(kShards, 0);
  uint64_t expected_refreshes = 0;
  uint64_t issued = 0;
  const auto check_prefix = [&] {
    for (; issued < rig.writer->started(); ++issued) {
      ++expected_writes[static_cast<size_t>(rig.backend->router().ShardOf(keys[issued]))];
      expected_refreshes += flagged[issued] ? 1 : 0;
    }
    for (int s = 0; s < kShards; ++s) {
      ASSERT_EQ(rig.backend->shard(s).writes(), expected_writes[static_cast<size_t>(s)])
          << "shard " << s << " after " << issued << " writes";
    }
    ASSERT_EQ(rig.flash->reads_plus_writes(), expected_refreshes) << "after " << issued;
  };
  check_prefix();
  while (!rig.queue.empty()) {
    rig.queue.RunUntil(rig.queue.HeadTime());
    check_prefix();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_EQ(issued, kBurst);
  EXPECT_EQ(rig.writer->completed(), kBurst);
  EXPECT_EQ(rig.writer->pending(), 0u);
  EXPECT_EQ(rig.writer->max_pending(), kBurst);
  for (int s = 0; s < kShards; ++s) {
    EXPECT_GT(expected_writes[static_cast<size_t>(s)], 0u) << "shard " << s << " owns no key";
  }
  EXPECT_GT(expected_refreshes, 0u);
  EXPECT_LT(expected_refreshes, kBurst);
}

TEST(BackgroundWriterDeathTest, RejectsZeroWindow) {
  WriterRig rig(1);
  EXPECT_DEATH(BackgroundWriter(rig.queue, *rig.remote, nullptr, 0), "CHECK failed");
}

}  // namespace
}  // namespace flashsim
