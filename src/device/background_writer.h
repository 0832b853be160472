// Per-host background write-through daemon.
//
// "Asynchronous write-through" (§3.5) issues writebacks immediately without
// blocking the requester. Issuing them as unbounded fire-and-forget
// reservations would let a writeback burst reserve the network link far
// into the future and head-of-line-block reads — a behavior the paper's
// results rule out (async and periodic policies perform identically,
// Fig 2). Real clients bound their outstanding write RPCs; this daemon
// models that: queued writebacks drain FIFO with at most `window`
// outstanding filer writes, each acquiring the link/filer at its actual
// start time so reads interleave fairly.
//
// The lookaside architecture also uses it to refresh the flash copy after
// the filer write completes (flash never holds dirty data, §3.3).
#ifndef FLASHSIM_SRC_DEVICE_BACKGROUND_WRITER_H_
#define FLASHSIM_SRC_DEVICE_BACKGROUND_WRITER_H_

#include <cstdint>

#include "src/backend/storage_service.h"
#include "src/device/flash_device.h"
#include "src/trace/record.h"
#include "src/sim/event_queue.h"
#include "src/sim/sim_time.h"
#include "src/util/pooled_queues.h"

namespace flashsim {

class BackgroundWriter : public EventHandler {
 public:
  // `flash` may be null if no post-write flash refresh is ever requested.
  BackgroundWriter(EventQueue& queue, StorageService& remote, FlashDevice* flash,
                   int window = 1);

  // Queues one block writeback to the filer, optionally refreshing the
  // flash copy of `key` once the filer write completes. Never blocks the
  // caller. The key also routes the write when the backend is sharded, so
  // callers must pass the real block even without a flash refresh.
  void EnqueueFilerWrite(SimTime now, bool then_flash, BlockKey key = 0);

  // Typed-event dispatch: one in-flight filer write finished.
  void HandleEvent(SimTime now, uint32_t code, uint64_t arg) override;

  uint64_t enqueued() const { return enqueued_; }
  uint64_t completed() const { return completed_; }
  // Writebacks whose filer write has been issued (completed or in the
  // window); enqueued() - started() are still queued behind the window.
  uint64_t started() const { return completed_ + static_cast<uint64_t>(active_); }
  uint64_t pending() const { return enqueued_ - completed_; }
  uint64_t max_pending() const { return max_pending_; }
  int window() const { return window_; }

 private:
  void Pump(SimTime now);

  EventQueue* queue_;
  StorageService* remote_;
  FlashDevice* flash_;
  // One queued writeback in 9 bytes: BlockKey uses all 64 bits (24 of file,
  // 40 of block), so the refresh flag cannot ride in the key.
  struct [[gnu::packed]] Pending {
    BlockKey key;
    bool then_flash;
  };
  static_assert(sizeof(Pending) == 9, "a queued writeback must stay 9 bytes");

  int window_;
  int active_ = 0;
  // One FIFO on the chunk pool the trace backlogs use (DESIGN.md §8): it
  // pays for its live entries, 64 to a chunk, and never copies them. The
  // queue grows with the writeback backlog over the trace, not with cache
  // size: naive p1/a falls behind and peaks at 804,345 queued writebacks at
  // scale 16 and 1,604,942 at scale 8, while an 8-host directory run
  // shaped like perfbench's shared_dir_h8 peaks at 225. A drained queue
  // keeps its last chunk, so a writer that oscillates between empty and a
  // few entries never allocates.
  PooledQueues<Pending> pending_{1};
  uint64_t enqueued_ = 0;
  uint64_t completed_ = 0;
  uint64_t max_pending_ = 0;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_DEVICE_BACKGROUND_WRITER_H_
