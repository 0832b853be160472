#include "src/device/background_writer.h"

#include <algorithm>

#include "src/util/assert.h"

namespace flashsim {

BackgroundWriter::BackgroundWriter(EventQueue& queue, StorageService& remote,
                                   FlashDevice* flash, int window)
    : queue_(&queue), remote_(&remote), flash_(flash), window_(window) {
  FLASHSIM_CHECK(window >= 1);
}

void BackgroundWriter::EnqueueFilerWrite(SimTime now, bool then_flash, BlockKey key) {
  pending_.push_back(0, Pending{key, then_flash});
  ++enqueued_;
  max_pending_ = std::max(max_pending_, pending());
  Pump(now);
}

void BackgroundWriter::HandleEvent(SimTime now, uint32_t /*code*/, uint64_t /*arg*/) {
  --active_;
  ++completed_;
  Pump(now);
}

void BackgroundWriter::Pump(SimTime now) {
  while (active_ < window_ && !pending_.empty(0)) {
    const Pending item = pending_.front(0);
    pending_.pop_front(0);
    ++active_;
    const SimTime done = remote_->Write(now, item.key);
    if (item.then_flash && flash_ != nullptr) {
      flash_->Write(done, item.key);
    }
    queue_->ScheduleEvent(done, this, /*code=*/0);
  }
}

}  // namespace flashsim
