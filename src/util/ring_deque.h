// Power-of-two ring-buffer FIFO.
//
// The background writer's pending queue oscillates between empty and a few
// entries; std::deque releases its chunk on empty and allocates a fresh one
// on the next push. This ring keeps elements contiguous, grows by doubling,
// and keeps its high-water buffer, so a queue that stays within it never
// allocates again.
#ifndef FLASHSIM_SRC_UTIL_RING_DEQUE_H_
#define FLASHSIM_SRC_UTIL_RING_DEQUE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/util/assert.h"

namespace flashsim {

// FIFO of T with O(1) push_back/pop_front. T must be movable.
template <typename T>
class RingDeque {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t capacity() const { return buf_.size(); }

  void push_back(T value) {
    if (size_ == buf_.size()) {
      Grow(buf_.empty() ? kMinCapacity : buf_.size() * 2);
    }
    buf_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  T& front() {
    FLASHSIM_DCHECK(size_ > 0);
    return buf_[head_];
  }
  const T& front() const {
    FLASHSIM_DCHECK(size_ > 0);
    return buf_[head_];
  }

  void pop_front() {
    FLASHSIM_DCHECK(size_ > 0);
    buf_[head_] = T();  // drop any owned resources eagerly
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  void clear() {
    while (!empty()) {
      pop_front();
    }
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  void Grow(size_t new_capacity) {
    std::vector<T> grown(new_capacity);
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(buf_[(head_ + i) & mask_]);
    }
    buf_ = std::move(grown);
    mask_ = new_capacity - 1;
    head_ = 0;
  }

  std::vector<T> buf_;
  size_t mask_ = 0;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_UTIL_RING_DEQUE_H_
