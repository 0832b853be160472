// FIFO queues that share one pool of fixed-size chunks.
//
// The simulator's per-thread trace backlogs: thousands of queues whose
// total occupancy at any moment is far below the sum of their individual
// peaks, so giving each queue its own ring would pay for every queue's
// high-water mark at once. The background writer's one queue lives here
// too: it pays for its live entries and never copies them, where a
// doubling ring kept its old buffer beside the new one while it grew.
// Here a queue is a linked list of chunks of
// kChunkRecords records. A chunk that pop_front empties goes back to the
// pool's free list, except a queue's last chunk, which the drained queue
// keeps, so a queue oscillating between empty and a few records never
// touches the pool. Chunks are carved from uninitialised slabs, so a chunk
// never used is never faulted in, and chunks never move: front() stays
// valid across pushes to any queue.
#ifndef FLASHSIM_SRC_UTIL_POOLED_QUEUES_H_
#define FLASHSIM_SRC_UTIL_POOLED_QUEUES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "src/util/assert.h"

namespace flashsim {

// `num_queues` FIFOs of T with O(1) push_back/pop_front. T is stored by
// copy into raw storage, so it must be trivially copyable.
template <typename T>
class PooledQueues {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>);

 public:
  static constexpr uint32_t kChunkRecords = 64;

  PooledQueues() = default;
  explicit PooledQueues(size_t num_queues) : queues_(num_queues) {}

  // Chunks handed out by the pool so far: the most ever in use at once.
  size_t chunks_carved() const { return chunks_carved_; }

  // Carves room for `records` queued at once across all queues, plus one
  // partly filled chunk per queue, in one uninitialised slab. The pool
  // grows past it only if more are ever queued at once.
  void Reserve(size_t records) {
    const size_t chunks = (records + kChunkRecords - 1) / kChunkRecords + queues_.size();
    if (chunks > static_cast<size_t>(slab_end_ - next_fresh_) + chunks_free_) {
      AddSlab(chunks);
    }
  }

  bool empty(size_t q) const {
    const Queue& queue = queues_[q];
    return queue.head == queue.tail && queue.begin == queue.end;
  }

  const T& front(size_t q) const {
    FLASHSIM_DCHECK(!empty(q));
    const Queue& queue = queues_[q];
    return queue.head->record(queue.begin);
  }

  void push_back(size_t q, const T& value) {
    Queue& queue = queues_[q];
    if (queue.tail == nullptr) {
      queue.head = queue.tail = Take();
    } else if (queue.end == kChunkRecords) {
      Chunk* chunk = Take();
      queue.tail->next = chunk;
      queue.tail = chunk;
      queue.end = 0;
    }
    ::new (queue.tail->bytes + queue.end * sizeof(T)) T(value);
    ++queue.end;
  }

  void pop_front(size_t q) {
    FLASHSIM_DCHECK(!empty(q));
    Queue& queue = queues_[q];
    ++queue.begin;
    if (queue.head == queue.tail) {
      if (queue.begin == queue.end) {
        queue.begin = queue.end = 0;  // drained: keep the chunk, rewound
      }
    } else if (queue.begin == kChunkRecords) {
      Chunk* spent = queue.head;
      queue.head = spent->next;
      queue.begin = 0;
      Give(spent);
    }
  }

 private:
  struct Chunk {
    Chunk* next;
    alignas(T) unsigned char bytes[kChunkRecords * sizeof(T)];

    const T& record(uint32_t i) const {
      return *std::launder(reinterpret_cast<const T*>(bytes + i * sizeof(T)));
    }
  };

  // A queue's records run from head[begin] to tail[end - 1] along the
  // chunks' next links; an untouched queue holds no chunk at all.
  struct Queue {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  static constexpr size_t kMinSlabChunks = 64;

  Chunk* Take() {
    Chunk* chunk = free_;
    if (chunk != nullptr) {
      free_ = chunk->next;
      --chunks_free_;
    } else {
      if (next_fresh_ == slab_end_) {
        AddSlab(std::max(kMinSlabChunks, chunks_carved_));  // doubles the pool
      }
      chunk = next_fresh_++;
      ++chunks_carved_;
    }
    chunk->next = nullptr;
    return chunk;
  }

  void Give(Chunk* chunk) {
    chunk->next = free_;
    free_ = chunk;
    ++chunks_free_;
  }

  // Uncarved chunks left in the current slab are abandoned (never touched,
  // so never resident).
  void AddSlab(size_t chunks) {
    slabs_.push_back(std::make_unique_for_overwrite<Chunk[]>(chunks));
    next_fresh_ = slabs_.back().get();
    slab_end_ = next_fresh_ + chunks;
  }

  std::vector<Queue> queues_;
  std::vector<std::unique_ptr<Chunk[]>> slabs_;
  Chunk* next_fresh_ = nullptr;  // next never-used chunk of the newest slab
  Chunk* slab_end_ = nullptr;
  Chunk* free_ = nullptr;        // returned chunks, linked through next
  size_t chunks_free_ = 0;
  size_t chunks_carved_ = 0;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_UTIL_POOLED_QUEUES_H_
