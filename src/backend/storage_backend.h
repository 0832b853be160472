// Storage backend: ownership of the filer side of the host→storage path.
//
// The backend owns N >= 1 filer shards behind a ShardRouter and hands each
// host a StorageService channel bound to that host's private network link
// (Connect). Each shard has its own bounded-concurrency service resource
// and its own RNG stream, split deterministically from SimConfig::seed
// (ShardSeed below), so adding shards never perturbs another shard's
// fast/slow read draws and runs stay reproducible at any shard count.
//
// One filer is the paper's topology (§5) and needs no separate code path:
// the router sends every key to shard 0, and shard 0 draws from the seed
// the single-filer simulator has always used (DESIGN.md §11; guarded by
// tests/golden_digest_test.cc).
#ifndef FLASHSIM_SRC_BACKEND_STORAGE_BACKEND_H_
#define FLASHSIM_SRC_BACKEND_STORAGE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/backend/shard_router.h"
#include "src/backend/storage_service.h"
#include "src/device/filer.h"
#include "src/device/network_link.h"
#include "src/device/timing.h"
#include "src/util/rng.h"

namespace flashsim {

// Deterministic per-shard RNG seed split. Shard 0 reproduces the seed the
// single-filer simulator has used since the first commit (Mix64 of
// seed ^ 0xf11e5); later shards perturb the pre-mix state by the golden
// ratio so streams never collide for distinct shard indices.
inline uint64_t ShardSeed(uint64_t base_seed, int shard) {
  return Mix64((base_seed ^ 0xf11e5ULL) +
               0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(shard));
}

class StorageBackend {
 public:
  StorageBackend(const TimingModel& timing, int num_shards, ShardStrategy strategy,
                 uint64_t base_seed);

  StorageBackend(const StorageBackend&) = delete;
  StorageBackend& operator=(const StorageBackend&) = delete;

  // Builds one host's channel to this backend, routed through the host's
  // private link. The channel borrows the backend and link; both must
  // outlive it.
  std::unique_ptr<StorageService> Connect(NetworkLink& link);

  int num_shards() const { return router_.num_shards(); }
  Filer& shard(int index);
  const Filer& shard(int index) const {
    return const_cast<StorageBackend*>(this)->shard(index);
  }
  const ShardRouter& router() const { return router_; }

  // Aggregates across shards — the totals the single-filer metrics always
  // reported, preserved shard-count-independently.
  uint64_t fast_reads() const { return Sum(&Filer::fast_reads); }
  uint64_t slow_reads() const { return Sum(&Filer::slow_reads); }
  uint64_t reads() const { return Sum(&Filer::reads); }
  uint64_t writes() const { return Sum(&Filer::writes); }

 private:
  template <typename Getter>
  uint64_t Sum(Getter getter) const {
    uint64_t total = 0;
    for (const Filer& filer : shards_) {
      total += (filer.*getter)();
    }
    return total;
  }

  // Sized once in the constructor and never resized: channels hold a
  // pointer to the array.
  std::vector<Filer> shards_;
  ShardRouter router_;
};

// The backend for SimConfig::num_filers shards.
std::unique_ptr<StorageBackend> MakeStorageBackend(const TimingModel& timing, int num_filers,
                                                   ShardStrategy strategy, uint64_t base_seed);

}  // namespace flashsim

#endif  // FLASHSIM_SRC_BACKEND_STORAGE_BACKEND_H_
