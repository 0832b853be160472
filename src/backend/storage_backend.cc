#include "src/backend/storage_backend.h"

#include "src/util/assert.h"

namespace flashsim {

StorageBackend::StorageBackend(const TimingModel& timing, int num_shards,
                               ShardStrategy strategy, uint64_t base_seed)
    : router_(num_shards, strategy) {
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards_.emplace_back(timing, ShardSeed(base_seed, s));
  }
}

std::unique_ptr<StorageService> StorageBackend::Connect(NetworkLink& link) {
  // The host's link is shared by all shards — the paper's contention point
  // is the client's network segment, not the filer — so sharding relieves
  // filer service queueing while the wire stays the wire.
  return std::unique_ptr<StorageService>(new StorageService(link, shards_.data(), router_));
}

Filer& StorageBackend::shard(int index) {
  FLASHSIM_CHECK(index >= 0 && index < num_shards());
  return shards_[static_cast<size_t>(index)];
}

std::unique_ptr<StorageBackend> MakeStorageBackend(const TimingModel& timing, int num_filers,
                                                   ShardStrategy strategy, uint64_t base_seed) {
  return std::make_unique<StorageBackend>(timing, num_filers, strategy, base_seed);
}

}  // namespace flashsim
