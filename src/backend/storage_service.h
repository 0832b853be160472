// One host's channel to the shared storage backend (storage_backend.h).
//
// A cache stack's misses and writebacks leave the host through exactly one
// of these. The channel owns the full host→storage composition — request
// packet out on the host's private link, service at the filer shard that
// owns the block, response packet back. Stacks pass the block key so the
// backend's router can pick the shard; with one filer every key routes to
// shard 0, which is the paper's single shared filer (§5).
#ifndef FLASHSIM_SRC_BACKEND_STORAGE_SERVICE_H_
#define FLASHSIM_SRC_BACKEND_STORAGE_SERVICE_H_

#include "src/backend/shard_router.h"
#include "src/device/filer.h"
#include "src/device/network_link.h"
#include "src/sim/sim_time.h"
#include "src/trace/record.h"

namespace flashsim {

class StorageService {
 public:
  // Fetches one block: small request out, filer read, data packet back.
  // Sets *was_fast (may be null) to whether the filer's read-ahead hit.
  SimTime Read(SimTime now, BlockKey key, bool* was_fast) {
    const SimTime at_filer = link_->SendToFiler(now, /*carries_data=*/false);
    const SimTime served = shards_[ShardOf(key)].Read(at_filer, was_fast);
    return link_->SendToHost(served, /*carries_data=*/true);
  }

  // Writes one block: data packet out, filer write, small ack back.
  SimTime Write(SimTime now, BlockKey key) {
    const SimTime at_filer = link_->SendToFiler(now, /*carries_data=*/true);
    const SimTime served = shards_[ShardOf(key)].Write(at_filer);
    return link_->SendToHost(served, /*carries_data=*/false);
  }

  // Routing introspection. ShardOf is stable for the channel's lifetime
  // (the consistency of every per-shard counter depends on it) and returns
  // 0 for every key when num_shards() == 1.
  int num_shards() const { return router_->num_shards(); }
  int ShardOf(BlockKey key) const { return router_->ShardOf(key); }

 private:
  friend class StorageBackend;  // the only way to build one is Connect

  StorageService(NetworkLink& link, Filer* shards, const ShardRouter& router)
      : link_(&link), shards_(shards), router_(&router) {}

  NetworkLink* link_;
  Filer* shards_;  // the backend's shard array, indexed by ShardOf
  const ShardRouter* router_;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_BACKEND_STORAGE_SERVICE_H_
