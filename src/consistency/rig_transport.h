// The one CoherenceTransport (coherence.h): the protocols' view of a fleet
// of HostRigs (src/arch/host_rig.h) above one StorageBackend.
//
// Control messages ride the sending host's NetworkLink and queue at the
// filer shard that owns the block, so protocol traffic contends with data
// exactly where real traffic would. Copy drops and residency probes go to
// the hosts' real cache stacks. On fleets of more than one host the
// transport also keeps the Directory in step with every stack's residency;
// a lone host's holder set could never name another host (DESIGN.md §15),
// so one-host fleets leave the directory empty.
#ifndef FLASHSIM_SRC_CONSISTENCY_RIG_TRANSPORT_H_
#define FLASHSIM_SRC_CONSISTENCY_RIG_TRANSPORT_H_

#include <memory>
#include <vector>

#include "src/arch/host_rig.h"
#include "src/backend/storage_backend.h"
#include "src/consistency/coherence.h"
#include "src/consistency/directory.h"
#include "src/device/timing.h"

namespace flashsim {

class RigTransport final : public CoherenceTransport {
 public:
  // Borrows all three; `hosts` must not change size from here on. With more
  // than one host, attaches a residency bridge into `directory` to every
  // host's stack.
  RigTransport(const std::vector<std::unique_ptr<HostRig>>& hosts, StorageBackend& backend,
               Directory& directory);
  ~RigTransport() override;

  RigTransport(const RigTransport&) = delete;
  RigTransport& operator=(const RigTransport&) = delete;

  SimTime HostToFiler(int host, SimTime now, bool carries_data) override {
    return at(host).link.SendToFiler(now, carries_data);
  }
  SimTime FilerToHost(int host, SimTime now, bool carries_data) override {
    return at(host).link.SendToHost(now, carries_data);
  }
  SimTime FilerService(BlockKey key, SimTime arrival, SimDuration service) override {
    return backend_->shard(backend_->router().ShardOf(key)).ServeControl(arrival, service);
  }
  void DropCopy(int host, BlockKey key) override { at(host).stack->Invalidate(key); }
  bool HoldsCopy(int host, BlockKey key) const override { return at(host).stack->Holds(key); }
  bool HoldsDirty(int host, BlockKey key) const override {
    return at(host).stack->HoldsDirty(key);
  }

 private:
  class ResidencyBridge;

  HostRig& at(int host) const { return *(*hosts_)[static_cast<size_t>(host)]; }

  const std::vector<std::unique_ptr<HostRig>>* hosts_;
  StorageBackend* backend_;
  std::vector<std::unique_ptr<ResidencyBridge>> bridges_;  // empty on one host
};

// The protocol parameters of a `num_hosts` fleet running `model` under
// `timing`: directory service per control message, flush absorption at the
// filer, and the lease lifetime.
CoherenceParams MakeCoherenceParams(CoherenceModel model, int num_hosts,
                                    const TimingModel& timing);

}  // namespace flashsim

#endif  // FLASHSIM_SRC_CONSISTENCY_RIG_TRANSPORT_H_
