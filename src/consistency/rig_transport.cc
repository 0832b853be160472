#include "src/consistency/rig_transport.h"

namespace flashsim {

// Forwards one host's cache residency transitions into the directory.
class RigTransport::ResidencyBridge final : public ResidencyListener {
 public:
  ResidencyBridge(Directory& directory, int host) : directory_(&directory), host_(host) {}

  void OnCached(BlockKey key) override { directory_->NoteCached(host_, key); }
  void OnDropped(BlockKey key) override { directory_->NoteDropped(host_, key); }

 private:
  Directory* directory_;
  int host_;
};

RigTransport::RigTransport(const std::vector<std::unique_ptr<HostRig>>& hosts,
                           StorageBackend& backend, Directory& directory)
    : hosts_(&hosts), backend_(&backend) {
  if (hosts.size() < 2) {
    return;
  }
  for (size_t h = 0; h < hosts.size(); ++h) {
    bridges_.push_back(std::make_unique<ResidencyBridge>(directory, static_cast<int>(h)));
    hosts[h]->stack->set_residency_listener(bridges_.back().get());
  }
}

RigTransport::~RigTransport() = default;

CoherenceParams MakeCoherenceParams(CoherenceModel model, int num_hosts,
                                    const TimingModel& timing) {
  CoherenceParams params;
  params.model = model;
  params.num_hosts = num_hosts;
  params.directory_service_ns = timing.coherence_ctrl_ns;
  params.flush_service_ns = timing.filer_write_ns;
  params.lease_ns = timing.lease_ns;
  return params;
}

}  // namespace flashsim
