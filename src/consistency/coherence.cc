#include "src/consistency/coherence.h"

#include <algorithm>

#include "src/util/assert.h"
#include "src/util/flat_hash.h"

namespace flashsim {

const char* CoherenceModelName(CoherenceModel model) {
  switch (model) {
    case CoherenceModel::kPerfect:
      return "perfect";
    case CoherenceModel::kDirectory:
      return "directory";
    case CoherenceModel::kLease:
      return "lease";
  }
  return "?";
}

std::optional<CoherenceModel> ParseCoherenceModel(const std::string& name) {
  if (name == "perfect") {
    return CoherenceModel::kPerfect;
  }
  if (name == "directory") {
    return CoherenceModel::kDirectory;
  }
  if (name == "lease") {
    return CoherenceModel::kLease;
  }
  return std::nullopt;
}

const char* SharingStateName(SharingState state) {
  switch (state) {
    case SharingState::kInvalid:
      return "I";
    case SharingState::kShared:
      return "S";
    case SharingState::kExclusive:
      return "E";
    case SharingState::kDirty:
      return "D";
  }
  return "?";
}

CoherenceCounters& CoherenceCounters::operator+=(const CoherenceCounters& o) {
  lookups += o.lookups;
  invalidation_messages += o.invalidation_messages;
  acks += o.acks;
  lease_grants += o.lease_grants;
  lease_renewals += o.lease_renewals;
  lease_breaks += o.lease_breaks;
  dirty_fetches += o.dirty_fetches;
  stalled_reads += o.stalled_reads;
  stalled_read_ns += o.stalled_read_ns;
  stalled_writes += o.stalled_writes;
  stalled_write_ns += o.stalled_write_ns;
  return *this;
}

CoherenceProtocol::CoherenceProtocol(const CoherenceParams& params, Directory* directory,
                                     CoherenceTransport* transport)
    : params_(params),
      directory_(directory),
      transport_(transport),
      per_host_(static_cast<size_t>(params.num_hosts)) {
  FLASHSIM_CHECK(params.num_hosts >= 1);
  FLASHSIM_CHECK(directory != nullptr && transport != nullptr);
}

CoherenceCounters CoherenceProtocol::totals() const {
  CoherenceCounters sum;
  for (const CoherenceCounters& c : per_host_) {
    sum += c;
  }
  return sum;
}

SharingState CoherenceProtocol::StateOf(BlockKey key) const {
  int holders = 0;
  bool dirty = false;
  directory_->ForEachHolder(key, [&](int host) {
    ++holders;
    if (transport_->HoldsDirty(host, key)) {
      dirty = true;
    }
  });
  if (holders == 0) {
    return SharingState::kInvalid;
  }
  if (dirty) {
    return SharingState::kDirty;
  }
  return holders == 1 ? SharingState::kExclusive : SharingState::kShared;
}

SimTime CoherenceProtocol::ReconcileDirty(int reader, BlockKey key, SimTime ready) {
  // Snapshot first: DropCopy mutates the holder set mid-iteration otherwise.
  scratch_holders_.clear();
  directory_->ForEachHolder(key, [&](int host) {
    if (host != reader && transport_->HoldsDirty(host, key)) {
      scratch_holders_.push_back(host);
    }
  });
  if (scratch_holders_.empty()) {
    return ready;
  }
  CoherenceCounters& c = at(reader);
  SimTime settled = ready;
  for (const int host : scratch_holders_) {
    const SimTime recall = transport_->FilerToHost(host, ready, /*carries_data=*/false);
    const SimTime flush = transport_->HostToFiler(host, recall, /*carries_data=*/true);
    const SimTime done = transport_->FilerService(key, flush, params_.flush_service_ns);
    transport_->DropCopy(host, key);
    OnCopyDropped(host, key);
    c.invalidation_messages += 2;
    ++c.dirty_fetches;
    settled = std::max(settled, done);
  }
  return settled;
}

namespace {

// The paper's zero-cost counting directory (§3.8): stale copies vanish
// instantly and nothing is charged, which reproduces every committed golden
// digest byte-identically. Reads never enter the protocol.
class PerfectProtocol final : public CoherenceProtocol {
 public:
  using CoherenceProtocol::CoherenceProtocol;

  SimTime BeforeRead(int host, BlockKey key, SimTime now) override {
    (void)host;
    (void)key;
    return now;
  }

  SimTime OnWrite(int host, BlockKey key, SimTime now, bool measured) override {
    const Directory::StaleSet stale = directory_->OnBlockWrite(host, key, measured);
    if (!stale.any()) {
      return now;
    }
    for (int other = 0; other < params_.num_hosts; ++other) {
      if (stale.Contains(other)) {
        transport_->DropCopy(other, key);
      }
    }
    return now;
  }
};

// Synchronous lookup + invalidate round trips. Cached copies read for free
// (callbacks keep them valid); every miss pays a directory lookup round
// trip — and reconciles a remote Dirty copy — before the data fetch; a
// write that finds other holders pays report -> per-holder callback ->
// per-holder ack -> grant, and the writer blocks until the grant lands.
class DirectoryProtocol final : public CoherenceProtocol {
 public:
  using CoherenceProtocol::CoherenceProtocol;

  SimTime BeforeRead(int host, BlockKey key, SimTime now) override {
    if (transport_->HoldsCopy(host, key)) {
      return now;
    }
    CoherenceCounters& c = at(host);
    ++c.lookups;
    const SimTime request = transport_->HostToFiler(host, now, /*carries_data=*/false);
    SimTime served = transport_->FilerService(key, request, params_.directory_service_ns);
    served = ReconcileDirty(host, key, served);
    const SimTime granted = transport_->FilerToHost(host, served, /*carries_data=*/false);
    c.invalidation_messages += 2;  // lookup request + reply
    ++c.stalled_reads;
    c.stalled_read_ns += static_cast<uint64_t>(granted - now);
    return granted;
  }

  SimTime OnWrite(int host, BlockKey key, SimTime now, bool measured) override {
    const Directory::StaleSet stale = directory_->OnBlockWrite(host, key, measured);
    if (!stale.any()) {
      // Sole holder: the copy installed by the stack's Write is implicitly
      // Exclusive/Dirty — no transaction.
      return now;
    }
    CoherenceCounters& c = at(host);
    const SimTime report = transport_->HostToFiler(host, now, /*carries_data=*/false);
    const SimTime served = transport_->FilerService(key, report, params_.directory_service_ns);
    ++c.invalidation_messages;
    SimTime ack_deadline = served;
    for (int other = 0; other < params_.num_hosts; ++other) {
      if (!stale.Contains(other)) {
        continue;
      }
      transport_->DropCopy(other, key);
      const SimTime callback = transport_->FilerToHost(other, served, /*carries_data=*/false);
      ++c.invalidation_messages;
      if (skip_acks_) {
        continue;
      }
      const SimTime ack = transport_->HostToFiler(other, callback, /*carries_data=*/false);
      ++c.invalidation_messages;
      ++c.acks;
      ack_deadline = std::max(ack_deadline, ack);
    }
    const SimTime grant = transport_->FilerToHost(host, ack_deadline, /*carries_data=*/false);
    ++c.invalidation_messages;
    ++c.stalled_writes;
    c.stalled_write_ns += static_cast<uint64_t>(grant - now);
    return grant;
  }

  // Seam: the directory "forgets" that exclusivity needs acknowledged
  // invalidations — callbacks still go out, but nobody waits for (or
  // counts) the acks, so the writer proceeds before remote copies are
  // provably gone. The longhand oracle counts the missing acks.
  void test_only_break_protocol() override { skip_acks_ = true; }

 private:
  bool skip_acks_ = false;
};

// Time-bounded read leases with callback breaks. A cached copy reads for
// free while its lease is live; an expired lease renews with a round trip
// (the copy itself is still valid — writers invalidate every holder). The
// payoff is on the write path: only holders with *live* leases get a
// callback + ack and make the writer wait; expired holders are dropped
// silently. Hot read-shared blocks renew once per lease_ns instead of
// paying per-write callback storms to cold sharers.
class LeaseProtocol final : public CoherenceProtocol {
 public:
  LeaseProtocol(const CoherenceParams& params, Directory* directory,
                CoherenceTransport* transport)
      : CoherenceProtocol(params, directory, transport),
        leases_(static_cast<size_t>(params.num_hosts)) {
    FLASHSIM_CHECK(params.lease_ns > 0);
  }

  SimTime BeforeRead(int host, BlockKey key, SimTime now) override {
    CoherenceCounters& c = at(host);
    if (transport_->HoldsCopy(host, key)) {
      if (ExpiryOf(host, key) > now) {
        return now;  // live lease: protocol-silent read
      }
      // Expired lease on a still-valid copy: renew with the directory.
      ++c.lookups;
      ++c.lease_renewals;
      const SimTime request = transport_->HostToFiler(host, now, /*carries_data=*/false);
      const SimTime served = transport_->FilerService(key, request, params_.directory_service_ns);
      const SimTime granted = transport_->FilerToHost(host, served, /*carries_data=*/false);
      c.invalidation_messages += 2;
      SetExpiry(host, key, granted + params_.lease_ns);
      ++c.stalled_reads;
      c.stalled_read_ns += static_cast<uint64_t>(granted - now);
      return granted;
    }
    // Miss: the lookup reply carries the lease grant.
    ++c.lookups;
    ++c.lease_grants;
    const SimTime request = transport_->HostToFiler(host, now, /*carries_data=*/false);
    SimTime served = transport_->FilerService(key, request, params_.directory_service_ns);
    served = ReconcileDirty(host, key, served);
    const SimTime granted = transport_->FilerToHost(host, served, /*carries_data=*/false);
    c.invalidation_messages += 2;
    SetExpiry(host, key, granted + params_.lease_ns);
    ++c.stalled_reads;
    c.stalled_read_ns += static_cast<uint64_t>(granted - now);
    return granted;
  }

  SimTime OnWrite(int host, BlockKey key, SimTime now, bool measured) override {
    const Directory::StaleSet stale = directory_->OnBlockWrite(host, key, measured);
    if (!stale.any()) {
      return now;
    }
    CoherenceCounters& c = at(host);
    const SimTime report = transport_->HostToFiler(host, now, /*carries_data=*/false);
    const SimTime served = transport_->FilerService(key, report, params_.directory_service_ns);
    ++c.invalidation_messages;
    SimTime ack_deadline = served;
    for (int other = 0; other < params_.num_hosts; ++other) {
      if (!stale.Contains(other)) {
        continue;
      }
      const bool live = ExpiryOf(other, key) > now;
      if (live && skip_breaks_) {
        // Seam: the writer "forgets" live leases — the holder keeps both
        // its lease and its now-stale copy. The oracle sees the missed
        // break and, soon after, the stale hit.
        continue;
      }
      if (live) {
        const SimTime callback = transport_->FilerToHost(other, served, /*carries_data=*/false);
        const SimTime ack = transport_->HostToFiler(other, callback, /*carries_data=*/false);
        c.invalidation_messages += 2;
        ++c.acks;
        ++c.lease_breaks;
        ack_deadline = std::max(ack_deadline, ack);
      }
      transport_->DropCopy(other, key);
      leases_[static_cast<size_t>(other)].Erase(key);
    }
    const SimTime grant = transport_->FilerToHost(host, ack_deadline, /*carries_data=*/false);
    ++c.invalidation_messages;
    ++c.stalled_writes;
    c.stalled_write_ns += static_cast<uint64_t>(grant - now);
    return grant;
  }

  std::optional<SimTime> LeaseExpiry(int host, BlockKey key) const override {
    const uint64_t* entry = leases_[static_cast<size_t>(host)].Find(key);
    if (entry == nullptr || *entry == 0) {
      return std::nullopt;
    }
    return static_cast<SimTime>(*entry - 1);
  }

  void test_only_break_protocol() override { skip_breaks_ = true; }

 protected:
  void OnCopyDropped(int host, BlockKey key) override {
    leases_[static_cast<size_t>(host)].Erase(key);
  }

 private:
  // Expiry is stored +1 so FlatHashMap's default 0 reads as "no lease"
  // (which compares as expired-forever, the correct default).
  SimTime ExpiryOf(int host, BlockKey key) const {
    const uint64_t* entry = leases_[static_cast<size_t>(host)].Find(key);
    return entry == nullptr || *entry == 0 ? 0 : static_cast<SimTime>(*entry - 1);
  }
  void SetExpiry(int host, BlockKey key, SimTime expiry) {
    leases_[static_cast<size_t>(host)][key] = static_cast<uint64_t>(expiry) + 1;
  }

  std::vector<FlatHashMap<uint64_t>> leases_;
  bool skip_breaks_ = false;
};

}  // namespace

std::unique_ptr<CoherenceProtocol> MakeCoherenceProtocol(const CoherenceParams& params,
                                                         Directory* directory,
                                                         CoherenceTransport* transport) {
  switch (params.model) {
    case CoherenceModel::kPerfect:
      return std::make_unique<PerfectProtocol>(params, directory, transport);
    case CoherenceModel::kDirectory:
      return std::make_unique<DirectoryProtocol>(params, directory, transport);
    case CoherenceModel::kLease:
      return std::make_unique<LeaseProtocol>(params, directory, transport);
  }
  FLASHSIM_CHECK(false);
  return nullptr;
}

}  // namespace flashsim
