// Protocol test net for the coherence layer (src/consistency/coherence.h):
// N HostRigs (real cache stacks, network links) over a shared filer, wired
// by the simulator's own RigTransport and driven through randomized
// multi-host interleavings with per-step invariant checks:
//
//   - single-dirty-holder: a write leaves the writer as the block's only
//     holder (every protocol invalidates all stale copies);
//   - no stale-dirty read: under the modeled protocols (directory, lease) a
//     read never proceeds while another host holds the block Dirty —
//     BeforeRead must have reconciled (recalled + flushed + dropped) it;
//   - sharing-state agreement: StateOf(key), derived from the directory's
//     holder set plus the transport's dirty probe, matches the state
//     recomputed longhand from the stacks' own residency;
//   - lease expiry monotone in sim time: a (host, key) lease entry never
//     moves backwards;
//   - sim time itself is monotone through every protocol call.
//
// Run across all protocols x all three cache stacks x seeds. The last two
// cases pin RigTransport's own routing and directory feeding.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/arch/host_rig.h"
#include "src/backend/storage_backend.h"
#include "src/consistency/coherence.h"
#include "src/consistency/directory.h"
#include "src/consistency/rig_transport.h"
#include "src/device/timing.h"
#include "src/sim/event_queue.h"
#include "src/util/rng.h"

namespace flashsim {
namespace {

constexpr int kHosts = 4;
constexpr uint64_t kKeySpace = 192;

struct TestNet {
  TestNet(Architecture arch, CoherenceModel model, uint64_t seed)
      : timing(MakeTiming()),
        backend(timing, /*num_shards=*/1, ShardStrategy::kHash, seed),
        directory(kHosts) {
    StackConfig config;
    config.ram_blocks = 24;
    config.flash_blocks = 96;
    // RAM never writes back on its own: dirty blocks linger, so read misses
    // on other hosts exercise the Dirty-reconciliation path constantly.
    config.ram_policy = WritebackPolicy::kNone;
    config.flash_policy = WritebackPolicy::kAsync;
    for (int h = 0; h < kHosts; ++h) {
      hosts.push_back(
          std::make_unique<HostRig>(arch, config, timing, /*block_bytes=*/4096, queue, backend));
    }
    transport = std::make_unique<RigTransport>(hosts, backend, directory);
    protocol = MakeCoherenceProtocol(MakeCoherenceParams(model, kHosts, timing), &directory,
                                     transport.get());
  }

  static TimingModel MakeTiming() {
    TimingModel timing;
    timing.filer_fast_read_rate = 1.0;  // deterministic
    timing.lease_ns = kMillisecond;     // leases expire within the run
    return timing;
  }

  // The longhand sharing state, recomputed from the stacks themselves (the
  // protocol derives it from the directory + transport instead).
  SharingState StateFromStacks(BlockKey key) const {
    int holders = 0;
    bool dirty = false;
    for (const auto& host : hosts) {
      if (host->stack->Holds(key)) {
        ++holders;
        dirty = dirty || host->stack->HoldsDirty(key);
      }
    }
    if (holders == 0) {
      return SharingState::kInvalid;
    }
    if (dirty) {
      return SharingState::kDirty;
    }
    return holders == 1 ? SharingState::kExclusive : SharingState::kShared;
  }

  // Devices keep references into the timing model; it must outlive them.
  TimingModel timing;
  EventQueue queue;
  StorageBackend backend;
  Directory directory;
  std::vector<std::unique_ptr<HostRig>> hosts;
  std::unique_ptr<RigTransport> transport;
  std::unique_ptr<CoherenceProtocol> protocol;
};

void RunInterleaving(Architecture arch, CoherenceModel model, uint64_t seed,
                     uint64_t num_ops) {
  TestNet net(arch, model, seed);
  Rng rng(Mix64(seed ^ 0x1ea5e5ULL));
  const bool modeled = model != CoherenceModel::kPerfect;
  // Last observed lease expiry per (host, key); entries must never move
  // backwards while both observations exist.
  std::map<std::pair<int, BlockKey>, SimTime> last_expiry;

  SimTime now = 0;
  for (uint64_t i = 0; i < num_ops; ++i) {
    const int host = static_cast<int>(rng.NextBounded(kHosts));
    const BlockKey key = MakeBlockKey(0, rng.NextBounded(kKeySpace));
    CacheStack& stack = *net.hosts[static_cast<size_t>(host)]->stack;
    const bool is_write = rng.NextBounded(100) < 40;

    if (is_write) {
      SimTime t = stack.Write(now, key);
      ASSERT_GE(t, now);
      t = net.protocol->OnWrite(host, key, t, /*measured=*/true);
      ASSERT_GE(t, now);
      now = t;
      // Single-dirty-holder: every protocol invalidates all stale copies,
      // so the writer ends up the block's only holder, holding it Dirty.
      for (int other = 0; other < kHosts; ++other) {
        if (other != host) {
          ASSERT_FALSE(net.hosts[static_cast<size_t>(other)]->stack->Holds(key))
              << "op " << i << ": host " << other << " kept a stale copy of " << key;
        }
      }
      ASSERT_TRUE(stack.Holds(key)) << "op " << i;
      // Sole holder: Dirty, or already Exclusive-clean when the medium's
      // writeback policy enqueued the block on the spot (e.g. async).
      const SharingState state = net.protocol->StateOf(key);
      ASSERT_TRUE(state == SharingState::kDirty || state == SharingState::kExclusive)
          << "op " << i << ": " << SharingStateName(state);
    } else {
      const SimTime start = net.protocol->BeforeRead(host, key, now);
      ASSERT_GE(start, now);
      if (modeled) {
        // No stale-dirty read: BeforeRead must have recalled any remote
        // Dirty copy before the data fetch proceeds.
        for (int other = 0; other < kHosts; ++other) {
          if (other != host) {
            ASSERT_FALSE(net.hosts[static_cast<size_t>(other)]->stack->HoldsDirty(key))
                << "op " << i << ": read on host " << host << " proceeded while host "
                << other << " held " << key << " Dirty";
          }
        }
      }
      HitLevel level = HitLevel::kRam;
      const SimTime t = stack.Read(start, key, &level);
      ASSERT_GE(t, start);
      now = t;
    }

    // Sharing-state agreement on the touched key.
    ASSERT_EQ(net.protocol->StateOf(key), net.StateFromStacks(key)) << "op " << i;

    // Lease expiry monotonicity on the touched (host, key).
    if (model == CoherenceModel::kLease) {
      const std::optional<SimTime> expiry = net.protocol->LeaseExpiry(host, key);
      if (expiry.has_value()) {
        const auto it = last_expiry.find({host, key});
        if (it != last_expiry.end()) {
          ASSERT_GE(*expiry, it->second)
              << "op " << i << ": lease on host " << host << " key " << key
              << " moved backwards";
        }
        last_expiry[{host, key}] = *expiry;
      }
    }

    net.queue.RunUntil(now);
  }
  net.queue.RunToCompletion();

  // The modeled protocols must actually have generated traffic under this
  // much sharing; perfect must have stayed silent.
  const CoherenceCounters totals = net.protocol->totals();
  if (modeled) {
    EXPECT_GT(totals.invalidation_messages, 0u);
    EXPECT_GT(totals.stalled_writes, 0u);
  } else {
    EXPECT_FALSE(totals.any());
  }
  if (model == CoherenceModel::kLease) {
    EXPECT_GT(totals.lease_grants, 0u);
    EXPECT_GT(totals.lease_breaks, 0u);
  }
  if (model == CoherenceModel::kDirectory) {
    EXPECT_GT(totals.acks, 0u);
    EXPECT_GT(totals.dirty_fetches, 0u);
  }
}

class CoherenceProtocolNet
    : public ::testing::TestWithParam<std::tuple<Architecture, CoherenceModel>> {};

TEST_P(CoherenceProtocolNet, RandomInterleavingsKeepInvariants) {
  const auto [arch, model] = GetParam();
  for (uint64_t seed : {1u, 7u}) {
    RunInterleaving(arch, model, seed, 4000);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAllStacks, CoherenceProtocolNet,
    ::testing::Combine(::testing::Values(Architecture::kNaive, Architecture::kLookaside,
                                         Architecture::kUnified),
                       ::testing::Values(CoherenceModel::kPerfect, CoherenceModel::kDirectory,
                                         CoherenceModel::kLease)),
    [](const ::testing::TestParamInfo<std::tuple<Architecture, CoherenceModel>>& named) {
      return std::string(ArchitectureName(std::get<0>(named.param))) + "_" +
             CoherenceModelName(std::get<1>(named.param));
    });

// The sharing-state machine on a hand-driven script: Invalid -> Exclusive
// (first read) -> Shared (second reader) -> Dirty + sole holder (write) ->
// reconciled back to Shared when another host reads.
TEST(CoherenceStateMachine, FollowsMesiTransitions) {
  for (CoherenceModel model : {CoherenceModel::kDirectory, CoherenceModel::kLease}) {
    TestNet net(Architecture::kUnified, model, 3);
    const BlockKey key = MakeBlockKey(0, 5);
    CoherenceProtocol& protocol = *net.protocol;
    EXPECT_EQ(protocol.StateOf(key), SharingState::kInvalid);

    SimTime now = 0;
    HitLevel level = HitLevel::kRam;
    now = net.hosts[0]->stack->Read(protocol.BeforeRead(0, key, now), key, &level);
    EXPECT_EQ(protocol.StateOf(key), SharingState::kExclusive);

    now = net.hosts[1]->stack->Read(protocol.BeforeRead(1, key, now), key, &level);
    EXPECT_EQ(protocol.StateOf(key), SharingState::kShared);

    now = net.hosts[1]->stack->Write(now, key);
    now = protocol.OnWrite(1, key, now, /*measured=*/true);
    EXPECT_EQ(protocol.StateOf(key), SharingState::kDirty);
    EXPECT_FALSE(net.hosts[0]->stack->Holds(key));

    // A remote read recalls the dirty copy: host 1 flushes and drops it,
    // leaving host 2 the sole (clean) holder.
    now = net.hosts[2]->stack->Read(protocol.BeforeRead(2, key, now), key, &level);
    EXPECT_FALSE(net.hosts[1]->stack->Holds(key));
    EXPECT_EQ(protocol.StateOf(key), SharingState::kExclusive);
    EXPECT_GT(protocol.totals().dirty_fetches, 0u);
  }
}

// Forwards to the net's RigTransport and counts the dirty probes.
class ProbeCountingTransport final : public CoherenceTransport {
 public:
  explicit ProbeCountingTransport(CoherenceTransport& inner) : inner_(&inner) {}

  SimTime HostToFiler(int host, SimTime now, bool carries_data) override {
    return inner_->HostToFiler(host, now, carries_data);
  }
  SimTime FilerToHost(int host, SimTime now, bool carries_data) override {
    return inner_->FilerToHost(host, now, carries_data);
  }
  SimTime FilerService(BlockKey key, SimTime arrival, SimDuration service) override {
    return inner_->FilerService(key, arrival, service);
  }
  void DropCopy(int host, BlockKey key) override { inner_->DropCopy(host, key); }
  bool HoldsCopy(int host, BlockKey key) const override { return inner_->HoldsCopy(host, key); }
  bool HoldsDirty(int host, BlockKey key) const override {
    ++dirty_probes;
    return inner_->HoldsDirty(host, key);
  }

  mutable uint64_t dirty_probes = 0;

 private:
  CoherenceTransport* inner_;
};

// A dirty copy is its block's only copy, so a read miss probes another
// host's dirty bit only when exactly one other host holds the block.
TEST(CoherenceReconcile, ProbesOnlyASoleOtherHolder) {
  for (CoherenceModel model : {CoherenceModel::kDirectory, CoherenceModel::kLease}) {
    TestNet net(Architecture::kUnified, model, 3);
    ProbeCountingTransport counting(*net.transport);
    const std::unique_ptr<CoherenceProtocol> protocol = MakeCoherenceProtocol(
        MakeCoherenceParams(model, kHosts, net.timing), &net.directory, &counting);
    const BlockKey key = MakeBlockKey(0, 9);
    SimTime now = 0;
    HitLevel level = HitLevel::kRam;
    const auto read_miss = [&](int host) {
      const uint64_t before = counting.dirty_probes;
      now = net.hosts[static_cast<size_t>(host)]->stack->Read(protocol->BeforeRead(host, key, now),
                                                             key, &level);
      return counting.dirty_probes - before;
    };
    EXPECT_EQ(read_miss(0), 0u) << CoherenceModelName(model) << ": no other holder";
    EXPECT_EQ(read_miss(1), 1u) << CoherenceModelName(model) << ": one clean holder";
    EXPECT_EQ(read_miss(2), 0u) << CoherenceModelName(model) << ": two clean holders";
    EXPECT_EQ(net.directory.holder_count(key), 3);
    EXPECT_EQ(protocol->totals().dirty_fetches, 0u);
  }
}

std::vector<std::unique_ptr<HostRig>> SmallRigs(int num_hosts, const TimingModel& timing,
                                                EventQueue& queue, StorageBackend& backend) {
  StackConfig config;
  config.ram_blocks = 8;
  config.flash_blocks = 32;
  std::vector<std::unique_ptr<HostRig>> hosts;
  for (int h = 0; h < num_hosts; ++h) {
    hosts.push_back(std::make_unique<HostRig>(Architecture::kLookaside, config, timing,
                                              /*block_bytes=*/4096, queue, backend));
  }
  return hosts;
}

// The transport's own contract, below the protocols: directory service
// queues at the filer shard that owns the block, the shard its data reads
// go to.
TEST(RigTransport, ControlServiceQueuesAtTheBlocksShard) {
  constexpr int kShards = 4;
  const TimingModel timing;
  EventQueue queue;
  StorageBackend backend(timing, kShards, ShardStrategy::kHash, /*base_seed=*/5);
  Directory directory(2);
  const std::vector<std::unique_ptr<HostRig>> hosts = SmallRigs(2, timing, queue, backend);
  RigTransport transport(hosts, backend, directory);
  std::vector<uint64_t> expected(kShards, 0);
  for (uint64_t block = 0; block < 64; ++block) {
    const BlockKey key = MakeBlockKey(0, block);
    transport.FilerService(key, 0, timing.coherence_ctrl_ns);
    ++expected[static_cast<size_t>(backend.router().ShardOf(key))];
  }
  for (int s = 0; s < kShards; ++s) {
    EXPECT_GT(expected[static_cast<size_t>(s)], 0u) << "shard " << s << " owns no key";
    EXPECT_EQ(backend.shard(s).control_messages(), expected[static_cast<size_t>(s)])
        << "shard " << s;
  }
}

// Residency reaches the directory only when another host could be told
// about it: a lone host's holder sets stay empty (DESIGN.md §15).
TEST(RigTransport, FeedsTheDirectoryOnlyOnMultiHostFleets) {
  for (int num_hosts : {1, 2}) {
    const TimingModel timing;
    EventQueue queue;
    StorageBackend backend(timing, /*num_shards=*/1, ShardStrategy::kHash, /*base_seed=*/5);
    Directory directory(num_hosts);
    const std::vector<std::unique_ptr<HostRig>> hosts =
        SmallRigs(num_hosts, timing, queue, backend);
    RigTransport transport(hosts, backend, directory);
    const BlockKey key = MakeBlockKey(0, 3);
    HitLevel level = HitLevel::kRam;
    hosts[0]->stack->Read(0, key, &level);
    ASSERT_TRUE(transport.HoldsCopy(0, key));
    EXPECT_EQ(directory.holder_count(key), num_hosts > 1 ? 1 : 0) << num_hosts << " hosts";
  }
}

}  // namespace
}  // namespace flashsim
