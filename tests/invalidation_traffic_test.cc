// What an invalidation costs under each coherence protocol (DESIGN.md §15).
// The paper counts invalidations but treats them as free (§3.8); the
// perfect model keeps that, while directory and lease put the protocol's
// packets on the network. Expected latencies derive from Table 1: a RAM
// access is 0.4 µs and a small packet 8.2 µs; the directory's service per
// control message (TimingModel::coherence_ctrl_ns) is 10 µs.
#include <gtest/gtest.h>

#include "src/core/simulation.h"
#include "tests/stack_test_util.h"

namespace flashsim {
namespace {

constexpr SimDuration kPacket = 8200;  // Table 1: one small network packet
constexpr SimDuration kCtrl = 10000;   // directory service per control message
// RAM write, then report (writer -> filer), directory service, callback
// (filer -> holder), ack (holder -> filer) and grant (filer -> writer):
// 0.4 + 4 x 8.2 + 10 = 43.2 us.
constexpr SimDuration kOneHolderWrite = kRam + 4 * kPacket + kCtrl;
static_assert(kOneHolderWrite == 43200);

SimConfig HostsConfig(CoherenceModel model, int hosts = 2) {
  SimConfig config;
  config.ram_bytes = 16 * 4096;
  config.flash_bytes = 64 * 4096;
  config.num_hosts = hosts;
  config.threads_per_host = 1;
  config.coherence = model;
  config.timing.filer_fast_read_rate = 1.0;
  return config;
}

TraceRecord Op(TraceOp op, uint16_t host, uint64_t block) {
  TraceRecord r;
  r.op = op;
  r.host = host;
  r.file_id = 1;
  r.block = block;
  return r;
}

TEST(InvalidationCost, PerfectCountsTheInvalidationButSendsNothing) {
  Simulation sim(HostsConfig(CoherenceModel::kPerfect));
  VectorTraceSource source({Op(TraceOp::kRead, 0, 7), Op(TraceOp::kWrite, 1, 7)});
  const Metrics m = sim.Run(source);
  // Host 0's copy is stale: one invalidation, dropped for free, so the
  // write costs its RAM access alone.
  EXPECT_EQ(m.invalidations, 1u);
  EXPECT_EQ(m.invalidation_messages, 0u);
  EXPECT_FALSE(m.coherence.any());
  EXPECT_EQ(static_cast<SimDuration>(m.write_latency.mean_ns()), kRam);
}

TEST(InvalidationCost, NonInvalidatingWritesAreFreeInAllModels) {
  for (CoherenceModel model :
       {CoherenceModel::kPerfect, CoherenceModel::kDirectory, CoherenceModel::kLease}) {
    Simulation sim(HostsConfig(model));
    VectorTraceSource source({Op(TraceOp::kWrite, 1, 99)});
    const Metrics m = sim.Run(source);
    // No other host holds block 99: no transaction, a RAM-speed write.
    EXPECT_EQ(m.invalidations, 0u) << CoherenceModelName(model);
    EXPECT_EQ(m.invalidation_messages, 0u) << CoherenceModelName(model);
    EXPECT_EQ(static_cast<SimDuration>(m.write_latency.mean_ns()), kRam)
        << CoherenceModelName(model);
  }
}

// Host 1 reads two unrelated blocks before it writes, so the write starts
// after every earlier packet and filer service has finished: the links and
// the filer are idle and the write pays the protocol's path alone.
TEST(InvalidationCost, OneHolderCostsFourPacketsAndADirectoryService) {
  for (CoherenceModel model : {CoherenceModel::kDirectory, CoherenceModel::kLease}) {
    Simulation sim(HostsConfig(model));
    VectorTraceSource source({
        Op(TraceOp::kRead, 0, 7),
        Op(TraceOp::kRead, 1, 100),
        Op(TraceOp::kRead, 1, 101),
        Op(TraceOp::kWrite, 1, 7),
    });
    ASSERT_EQ(sim.config().timing.net_packet_base_ns, kPacket);
    ASSERT_EQ(sim.config().timing.coherence_ctrl_ns, kCtrl);
    const Metrics m = sim.Run(source);
    EXPECT_EQ(m.invalidations, 1u) << CoherenceModelName(model);
    // Host 0's lease (100 ms) is still live, so lease breaks it with the
    // same callback and ack as the directory's invalidation.
    EXPECT_EQ(static_cast<SimDuration>(m.write_latency.mean_ns()), kOneHolderWrite)
        << CoherenceModelName(model);
    EXPECT_EQ(m.coherence.acks, 1u) << CoherenceModelName(model);
    EXPECT_EQ(m.coherence.stalled_writes, 1u) << CoherenceModelName(model);
  }
}

TEST(InvalidationCost, MessagesScaleWithHolders) {
  // Three hosts cache the block; the fourth writes it.
  Simulation sim(HostsConfig(CoherenceModel::kDirectory, /*hosts=*/4));
  VectorTraceSource source({
      Op(TraceOp::kRead, 0, 7),
      Op(TraceOp::kRead, 1, 7),
      Op(TraceOp::kRead, 2, 7),
      Op(TraceOp::kWrite, 3, 7),
  });
  const Metrics m = sim.Run(source);
  EXPECT_EQ(m.invalidations, 3u);
  // The writer's messages: 1 report + 3 callbacks + 3 acks + 1 grant.
  const CoherenceCounters& writer = sim.coherence().host_counters(3);
  EXPECT_EQ(writer.invalidation_messages, 1u + 3u + 3u + 1u);
  EXPECT_EQ(writer.acks, 3u);
  // Plus each reader's miss: a lookup request and its reply.
  EXPECT_EQ(m.invalidation_messages, 3u * 2u + 8u);
  EXPECT_EQ(m.coherence.lookups, 3u);
}

TEST(InvalidationCost, SharedChurnStillCompletesAndCounts) {
  SimConfig config = HostsConfig(CoherenceModel::kDirectory);
  config.threads_per_host = 2;
  Simulation sim(config);
  std::vector<TraceRecord> ops;
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) {
    TraceRecord r;
    r.op = rng.NextBool(0.4) ? TraceOp::kWrite : TraceOp::kRead;
    r.host = static_cast<uint16_t>(rng.NextBounded(2));
    r.thread = static_cast<uint16_t>(rng.NextBounded(2));
    r.file_id = 1;
    r.block = rng.NextBounded(64);
    r.warmup = i < 2000;
    ops.push_back(r);
  }
  VectorTraceSource source(std::move(ops));
  const Metrics m = sim.Run(source);
  EXPECT_GT(m.invalidations, 0u);
  EXPECT_GT(m.invalidation_messages, 0u);
  sim.CheckInvariants();
  // Invalidating writes wait for their grant, which lifts the mean write
  // above RAM speed (0.4 us).
  EXPECT_GT(m.mean_write_us(), 0.4);
}

}  // namespace
}  // namespace flashsim
