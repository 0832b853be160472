// FTL-backed flash device and its end-to-end integration: the §6.2 claim
// ("a single average access latency is fine") becomes testable — an
// FTL-backed run with matched NAND timings must produce application
// latencies close to the average-latency model.
#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/core/simulation.h"
#include "tests/stack_test_util.h"

namespace flashsim {
namespace {

TEST(FtlDevice, AverageModeIgnoresKeys) {
  TimingModel timing;
  FlashDevice device(timing);
  EXPECT_FALSE(device.ftl_enabled());
  EXPECT_EQ(device.Read(0), 88000);
  EXPECT_EQ(device.Write(0, 456), 21000);
  device.Trim(123);  // no-op
}

TEST(FtlDevice, FtlModeChargesNandOperations) {
  TimingModel timing;
  FlashDevice device(timing);
  device.EnableFtl(64, FtlParams{}, FtlDeviceTimings{});
  ASSERT_TRUE(device.ftl_enabled());
  // GC-free regime: one program per write, one read per read — identical
  // to the average model by construction.
  EXPECT_EQ(device.Write(0, 1), 21000);
  EXPECT_EQ(device.Read(0), 88000);
  EXPECT_EQ(device.ftl()->host_writes(), 1u);
}

TEST(FtlDevice, SameKeyReusesLogicalPage) {
  TimingModel timing;
  FlashDevice device(timing);
  device.EnableFtl(4, FtlParams{}, FtlDeviceTimings{});
  for (int i = 0; i < 100; ++i) {
    device.Write(0, 42);
  }
  EXPECT_EQ(device.ftl()->host_writes(), 100u);
  device.ftl()->CheckInvariants();
}

TEST(FtlDevice, TrimFreesLogicalPages) {
  TimingModel timing;
  FlashDevice device(timing);
  device.EnableFtl(2, FtlParams{}, FtlDeviceTimings{});
  // Write-trim cycles over many distinct keys never exhaust 2 pages.
  SimTime t = 0;
  for (BlockKey key = 1; key <= 500; ++key) {
    t = device.Write(t, key);
    device.Trim(key);
  }
  device.ftl()->CheckInvariants();
}

TEST(FtlDevice, FullMappingReclaimsOldestWhenNotTrimmed) {
  // Stacks normally trim on eviction; if one write slips through after
  // eviction, the device reclaims the oldest mapping instead of aborting.
  TimingModel timing;
  timing.ftl_trim_enabled = false;  // simulate a non-trimming cache
  FlashDevice device(timing);
  device.EnableFtl(8, FtlParams{}, FtlDeviceTimings{});
  SimTime t = 0;
  for (BlockKey key = 1; key <= 64; ++key) {
    t = device.Write(t, key);
  }
  device.ftl()->CheckInvariants();
}

TEST(FtlDevice, PersistentFlashAddsMetadataProgram) {
  TimingModel timing;
  timing.persistent_flash = true;
  FlashDevice device(timing);
  device.EnableFtl(64, FtlParams{}, FtlDeviceTimings{});
  EXPECT_EQ(device.Write(0, 1), 2 * 21000);
}

TEST(FtlIntegration, StacksRunOnFtlBackedFlash) {
  StackHarness plain(Architecture::kNaive, 8, 32, WritebackPolicy::kPeriodic1,
                     WritebackPolicy::kAsync);
  // A harness-level FTL device: drive the same ops through a simulation
  // config instead (covers the Simulation wiring).
  SimConfig config;
  config.ram_bytes = 8 * 4096;
  config.flash_bytes = 32 * 4096;
  config.timing.use_ftl = true;
  config.timing.filer_fast_read_rate = 1.0;
  Simulation sim(config);
  std::vector<TraceRecord> ops;
  Rng rng(8);
  for (int i = 0; i < 5000; ++i) {
    TraceRecord r;
    r.op = rng.NextBool(0.3) ? TraceOp::kWrite : TraceOp::kRead;
    r.file_id = 1;
    r.block = rng.NextBounded(64);
    ops.push_back(r);
  }
  VectorTraceSource source(std::move(ops));
  const Metrics m = sim.Run(source);
  EXPECT_GT(m.read_latency.count(), 0u);
  const auto& device = sim.flash_device(0);
  ASSERT_TRUE(device.ftl_enabled());
  EXPECT_GT(device.ftl()->host_writes(), 0u);
  device.ftl()->CheckInvariants();
  sim.CheckInvariants();
  (void)plain;
}

TEST(FtlIntegration, AverageModelMatchesFtlModelWhenGcIsRare) {
  // §6.2's conclusion, inverted into a test: with matched NAND timings and
  // a trimming cache (GC rarely relocates anything), the FTL-backed
  // simulation's application latencies track the average-latency model.
  ExperimentParams params;
  params.scale = 1024;
  params.working_set_gib = 60.0;
  params.filer_tib = 0.25;
  params.seed = 21;
  // Async write-through keeps application writes off the flash path, as at
  // full scale (the unscaled 1-second syncer period otherwise interacts
  // with the scaled-down RAM; see tests/persistence_test.cc).
  params.ram_policy = WritebackPolicy::kAsync;
  const Metrics avg = RunExperiment(params).metrics;
  params.timing.use_ftl = true;
  const Metrics ftl = RunExperiment(params).metrics;
  // The FTL-backed device adds real work the averages model folds away
  // (block erases, occasional relocations sharing the device with reads),
  // so "close" means within a quarter — not microsecond-identical. Cache
  // behavior itself must be unchanged.
  EXPECT_NEAR(ftl.mean_read_us(), avg.mean_read_us(), 0.25 * avg.mean_read_us());
  EXPECT_NEAR(ftl.flash_hit_rate(), avg.flash_hit_rate(), 0.02);
  EXPECT_NEAR(ftl.mean_write_us(), avg.mean_write_us(), 0.25 * avg.mean_write_us() + 1.0);
}

}  // namespace
}  // namespace flashsim
