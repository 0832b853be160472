#include "perfbench/layer_replay.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "src/arch/stack_factory.h"
#include "src/backend/storage_backend.h"
#include "src/cache/lru_cache.h"
#include "src/device/background_writer.h"
#include "src/device/flash_device.h"
#include "src/device/network_link.h"
#include "src/device/ram_device.h"
#include "src/sim/event_queue.h"
#include "src/trace/fast_source.h"
#include "src/trace/trace_file.h"

namespace flashbench {

using flashsim::BlockKey;
using flashsim::TraceRecord;

namespace {

template <typename Fn>
void ForEachBlock(const TraceRecord& record, Fn&& fn) {
  for (uint32_t i = 0; i < record.block_count; ++i) {
    fn(flashsim::MakeBlockKey(record.file_id, record.block + i));
  }
}

// Lookup + Touch on a hit, Lookup + Insert on a miss; returns hit.
bool Access(flashsim::LruBlockCache& cache, BlockKey key) {
  const uint32_t slot = cache.Lookup(key);
  if (slot != flashsim::kInvalidSlot) {
    cache.Touch(slot);
    return true;
  }
  std::optional<flashsim::EvictedBlock> evicted;
  cache.Insert(key, /*dirty=*/false, &evicted);
  return false;
}

// One host of the architecture replay, wired like the simulator's own
// per-host state: RAM and flash devices, a network link to the shared
// filer, a background writer, and the configured cache stack.
struct ArchHost {
  ArchHost(const flashsim::SimConfig& config, const flashsim::TimingModel& timing,
           flashsim::EventQueue& queue, flashsim::StorageBackend& backend)
      : ram_dev(timing),
        flash_dev(timing),
        link(timing, config.block_bytes, queue.clock()),
        remote(backend.Connect(link)),
        writer(queue, *remote, &flash_dev, timing.writeback_window) {
    flashsim::StackConfig stack_config;
    stack_config.ram_blocks = config.ram_blocks();
    stack_config.flash_blocks = config.flash_blocks();
    stack_config.ram_policy = config.ram_policy;
    stack_config.flash_policy = config.flash_policy;
    stack_config.replacement = config.replacement;
    stack_config.admission = config.admission;
    if (timing.use_ftl && stack_config.flash_blocks > 0) {
      flashsim::FtlParams ftl_params;
      ftl_params.overprovision = timing.ftl_overprovision;
      ftl_params.pages_per_block = timing.ftl_pages_per_block;
      ftl_params.wear_weight = timing.ftl_wear_weight;
      flashsim::FtlDeviceTimings ftl_timings;
      ftl_timings.page_read_ns = timing.ftl_page_read_ns;
      ftl_timings.page_program_ns = timing.ftl_page_program_ns;
      ftl_timings.block_erase_ns = timing.ftl_block_erase_ns;
      flash_dev.EnableFtl(stack_config.flash_blocks, ftl_params, ftl_timings);
    }
    stack = flashsim::MakeCacheStack(config.arch, stack_config, ram_dev, flash_dev, *remote,
                                     writer);
  }

  flashsim::RamDevice ram_dev;
  flashsim::FlashDevice flash_dev;
  flashsim::NetworkLink link;
  std::unique_ptr<flashsim::StorageService> remote;
  flashsim::BackgroundWriter writer;
  std::unique_ptr<flashsim::CacheStack> stack;
};

// Keeps `depth` events in flight: every dispatch schedules its successor
// until `remaining` runs out.
class PumpHandler final : public flashsim::EventHandler {
 public:
  PumpHandler(flashsim::EventQueue& queue, uint64_t remaining)
      : queue_(&queue), remaining_(remaining) {}

  void HandleEvent(flashsim::SimTime now, uint32_t code, uint64_t arg) override {
    if (remaining_ == 0) {
      return;
    }
    --remaining_;
    queue_->ScheduleEvent(now + NextDelay(), this, code, arg);
  }

  flashsim::SimTime NextDelay() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return 1000 + static_cast<flashsim::SimTime>((state_ >> 33) % 100000);
  }

 private:
  flashsim::EventQueue* queue_;
  uint64_t remaining_;
  uint64_t state_ = 0x9e3779b97f4a7c15ULL;
};

}  // namespace

int64_t ClockCostNs() {
  constexpr int kCalls = 1 << 16;
  const Clock::time_point start = Clock::now();
  Clock::time_point last = start;
  for (int i = 0; i < kCalls; ++i) {
    last = Clock::now();
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(last - start).count() / kCalls;
}

TimingSource::TimingSource(flashsim::TraceSource& inner, int64_t clock_cost_ns)
    : inner_(&inner), clock_cost_ns_(clock_cost_ns) {
  records_.reserve(inner.SizeHint());
}

bool TimingSource::Next(TraceRecord* record) {
  const Clock::time_point start = Clock::now();
  const bool more = inner_->Next(record);
  raw_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
  ++calls_;
  if (more) {
    records_.push_back(*record);
  }
  return more;
}

void TimingSource::Rewind() {
  inner_->Rewind();
  records_.clear();
}

int64_t TimingSource::self_ns() const {
  return raw_ns_ - clock_cost_ns_ * static_cast<int64_t>(calls_);
}

uint64_t CountBlocks(const std::vector<TraceRecord>& records) {
  uint64_t blocks = 0;
  for (const TraceRecord& record : records) {
    blocks += record.block_count;
  }
  return blocks;
}

int64_t ReplayCache(const flashsim::SimConfig& config, const std::vector<TraceRecord>& records) {
  const bool unified = config.arch == flashsim::Architecture::kUnified;
  std::vector<std::unique_ptr<flashsim::LruBlockCache>> ram;
  std::vector<std::unique_ptr<flashsim::LruBlockCache>> flash;
  for (int h = 0; h < config.num_hosts; ++h) {
    if (unified) {
      ram.push_back(std::make_unique<flashsim::LruBlockCache>(
          "replay.unified", config.ram_blocks(), config.flash_blocks(), config.replacement));
    } else {
      ram.push_back(std::make_unique<flashsim::LruBlockCache>("replay.ram", config.ram_blocks(),
                                                              0, config.replacement));
      flash.push_back(std::make_unique<flashsim::LruBlockCache>(
          "replay.flash", config.flash_blocks(), 0, config.replacement));
    }
  }
  const Clock::time_point start = Clock::now();
  for (const TraceRecord& record : records) {
    const size_t host = record.host % static_cast<size_t>(config.num_hosts);
    ForEachBlock(record, [&](BlockKey key) {
      if (!Access(*ram[host], key) && !unified) {
        Access(*flash[host], key);
      }
    });
  }
  return NsSince(start);
}

int64_t ReplayArch(const flashsim::SimConfig& config, const std::vector<TraceRecord>& records,
                   bool use_ftl) {
  flashsim::TimingModel timing = config.timing;
  timing.use_ftl = use_ftl;
  flashsim::EventQueue queue;
  std::unique_ptr<flashsim::StorageBackend> backend = flashsim::MakeStorageBackend(
      timing, config.num_filers, config.shard_strategy, config.seed);
  std::vector<std::unique_ptr<ArchHost>> hosts;
  for (int h = 0; h < config.num_hosts; ++h) {
    hosts.push_back(std::make_unique<ArchHost>(config, timing, queue, *backend));
  }
  const Clock::time_point start = Clock::now();
  flashsim::SimTime now = 0;
  for (const TraceRecord& record : records) {
    flashsim::CacheStack& stack =
        *hosts[record.host % static_cast<size_t>(config.num_hosts)]->stack;
    flashsim::SimTime t = now;
    ForEachBlock(record, [&](BlockKey key) {
      if (record.op == flashsim::TraceOp::kRead) {
        flashsim::HitLevel level = flashsim::HitLevel::kRam;
        t = stack.Read(t, key, &level);
      } else {
        t = stack.Write(t, key);
      }
    });
    now = t;
    queue.RunUntil(now);
  }
  queue.RunToCompletion();
  return NsSince(start);
}

int64_t PumpEvents(uint64_t events, int depth) {
  flashsim::EventQueue queue;
  queue.Reserve(static_cast<size_t>(depth));
  const uint64_t seeded = std::min<uint64_t>(events, static_cast<uint64_t>(depth));
  PumpHandler handler(queue, events - seeded);
  for (uint64_t i = 0; i < seeded; ++i) {
    queue.ScheduleEvent(handler.NextDelay(), &handler, 0, i);
  }
  const Clock::time_point start = Clock::now();
  queue.RunToCompletion();
  return NsSince(start);
}

int64_t DrainSource(flashsim::TraceSource& source, uint64_t* records) {
  TraceRecord record;
  uint64_t count = 0;
  const Clock::time_point start = Clock::now();
  while (source.Next(&record)) {
    ++count;
  }
  const int64_t ns = NsSince(start);
  *records = count;
  return ns;
}

int64_t ReplayTraceFile(const std::string& path, const std::vector<TraceRecord>& records,
                        std::string* error) {
  {
    std::unique_ptr<flashsim::TraceFileWriter> writer =
        flashsim::TraceFileWriter::Create(path, flashsim::TraceFormat::kBinary, error);
    if (writer == nullptr) {
      return -1;
    }
    for (const TraceRecord& record : records) {
      writer->Write(record);
    }
    if (!writer->Close()) {
      *error = "cannot write trace file " + path;
      std::remove(path.c_str());
      return -1;
    }
  }
  int64_t ns = -1;
  std::unique_ptr<flashsim::TraceSource> source = flashsim::OpenTraceSource(path, error);
  if (source != nullptr) {
    uint64_t read = 0;
    ns = DrainSource(*source, &read);
    if (read != records.size()) {
      *error = "trace file " + path + " read back " + std::to_string(read) + " of " +
               std::to_string(records.size()) + " records";
      ns = -1;
    }
  }
  std::remove(path.c_str());
  return ns;
}

}  // namespace flashbench
