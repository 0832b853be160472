// Per-layer host time, measured from outside the simulator.
//
// The benchmark splits the wall time of Simulation::Run across the
// simulator's layers without instrumenting src/: a pass-through TraceSource
// times the trace producer inside the run and keeps the records it saw, and
// the other layers are timed by replaying that record stream through each
// layer's public API on its own. Each replay returns the host nanoseconds
// spent in its timed loop (set-up of the replayed structures excluded).
#ifndef FLASHSIM_PERFBENCH_LAYER_REPLAY_H_
#define FLASHSIM_PERFBENCH_LAYER_REPLAY_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/trace/record.h"
#include "src/trace/source.h"

namespace flashbench {

using Clock = std::chrono::steady_clock;

inline int64_t NsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
}

// Mean cost of one Clock::now() call, measured back to back. A timed call
// includes about one such cost on top of its own work.
int64_t ClockCostNs();

// Wraps `inner` (which must outlive it), timing every Next() and keeping a
// copy of every record delivered. self_ns() is the summed time inside the
// wrapped Next() calls, less one clock cost per call.
class TimingSource final : public flashsim::TraceSource {
 public:
  TimingSource(flashsim::TraceSource& inner, int64_t clock_cost_ns);

  bool Next(flashsim::TraceRecord* record) override;
  void Rewind() override;
  uint64_t SizeHint() const override { return inner_->SizeHint(); }

  int64_t self_ns() const;
  const std::vector<flashsim::TraceRecord>& records() const { return records_; }

 private:
  flashsim::TraceSource* inner_;
  int64_t clock_cost_ns_;
  int64_t raw_ns_ = 0;
  uint64_t calls_ = 0;
  std::vector<flashsim::TraceRecord> records_;
};

// Blocks (the unit of every per-block figure) in a record stream.
uint64_t CountBlocks(const std::vector<flashsim::TraceRecord>& records);

// src/cache: every block access replayed through standalone LruBlockCache
// indexes sized like the run's tiers, one set per host — a RAM and a flash
// cache (naive, lookaside), or one mixed-media cache (unified). A hit is
// Lookup + Touch; a miss is Lookup + Insert at each tier it misses.
int64_t ReplayCache(const flashsim::SimConfig& config,
                    const std::vector<flashsim::TraceRecord>& records);

// src/arch (with src/device, src/backend, src/ftl beneath it): every block
// access replayed through MakeCacheStack stacks on real devices over one
// filer, one stack per host, outside the event loop. Operations run one at
// a time in trace order; the background writers' completions are drained
// after each record. No coherence traffic and no syncer ticks, so the
// stacks do similar but not identical work to the run's. `use_ftl`
// overrides the configuration's FTL switch.
int64_t ReplayArch(const flashsim::SimConfig& config,
                   const std::vector<flashsim::TraceRecord>& records, bool use_ftl);

// src/sim: an EventQueue pump that dispatches `events` typed events while
// holding `depth` outstanding, each handler rescheduling itself a
// pseudo-random delay ahead.
int64_t PumpEvents(uint64_t events, int depth);

// src/trace: writes `records` to a binary trace file at `path` (untimed),
// then times a full pass of OpenTraceSource over it. Returns -1 and fills
// *error if the file cannot be written or read back. The file is removed.
int64_t ReplayTraceFile(const std::string& path,
                        const std::vector<flashsim::TraceRecord>& records, std::string* error);

// Times a full pass of `source` from its current position.
int64_t DrainSource(flashsim::TraceSource& source, uint64_t* records);

}  // namespace flashbench

#endif  // FLASHSIM_PERFBENCH_LAYER_REPLAY_H_
