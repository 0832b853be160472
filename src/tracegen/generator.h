// Synthetic trace source (§4).
//
// Streams a trace with the paper's published characteristics: 80% of I/Os
// drawn from a working set and 20% from the whole file server; I/Os spread
// uniformly over hosts and threads; Poisson I/O sizes clamped to file/extent
// bounds; total volume a fixed multiple (4x) of the working set size, the
// first half flagged as cache warmup.
//
// Generation is fully deterministic in the seed. The skip_warmup option
// emits only the measured half while preserving the record stream byte-for-
// byte with the warmed run — this is how Fig 10 compares a recovered
// (persistent) cache against one that lost its contents in a crash.
#ifndef FLASHSIM_SRC_TRACEGEN_GENERATOR_H_
#define FLASHSIM_SRC_TRACEGEN_GENERATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/trace/source.h"
#include "src/tracegen/fs_model.h"
#include "src/tracegen/working_set.h"

namespace flashsim {

struct SyntheticTraceSpec {
  uint64_t working_set_bytes = 0;  // required
  double write_fraction = 0.30;    // paper baseline: 30% writes
  uint16_t num_hosts = 1;
  uint16_t threads_per_host = 8;   // paper: eight threads per host
  double working_set_io_fraction = 0.80;  // 80% of I/Os from the working set
  double io_size_mean_blocks = 1.0;       // Poisson mean, clamped to >= 1
  double subregion_mean_blocks = 2048;    // working-set chunk mean (8 MiB)
  double volume_multiplier = 4.0;         // total volume = 4x working set
  double warmup_fraction = 0.5;           // first half of volume is warmup
  bool shared_working_set = true;   // hosts share one WS (§7.9 worst case);
                                    // false gives each host a private WS
  bool skip_warmup = false;         // cold-start runs (Fig 10)
  uint64_t seed = 1;
};

class SyntheticTraceSource : public TraceSource {
 public:
  // `fs` must outlive the source.
  SyntheticTraceSource(const FsModel& fs, const SyntheticTraceSpec& spec);

  bool Next(TraceRecord* record) override;
  void Rewind() override;

  // Upper bound: every record covers at least one block, so the block
  // budget bounds the record count.
  uint64_t SizeHint() const override { return total_blocks_target_; }

  const SyntheticTraceSpec& spec() const { return spec_; }
  uint64_t working_set_blocks() const { return ws_blocks_; }
  const WorkingSet& working_set(uint16_t host) const {
    return *working_sets_[spec_.shared_working_set ? 0 : host];
  }

 private:
  void GenerateOne(TraceRecord* record);

  const FsModel* fs_;
  SyntheticTraceSpec spec_;
  std::vector<std::unique_ptr<WorkingSet>> working_sets_;
  PoissonSampler io_size_;
  Rng rng_;
  uint64_t ws_blocks_ = 0;
  uint64_t total_blocks_target_ = 0;
  uint64_t warmup_blocks_target_ = 0;
  uint64_t emitted_blocks_ = 0;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_TRACEGEN_GENERATOR_H_
