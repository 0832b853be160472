// ParallelRunner: executes the points of a Sweep on a pool of worker
// threads while preserving serial semantics.
//
// Every point is an independent simulation — its own Simulation, trace
// source, and seeded Rng — so runs can execute on any thread in any order.
// Determinism is restored at the collection edge: results come back indexed
// by sweep order, and the streaming variant emits them strictly in that
// order, so a bench's output is bit-identical whether --jobs=1 or
// --jobs=64. The one piece of cross-run shared state, the memoized FsModel
// cache, is guarded by a mutex inside GetFsModel (see experiment.h).
#ifndef FLASHSIM_SRC_HARNESS_RUNNER_H_
#define FLASHSIM_SRC_HARNESS_RUNNER_H_

#include <functional>
#include <vector>

#include "src/core/experiment.h"
#include "src/harness/sweep.h"

namespace flashsim {

class ParallelRunner {
 public:
  using RunFn = std::function<ExperimentResult(const SweepPoint&)>;
  using EmitFn = std::function<void(const SweepPoint&, const ExperimentResult&)>;

  // jobs <= 0 means hardware concurrency.
  explicit ParallelRunner(int jobs = 0);

  int jobs() const { return jobs_; }

  // Runs every point; result i corresponds to points[i]. Blocks until all
  // points complete.
  std::vector<ExperimentResult> Run(const std::vector<SweepPoint>& points,
                                    const RunFn& fn) const;

  // Streaming variant: calls emit(point, result) on the calling thread, in
  // sweep order, as soon as the ordered prefix of results is complete (a
  // finished run later in the order waits for its predecessors). emit never
  // runs concurrently with itself.
  void RunOrdered(const std::vector<SweepPoint>& points, const RunFn& fn,
                  const EmitFn& emit) const;

  // Convenience: expand + run.
  std::vector<ExperimentResult> Run(const Sweep& sweep) const;

 private:
  int jobs_;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_HARNESS_RUNNER_H_
