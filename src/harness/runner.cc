#include "src/harness/runner.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/util/assert.h"

namespace flashsim {

namespace {

ExperimentResult DefaultRun(const SweepPoint& point) { return RunExperiment(point.params); }

int ResolveJobs(int jobs) {
  if (jobs > 0) {
    return jobs;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

ParallelRunner::ParallelRunner(int jobs) : jobs_(ResolveJobs(jobs)) {}

std::vector<ExperimentResult> ParallelRunner::Run(const Sweep& sweep) const {
  return Run(sweep.Expand(), DefaultRun);
}

std::vector<ExperimentResult> ParallelRunner::Run(const std::vector<SweepPoint>& points,
                                                  const RunFn& fn) const {
  std::vector<ExperimentResult> results(points.size());
  RunOrdered(points, fn, [&results](const SweepPoint& point, const ExperimentResult& result) {
    results[point.index] = result;
  });
  return results;
}

void ParallelRunner::RunOrdered(const std::vector<SweepPoint>& points, const RunFn& fn,
                                const EmitFn& emit) const {
  for (size_t i = 0; i < points.size(); ++i) {
    FLASHSIM_CHECK(points[i].index == i);
  }

  if (jobs_ <= 1 || points.size() <= 1) {
    // Serial reference path: run and emit in order on the calling thread.
    for (const SweepPoint& point : points) {
      emit(point, fn(point));
    }
    return;
  }

  const int workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(jobs_), points.size()));

  std::mutex mu;
  std::condition_variable result_ready;
  std::vector<ExperimentResult> results(points.size());
  std::vector<char> done(points.size(), 0);  // guarded by mu
  std::atomic<size_t> next{0};

  auto worker = [&]() {
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= points.size()) {
        return;
      }
      ExperimentResult result = fn(points[i]);
      {
        std::lock_guard<std::mutex> lock(mu);
        results[i] = std::move(result);
        done[i] = 1;
      }
      result_ready.notify_one();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int t = 0; t < workers; ++t) {
    pool.emplace_back(worker);
  }

  // The calling thread is the single consumer: emit strictly in sweep
  // order, waiting for each point's result to land.
  for (size_t i = 0; i < points.size(); ++i) {
    std::unique_lock<std::mutex> lock(mu);
    result_ready.wait(lock, [&] { return done[i] != 0; });
    ExperimentResult result = std::move(results[i]);
    lock.unlock();
    emit(points[i], result);
  }

  for (std::thread& t : pool) {
    t.join();
  }
}

}  // namespace flashsim
