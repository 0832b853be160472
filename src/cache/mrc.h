// Miss-ratio curves: a Mattson reference model (DESIGN.md §14).
//
// ShadowLru computes the exact Mattson stack distance of every access in
// O(log n): the reuse distance of a read equals the number of *distinct*
// blocks touched since that block's previous access, which is exactly the
// size a (simulated) LRU cache would have needed to hit. Implementation:
// each access occupies a monotonically increasing position on a time axis;
// a Fenwick tree counts live positions (one per resident distinct key), so
// the distance is a suffix sum past the key's previous position. The time
// axis is compacted in place when accesses dwarf distinct keys, keeping
// memory proportional to the working set, not the trace.
//
// HitRateCurve folds the distance stream into a histogram — exact for
// distances below 64, power-of-two buckets above — from which the hit-rate
// curve at any cache size falls out as a cumulative sum. The curve is
// monotone nondecreasing in cache size by construction (mrc_test pins it).
//
// The collector is fed the *application* read stream of a trace, not any
// one tier's accesses, and the simulator never calls it: one curve answers
// "what hit rate would an exact-LRU cache of size c get" for every c at
// once — the cache-sizing question §7 of the paper answers with one full
// simulation per point (mrc_test checks the two agree).
#ifndef FLASHSIM_SRC_CACHE_MRC_H_
#define FLASHSIM_SRC_CACHE_MRC_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/trace/record.h"

namespace flashsim {

class ShadowLru {
 public:
  // Returned for a block's first-ever access (infinite stack distance).
  static constexpr uint64_t kColdMiss = UINT64_MAX;

  ShadowLru();

  // Records an access and returns its stack distance: 0 means `key` was
  // the most recently used distinct block, d means d distinct blocks were
  // touched since `key`'s previous access. kColdMiss on first access.
  uint64_t Access(BlockKey key);

  uint64_t distinct_keys() const { return last_pos_.size(); }
  uint64_t compactions() const { return compactions_; }

 private:
  void FenwickAdd(uint64_t pos, int64_t delta);
  uint64_t FenwickPrefix(uint64_t pos) const;  // sum of [0, pos]
  void Compact();

  std::unordered_map<BlockKey, uint64_t> last_pos_;  // key -> live position
  std::vector<int64_t> tree_;                        // Fenwick over positions
  uint64_t next_pos_ = 0;
  uint64_t live_ = 0;
  uint64_t compactions_ = 0;
};

class HitRateCurve {
 public:
  // Records one access's stack distance (ShadowLru::kColdMiss for cold).
  void Record(uint64_t distance);

  uint64_t total_accesses() const { return total_; }
  uint64_t cold_misses() const { return cold_; }

  // Hit rate an exact-LRU cache of `blocks` blocks would have achieved on
  // the observed stream (cold misses count as misses at every size).
  // Conservative at bucket granularity: distances inside a partially
  // covered power-of-two bucket are not counted as hits.
  double HitRateAt(uint64_t blocks) const;

  struct Point {
    uint64_t cache_blocks = 0;
    double hit_rate = 0.0;
  };
  // The curve sampled at every bucket boundary, smallest cache first; the
  // hit rate is monotone nondecreasing across the points.
  std::vector<Point> Curve() const;

 private:
  static size_t BucketIndex(uint64_t distance);
  static uint64_t BucketLimit(size_t index);  // distances in bucket are < limit

  std::vector<uint64_t> buckets_;
  uint64_t total_ = 0;
  uint64_t cold_ = 0;
};

// Distances from the shadow stack feed the curve.
class MrcCollector {
 public:
  void OnRead(BlockKey key) { curve_.Record(shadow_.Access(key)); }
  const HitRateCurve& curve() const { return curve_; }

 private:
  ShadowLru shadow_;
  HitRateCurve curve_;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_CACHE_MRC_H_
