// Replacement / admission policy plugin layer (DESIGN.md §14).
//
// `LruBlockCache` owns the chain, the block index, and the dirty lists; an
// `EvictionPolicy` object decides *order*: what happens on a hit, where a
// new block enters the chain, and which resident slot is the next victim.
// Exact LRU — the paper's fixed choice (§1) — is one registered policy;
// the zoo adds the variants the flash-endurance literature shows matter
// (segmented LRU, CLOCK, LRU-K) without touching the cache's bookkeeping.
//
// The contract (see DESIGN.md §14 for the full rules):
//   - A policy may reorder the chain only through the Chain* surface on
//     LruBlockCache and may keep per-slot side state of its own, sized to
//     `capacity()`. It must never touch the index, dirty lists, or counters.
//   - The chain order *is* the policy's observable state: the differential
//     oracle snapshots it (MRU→LRU) and a reference model per policy must
//     reproduce it move for move.
//   - OnRemove(slot) is called while the slot is still linked, so policies
//     may read its neighbors; the cache unlinks afterwards.
//   - SelectVictim() may rotate the chain (CLOCK) but must return a linked,
//     in-use slot.
//
// Admission is a separate axis: a `FlashAdmissionFilter` (Flashield-style
// flashiness credit, PAPERS.md) gates DRAM→flash installs on the lookaside
// and unified stacks. A block earns flash residency only after it has
// demonstrated reuse: the first install attempt is rejected and recorded in
// a bounded ghost LRU; a repeat attempt while the ghost entry lives admits
// the block. `AdmissionPolicy::kAll` is the default and is bit-identical to
// the pre-plugin behavior (no filter is even constructed).
#ifndef FLASHSIM_SRC_CACHE_REPLACEMENT_H_
#define FLASHSIM_SRC_CACHE_REPLACEMENT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/cache/lru_cache.h"

namespace flashsim {

// DRAM→flash admission discipline for the lookaside/unified flash tier.
enum class AdmissionPolicy : uint8_t {
  kAll = 0,        // admit every install (the paper's behavior)
  kFlashield = 1,  // flashiness credit: reject first-touch installs
};

constexpr int kNumAdmissionPolicies = 2;

constexpr std::array<AdmissionPolicy, kNumAdmissionPolicies> kAllAdmissionPolicies = {
    AdmissionPolicy::kAll,
    AdmissionPolicy::kFlashield,
};

const char* AdmissionPolicyName(AdmissionPolicy policy);
std::optional<AdmissionPolicy> ParseAdmissionPolicy(const std::string& name);

// Replacement-policy side of the plugin: one object per LruBlockCache,
// created by MakeEvictionPolicy from the cache's ReplacementPolicy id.
class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  virtual ReplacementPolicy id() const = 0;

  // A resident block was hit. May reorder the chain.
  virtual void OnHit(uint32_t slot) = 0;

  // `slot` was just inserted and pushed to the chain head by the cache; the
  // policy may relocate it (SLRU parks new blocks at the probationary MRU).
  virtual void OnInsert(uint32_t slot) { (void)slot; }

  // `slot` is about to leave the cache (invalidation, subset drop, or
  // capacity eviction). Called while the slot is still linked.
  virtual void OnRemove(uint32_t slot) { (void)slot; }

  // The cache is full: pick the victim. May rotate the chain (CLOCK); must
  // return a linked, in-use slot.
  virtual uint32_t SelectVictim() = 0;

  // The slot SelectVictim would return, computed without mutating the chain
  // or policy state; kInvalidSlot when the prediction is impossible (CLOCK
  // rotates the chain while selecting). Contract: whenever PeekVictim
  // returns a slot, an immediately following SelectVictim must return that
  // slot. The serial fast path uses this to certify evicting flash-hit
  // installs (DESIGN.md §13); a kInvalidSlot answer only narrows the
  // certified class, never correctness.
  virtual uint32_t PeekVictim() const { return kInvalidSlot; }

  // Policy-internal bookkeeping audit; aborts on violation. Called from
  // LruBlockCache::CheckInvariants.
  virtual void CheckInvariants() const {}

  // Arms this policy's injected-bug seam (differential-oracle coverage:
  // check_cli must catch the divergence). No-op for policies without one.
  virtual void set_test_break(bool on) { (void)on; }

 protected:
  explicit EvictionPolicy(LruBlockCache* cache) : cache_(cache) {}
  LruBlockCache& cache() const { return *cache_; }

 private:
  LruBlockCache* cache_;
};

std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(ReplacementPolicy policy,
                                                   LruBlockCache* cache);

// Exact LRU: hits move to the MRU end. NOTE: the hit path for kLru is
// devirtualized inside LruBlockCache::Touch (it sits on the certified read
// fast path, DESIGN.md §13); OnHit here must stay move-for-move identical
// to that inline copy, and the golden digests pin the equivalence.
class LruPolicy final : public EvictionPolicy {
 public:
  explicit LruPolicy(LruBlockCache* cache) : EvictionPolicy(cache) {}
  ReplacementPolicy id() const override { return ReplacementPolicy::kLru; }
  void OnHit(uint32_t slot) override;
  uint32_t SelectVictim() override { return cache().LruSlot(); }
  uint32_t PeekVictim() const override { return cache().LruSlot(); }
};

// Insertion order: hits never reorder.
class FifoPolicy final : public EvictionPolicy {
 public:
  explicit FifoPolicy(LruBlockCache* cache) : EvictionPolicy(cache) {}
  ReplacementPolicy id() const override { return ReplacementPolicy::kFifo; }
  void OnHit(uint32_t slot) override { (void)slot; }
  uint32_t SelectVictim() override { return cache().LruSlot(); }
  uint32_t PeekVictim() const override { return cache().LruSlot(); }
};

// Second chance: hits set the slot's reference bit; victim selection
// rotates referenced slots back to the MRU end until an unreferenced one
// surfaces at the tail.
class ClockPolicy final : public EvictionPolicy {
 public:
  explicit ClockPolicy(LruBlockCache* cache) : EvictionPolicy(cache) {}
  ReplacementPolicy id() const override { return ReplacementPolicy::kClock; }
  void OnHit(uint32_t slot) override { cache().set_referenced(slot, true); }
  uint32_t SelectVictim() override;
  // Seam: evict the hand position unconditionally — the reference bit is
  // never consulted, silently degrading CLOCK to FIFO.
  void set_test_break(bool on) override { test_break_no_second_chance_ = on; }

 private:
  bool test_break_no_second_chance_ = false;
};

// Segmented LRU (2Q-style): the chain is threaded as
// [protected MRU..LRU][probationary MRU..LRU]. New blocks enter at the
// probationary MRU — just below the protected segment — so one-touch scans
// wash through the probationary tail without displacing proven blocks. Any
// hit promotes to the protected MRU; when the protected segment exceeds
// capacity/2 its LRU block is demoted by moving the segment boundary up
// one (a pointer move — chain order is unchanged, which is what lets the
// oracle mirror demotion with a plain list splice).
class SlruPolicy final : public EvictionPolicy {
 public:
  explicit SlruPolicy(LruBlockCache* cache);
  ReplacementPolicy id() const override { return ReplacementPolicy::kSlru; }
  void OnHit(uint32_t slot) override;
  void OnInsert(uint32_t slot) override;
  void OnRemove(uint32_t slot) override;
  uint32_t SelectVictim() override { return cache().LruSlot(); }
  uint32_t PeekVictim() const override { return cache().LruSlot(); }
  void CheckInvariants() const override;
  // Seam: probationary hits recirculate to the probationary MRU instead of
  // promoting — the classic segment-promotion off-by-one.
  void set_test_break(bool on) override { test_break_promotion_ = on; }

 private:
  enum Segment : uint8_t { kProbationary = 0, kProtected = 1 };
  std::vector<uint8_t> seg_;
  uint32_t prob_head_ = kInvalidSlot;  // first probationary slot in chain order
  uint64_t prot_count_ = 0;
  uint64_t prob_count_ = 0;
  uint64_t protected_cap_ = 0;
  bool test_break_promotion_ = false;
};

// LRU-K with K=2: the victim is the block whose 2nd-most-recent access is
// oldest; blocks with fewer than two accesses are victimized first, oldest
// last-access first. The chain itself stays in plain recency order (OnHit
// moves to front) so snapshots compare like LRU; victim selection consults
// the per-slot access history instead of the tail.
class LruKPolicy final : public EvictionPolicy {
 public:
  explicit LruKPolicy(LruBlockCache* cache);
  ReplacementPolicy id() const override { return ReplacementPolicy::kLruK; }
  void OnHit(uint32_t slot) override;
  void OnInsert(uint32_t slot) override;
  void OnRemove(uint32_t slot) override;
  uint32_t SelectVictim() override;
  uint32_t PeekVictim() const override;
  void CheckInvariants() const override;
  // Seam: rank victims by most-recent access instead of 2nd-most-recent,
  // silently degrading to timestamp-LRU.
  void set_test_break(bool on) override { test_break_history_ = on; }

 private:
  // (ranking key, slot). Ranking key = 2nd-most-recent access tick (0 while
  // the block has a single access, so one-touch blocks evict first),
  // tie-broken by last-access tick — unique, since the tick advances on
  // every touch of this cache.
  using OrderKey = std::tuple<uint64_t, uint64_t, uint32_t>;
  OrderKey KeyFor(uint32_t slot) const;

  struct History {
    uint64_t last = 0;    // most recent access tick
    uint64_t prev = 0;    // 2nd-most-recent access tick (0 = none yet)
  };
  std::vector<History> hist_;
  std::set<OrderKey> order_;
  uint64_t tick_ = 0;
  bool test_break_history_ = false;
};

// Flashield-style DRAM→flash admission filter: a bounded ghost LRU of
// block keys that have reached a flash-install decision point once. A key
// present in the ghost has demonstrated reuse and is admitted (and its
// ghost entry retired); an absent key is rejected and recorded. The ghost
// holds at most `ghost_capacity` keys (the flash tier's block count), so
// filter state is bounded by the cache it protects.
class FlashAdmissionFilter {
 public:
  explicit FlashAdmissionFilter(uint64_t ghost_capacity)
      : ghost_("admission_ghost", ghost_capacity == 0 ? 1 : ghost_capacity) {}

  bool ShouldAdmit(BlockKey key) {
    const bool admit = ShouldAdmitImpl(key);
    return test_invert_ ? !admit : admit;
  }

  uint64_t ghost_size() const { return ghost_.size(); }

  // Seam: inverts every decision (first-touch installs admitted, proven
  // blocks rejected) — the oracle's mirror filter catches it through the
  // flash_installs / flash_admission_rejects counters.
  void test_only_invert() { test_invert_ = true; }

 private:
  bool ShouldAdmitImpl(BlockKey key) {
    if (ghost_.Lookup(key) != kInvalidSlot) {
      ghost_.Remove(key);
      return true;
    }
    std::optional<EvictedBlock> evicted;
    ghost_.Insert(key, /*dirty=*/false, &evicted);
    return false;
  }

  LruBlockCache ghost_;
  bool test_invert_ = false;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_CACHE_REPLACEMENT_H_
