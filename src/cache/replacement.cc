#include "src/cache/replacement.h"

#include "src/util/assert.h"

namespace flashsim {

const char* AdmissionPolicyName(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kAll:
      return "all";
    case AdmissionPolicy::kFlashield:
      return "flashield";
  }
  return "?";
}

std::optional<AdmissionPolicy> ParseAdmissionPolicy(const std::string& name) {
  for (AdmissionPolicy policy : kAllAdmissionPolicies) {
    if (name == AdmissionPolicyName(policy)) {
      return policy;
    }
  }
  return std::nullopt;
}

std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(ReplacementPolicy policy,
                                                   LruBlockCache* cache) {
  switch (policy) {
    case ReplacementPolicy::kLru:
      return std::make_unique<LruPolicy>(cache);
    case ReplacementPolicy::kFifo:
      return std::make_unique<FifoPolicy>(cache);
    case ReplacementPolicy::kClock:
      return std::make_unique<ClockPolicy>(cache);
    case ReplacementPolicy::kSlru:
      return std::make_unique<SlruPolicy>(cache);
    case ReplacementPolicy::kLruK:
      return std::make_unique<LruKPolicy>(cache);
  }
  FLASHSIM_CHECK(false);
  return nullptr;
}

// ---------------------------------------------------------------- LRU ----

void LruPolicy::OnHit(uint32_t slot) {
  if (cache().MruSlot() != slot) {
    cache().ChainUnlink(slot);
    cache().ChainPushFront(slot);
  }
}

// -------------------------------------------------------------- CLOCK ----

uint32_t ClockPolicy::SelectVictim() {
  if (test_break_no_second_chance_) {
    return cache().LruSlot();
  }
  // Rotate at most one full revolution plus one: after a pass every bit is
  // clear, so the loop must terminate.
  for (uint64_t spins = 0; spins <= 2 * cache().size(); ++spins) {
    const uint32_t candidate = cache().LruSlot();
    if (!cache().referenced(candidate)) {
      return candidate;
    }
    cache().set_referenced(candidate, false);
    cache().ChainUnlink(candidate);
    cache().ChainPushFront(candidate);  // second chance
  }
  FLASHSIM_CHECK(false);
  return kInvalidSlot;
}

// --------------------------------------------------------------- SLRU ----

SlruPolicy::SlruPolicy(LruBlockCache* cache)
    : EvictionPolicy(cache),
      seg_(cache->capacity(), kProbationary),
      protected_cap_(cache->capacity() / 2) {}

void SlruPolicy::OnInsert(uint32_t slot) {
  seg_[slot] = kProbationary;
  ++prob_count_;
  // The cache parked the new block at the global MRU; relocate it to the
  // probationary MRU, just below the protected segment.
  if (prob_head_ == kInvalidSlot) {
    // No probationary segment yet: the probationary MRU is the global tail.
    cache().ChainUnlink(slot);
    cache().ChainPushBack(slot);
  } else {
    cache().ChainUnlink(slot);
    cache().ChainInsertBefore(slot, prob_head_);
  }
  prob_head_ = slot;
}

void SlruPolicy::OnHit(uint32_t slot) {
  if (seg_[slot] == kProtected) {
    if (cache().MruSlot() != slot) {
      cache().ChainUnlink(slot);
      cache().ChainPushFront(slot);
    }
    return;
  }
  if (test_break_promotion_) {
    // Injected bug: the hit block recirculates within the probationary
    // segment instead of promoting, so the protected segment never forms.
    if (slot != prob_head_) {
      cache().ChainUnlink(slot);
      cache().ChainInsertBefore(slot, prob_head_);
      prob_head_ = slot;
    }
    return;
  }
  // Promote: probationary → protected MRU.
  if (slot == prob_head_) {
    prob_head_ = cache().ChainNext(slot);
  }
  --prob_count_;
  cache().ChainUnlink(slot);
  cache().ChainPushFront(slot);
  seg_[slot] = kProtected;
  ++prot_count_;
  if (prot_count_ > protected_cap_) {
    // Demote the protected LRU by moving the segment boundary up one slot;
    // the chain itself does not move.
    const uint32_t boundary = prob_head_ != kInvalidSlot
                                  ? cache().ChainPrev(prob_head_)
                                  : cache().LruSlot();
    seg_[boundary] = kProbationary;
    prob_head_ = boundary;
    --prot_count_;
    ++prob_count_;
  }
}

void SlruPolicy::OnRemove(uint32_t slot) {
  if (seg_[slot] == kProbationary) {
    if (slot == prob_head_) {
      // Probationary slots form the chain's tail segment, so the next
      // probationary slot (if any) is simply the chain successor.
      prob_head_ = cache().ChainNext(slot);
    }
    --prob_count_;
  } else {
    --prot_count_;
  }
}

void SlruPolicy::CheckInvariants() const {
  FLASHSIM_CHECK(prot_count_ + prob_count_ == cache().size());
  if (!test_break_promotion_) {
    FLASHSIM_CHECK(prot_count_ <= protected_cap_ || protected_cap_ == 0);
  }
  // Chain order must be [protected ...][probationary ...] with prob_head_
  // at the boundary.
  uint64_t prot_seen = 0;
  uint64_t prob_seen = 0;
  bool in_probationary = false;
  for (uint32_t slot = cache().MruSlot(); slot != kInvalidSlot;
       slot = cache().ChainNext(slot)) {
    if (slot == prob_head_) {
      in_probationary = true;
    }
    if (in_probationary) {
      FLASHSIM_CHECK(seg_[slot] == kProbationary);
      ++prob_seen;
    } else {
      FLASHSIM_CHECK(seg_[slot] == kProtected);
      ++prot_seen;
    }
  }
  FLASHSIM_CHECK(prot_seen == prot_count_);
  FLASHSIM_CHECK(prob_seen == prob_count_);
}

// -------------------------------------------------------------- LRU-K ----

LruKPolicy::LruKPolicy(LruBlockCache* cache)
    : EvictionPolicy(cache), hist_(cache->capacity()) {}

LruKPolicy::OrderKey LruKPolicy::KeyFor(uint32_t slot) const {
  const History& h = hist_[slot];
  return {test_break_history_ ? h.last : h.prev, h.last, slot};
}

void LruKPolicy::OnInsert(uint32_t slot) {
  hist_[slot] = History{++tick_, 0};
  order_.insert(KeyFor(slot));
}

void LruKPolicy::OnHit(uint32_t slot) {
  order_.erase(KeyFor(slot));
  History& h = hist_[slot];
  h.prev = h.last;
  h.last = ++tick_;
  order_.insert(KeyFor(slot));
  // The chain stays in plain recency order so snapshots read like LRU.
  if (cache().MruSlot() != slot) {
    cache().ChainUnlink(slot);
    cache().ChainPushFront(slot);
  }
}

void LruKPolicy::OnRemove(uint32_t slot) { order_.erase(KeyFor(slot)); }

uint32_t LruKPolicy::SelectVictim() {
  FLASHSIM_CHECK(!order_.empty());
  return std::get<2>(*order_.begin());
}

void LruKPolicy::CheckInvariants() const {
  FLASHSIM_CHECK(order_.size() == cache().size());
}

}  // namespace flashsim
