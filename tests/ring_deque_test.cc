#include "src/util/ring_deque.h"

#include <gtest/gtest.h>

#include <deque>
#include <string>

#include "src/util/rng.h"

namespace flashsim {
namespace {

TEST(RingDeque, StartsEmpty) {
  RingDeque<int> deque;
  EXPECT_TRUE(deque.empty());
  EXPECT_EQ(deque.size(), 0u);
}

TEST(RingDeque, PushPopIsFifo) {
  RingDeque<int> deque;
  for (int i = 0; i < 100; ++i) {
    deque.push_back(i);
  }
  EXPECT_EQ(deque.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(deque.front(), i);
    deque.pop_front();
  }
  EXPECT_TRUE(deque.empty());
}

TEST(RingDeque, WrapsAroundTheRing) {
  RingDeque<int> deque;
  deque.push_back(-1);  // allocates the minimum ring
  deque.pop_front();
  const size_t capacity = deque.capacity();
  // Steady-state churn several times around the ring without growing.
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 7; ++i) {
      deque.push_back(next_push++);
    }
    for (int i = 0; i < 7; ++i) {
      EXPECT_EQ(deque.front(), next_pop++);
      deque.pop_front();
    }
  }
  EXPECT_EQ(deque.capacity(), capacity);
  EXPECT_TRUE(deque.empty());
}

TEST(RingDeque, GrowsWhenFullPreservingOrder) {
  RingDeque<int> deque;
  // Offset head so growth happens mid-wrap.
  for (int i = 0; i < 10; ++i) {
    deque.push_back(-1);
  }
  for (int i = 0; i < 10; ++i) {
    deque.pop_front();
  }
  for (int i = 0; i < 1000; ++i) {
    deque.push_back(i);
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(deque.front(), i);
    deque.pop_front();
  }
}

TEST(RingDeque, HoldsNonTrivialTypes) {
  RingDeque<std::string> deque;
  for (int i = 0; i < 50; ++i) {
    deque.push_back("value-" + std::to_string(i));
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(deque.front(), "value-" + std::to_string(i));
    deque.pop_front();
  }
}

TEST(RingDeque, ClearEmptiesAndStaysUsable) {
  RingDeque<int> deque;
  for (int i = 0; i < 20; ++i) {
    deque.push_back(i);
  }
  deque.clear();
  EXPECT_TRUE(deque.empty());
  deque.push_back(7);
  EXPECT_EQ(deque.front(), 7);
}

TEST(RingDeque, RandomizedAgainstStdDeque) {
  RingDeque<uint64_t> ours;
  std::deque<uint64_t> reference;
  Rng rng(99);
  for (int step = 0; step < 20000; ++step) {
    if (reference.empty() || rng.NextBool(0.55)) {
      const uint64_t value = rng.Next();
      ours.push_back(value);
      reference.push_back(value);
    } else {
      ASSERT_EQ(ours.front(), reference.front()) << "step " << step;
      ours.pop_front();
      reference.pop_front();
    }
    ASSERT_EQ(ours.size(), reference.size());
  }
  while (!reference.empty()) {
    ASSERT_EQ(ours.front(), reference.front());
    ours.pop_front();
    reference.pop_front();
  }
  EXPECT_TRUE(ours.empty());
}

}  // namespace
}  // namespace flashsim
