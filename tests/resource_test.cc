#include "src/sim/resource.h"

#include <gtest/gtest.h>

namespace flashsim {
namespace {

TEST(Resource, IdleStartsImmediately) {
  Resource r("r");
  EXPECT_EQ(r.Acquire(100, 50), 150);
  EXPECT_EQ(r.busy_time(), 50);
  EXPECT_EQ(r.wait_time(), 0);
}

TEST(Resource, BackToBackQueues) {
  Resource r("r");
  EXPECT_EQ(r.Acquire(0, 10), 10);
  EXPECT_EQ(r.Acquire(0, 10), 20);  // waits for the first
  EXPECT_EQ(r.Acquire(5, 10), 30);  // still queued
  EXPECT_EQ(r.wait_time(), 10 + 15);
}

TEST(Resource, GapAfterBusyIsUsable) {
  Resource r("r");
  r.Acquire(0, 10);
  EXPECT_EQ(r.Acquire(50, 10), 60);  // idle gap at 50
  EXPECT_EQ(r.wait_time(), 0);
}

TEST(Resource, FutureBookingDoesNotBlockEarlierGap) {
  // The regression this design exists for: a booking far in the future must
  // not blockade the idle time before it.
  Resource r("r");
  EXPECT_EQ(r.Acquire(8'000'000, 41'000), 8'041'000);  // distant response packet
  EXPECT_EQ(r.Acquire(1000, 8200), 9200);              // earlier request slides into the gap
  EXPECT_EQ(r.wait_time(), 0);
}

TEST(Resource, TightGapIsSkippedWhenTooSmall) {
  Resource r("r");
  r.Acquire(0, 10);    // [0,10)
  r.Acquire(15, 10);   // [15,25)
  // A 10-unit job at t=8 doesn't fit in [10,15); it starts at 25.
  EXPECT_EQ(r.Acquire(8, 10), 35);
}

TEST(Resource, ExactFitGapIsUsed) {
  Resource r("r");
  r.Acquire(0, 10);   // [0,10)
  r.Acquire(20, 10);  // [20,30)
  EXPECT_EQ(r.Acquire(10, 10), 20);  // fits [10,20) exactly
  EXPECT_EQ(r.wait_time(), 0);
}

TEST(Resource, MergesTouchingIntervals) {
  Resource r("r");
  r.Acquire(0, 10);
  r.Acquire(10, 10);
  r.Acquire(20, 10);
  EXPECT_EQ(r.booked_intervals(), 1u);
}

TEST(Resource, ZeroServiceIsFree) {
  Resource r("r");
  EXPECT_EQ(r.Acquire(5, 0), 5);
  EXPECT_EQ(r.booked_intervals(), 0u);
  EXPECT_EQ(r.requests(), 1u);
}

TEST(Resource, PruneDropsIntervalsBehindClock) {
  SimClock clock;
  Resource r("r", &clock);
  for (int i = 0; i < 100; ++i) {
    r.Acquire(i * 100, 10);  // disjoint intervals
  }
  EXPECT_EQ(r.booked_intervals(), 100u);
  clock.now = 100 * 100;
  r.Acquire(clock.now, 10);
  EXPECT_EQ(r.booked_intervals(), 1u);
}

TEST(MultiResource, ParallelServersShareLoad) {
  MultiResource r("m", 2);
  EXPECT_EQ(r.Acquire(0, 100), 100);
  EXPECT_EQ(r.Acquire(0, 100), 100);  // second server
  EXPECT_EQ(r.Acquire(0, 100), 200);  // queues on the earliest-free
  EXPECT_EQ(r.wait_time(), 100);
}

TEST(MultiResource, SingleServerActsSerial) {
  MultiResource r("m", 1);
  EXPECT_EQ(r.Acquire(0, 10), 10);
  EXPECT_EQ(r.Acquire(0, 10), 20);
}

TEST(MultiResource, PicksEarliestFreeServer) {
  MultiResource r("m", 3);
  r.Acquire(0, 300);
  r.Acquire(0, 100);
  r.Acquire(0, 200);
  // All busy; next request at t=50 should land on the server free at 100.
  EXPECT_EQ(r.Acquire(50, 10), 110);
}

TEST(MultiResource, BusyTimeAccumulates) {
  MultiResource r("m", 4);
  r.Acquire(0, 10);
  r.Acquire(0, 20);
  EXPECT_EQ(r.busy_time(), 30);
  EXPECT_EQ(r.requests(), 2u);
}

}  // namespace
}  // namespace flashsim
