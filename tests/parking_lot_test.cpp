// Parking lot: FIFO resume when predicates turn true, re-parking, deadline
// expiry (HA-POCC partition suspicion) and drain semantics.
#include "server/parking_lot.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pocc::server {
namespace {

TEST(ParkingLot, ResumesWhenPredicateHolds) {
  ParkingLot lot;
  bool ready = false;
  Duration observed = -1;
  lot.park(
      100, [&] { return ready; },
      [&](Duration blocked) { observed = blocked; });
  EXPECT_EQ(lot.poke(200), 0u);
  ready = true;
  EXPECT_EQ(lot.poke(350), 1u);
  EXPECT_EQ(observed, 250);
  EXPECT_TRUE(lot.empty());
}

TEST(ParkingLot, FifoResumeOrder) {
  ParkingLot lot;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    lot.park(
        0, [] { return true; }, [&order, i](Duration) { order.push_back(i); });
  }
  lot.poke(10);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParkingLot, OnlyReadyEntriesResume) {
  ParkingLot lot;
  bool first_ready = false;
  int resumed = 0;
  lot.park(0, [&] { return first_ready; }, [&](Duration) { ++resumed; });
  lot.park(0, [] { return true; }, [&](Duration) { ++resumed; });
  EXPECT_EQ(lot.poke(1), 1u);
  EXPECT_EQ(resumed, 1);
  EXPECT_EQ(lot.size(), 1u);
  first_ready = true;
  EXPECT_EQ(lot.poke(2), 1u);
  EXPECT_EQ(resumed, 2);
}

TEST(ParkingLot, ResumeMayParkAgain) {
  // A resumed callback parking a new entry must not be re-examined within the
  // same poke (snapshot semantics).
  ParkingLot lot;
  int resumes = 0;
  lot.park(
      0, [] { return true; },
      [&](Duration) {
        ++resumes;
        lot.park(5, [] { return true; }, [&](Duration) { ++resumes; });
      });
  EXPECT_EQ(lot.poke(1), 1u);
  EXPECT_EQ(resumes, 1);
  EXPECT_EQ(lot.size(), 1u);
  EXPECT_EQ(lot.poke(2), 1u);
  EXPECT_EQ(resumes, 2);
}

TEST(ParkingLot, ExpireFiresTimeoutNotResume) {
  ParkingLot lot;
  bool resumed = false;
  Duration timeout_blocked = -1;
  lot.park(
      100, [] { return false; }, [&](Duration) { resumed = true; },
      500, [&](Duration blocked) { timeout_blocked = blocked; });
  EXPECT_EQ(lot.expire(599), 0u);
  EXPECT_EQ(lot.expire(600), 1u);
  EXPECT_FALSE(resumed);
  EXPECT_EQ(timeout_blocked, 500);
  EXPECT_TRUE(lot.empty());
}

TEST(ParkingLot, NoDeadlineNeverExpires) {
  ParkingLot lot;
  lot.park(0, [] { return false; }, [](Duration) {});
  EXPECT_EQ(lot.expire(kTimestampMax - 1), 0u);
  EXPECT_EQ(lot.size(), 1u);
  EXPECT_EQ(lot.next_deadline(), kTimestampMax);
}

TEST(ParkingLot, NextDeadlineIsEarliest) {
  ParkingLot lot;
  lot.park(0, [] { return false; }, [](Duration) {}, 300, [](Duration) {});
  lot.park(0, [] { return false; }, [](Duration) {}, 100, [](Duration) {});
  EXPECT_EQ(lot.next_deadline(), 100);
}

TEST(ParkingLot, DrainInvokesTimeoutHandlers) {
  ParkingLot lot;
  int timeouts = 0;
  lot.park(0, [] { return false; }, [](Duration) {}, 1000,
           [&](Duration) { ++timeouts; });
  lot.park(0, [] { return false; }, [](Duration) {});  // no handler
  lot.drain(50);
  EXPECT_EQ(timeouts, 1);
  EXPECT_TRUE(lot.empty());
}

TEST(ParkingLot, ReadyEntryStillExpiresIfNotPoked) {
  // Expiry is driven by deadlines regardless of readiness; the host decides
  // when to poke. This models a request whose dependency arrived exactly at
  // the timeout boundary: expire wins if it runs first.
  ParkingLot lot;
  bool resumed = false;
  bool timed_out = false;
  lot.park(
      0, [] { return true; }, [&](Duration) { resumed = true; }, 10,
      [&](Duration) { timed_out = true; });
  EXPECT_EQ(lot.expire(10), 1u);
  EXPECT_TRUE(timed_out);
  EXPECT_FALSE(resumed);
}

}  // namespace
}  // namespace pocc::server
