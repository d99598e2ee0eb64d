#include "util/timer.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace minivpic {
namespace {

void spin(std::chrono::microseconds d) { std::this_thread::sleep_for(d); }

TEST(TimerTest, ElapsedIsNonNegativeAndMonotonic) {
  Timer t;
  const double a = t.seconds();
  EXPECT_GE(a, 0.0);
  spin(std::chrono::microseconds(200));
  const double b = t.seconds();
  EXPECT_GE(b, a);
}

TEST(TimerTest, ResetRestartsTheClock) {
  Timer t;
  spin(std::chrono::microseconds(500));
  EXPECT_GT(t.seconds(), 0.0);
  t.reset();
  // Freshly reset, the reading must be tiny compared with the pre-reset
  // sleep (steady_clock has sub-microsecond resolution everywhere we run).
  EXPECT_LT(t.seconds(), 400e-6);
}

TEST(StopwatchTest, StartsAtZero) {
  Stopwatch sw;
  EXPECT_EQ(sw.total_seconds(), 0.0);
  EXPECT_EQ(sw.laps(), 0u);
}

TEST(StopwatchTest, AccumulatesLaps) {
  Stopwatch sw;
  for (double lap : {0.25, 0.5, 0.125}) sw.add(lap);
  EXPECT_EQ(sw.laps(), 3u);
  EXPECT_EQ(sw.total_seconds(), 0.875);
}

}  // namespace
}  // namespace minivpic
