// Wall-clock timing for kernels and whole-step cost breakdowns.
#pragma once

#include <chrono>
#include <cstdint>

namespace minivpic {

/// Simple steady-clock stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction / last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulated laps of one repeated interval (cost breakdowns). The step
/// loop's telemetry::Phase scope measures each lap and adds it here.
class Stopwatch {
 public:
  void add(double seconds) {
    total_ += seconds;
    ++laps_;
  }

  double total_seconds() const { return total_; }
  std::uint64_t laps() const { return laps_; }

 private:
  double total_ = 0.0;
  std::uint64_t laps_ = 0;
};

}  // namespace minivpic
