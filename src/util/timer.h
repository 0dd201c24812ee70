// Wall-clock timing for the benchmark harnesses.

#ifndef CAFE_UTIL_TIMER_H_
#define CAFE_UTIL_TIMER_H_

#include <chrono>

namespace cafe {

/// Monotonic stopwatch. Starts running on construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Seconds elapsed since construction.
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double Millis() const { return Seconds() * 1e3; }
  double Micros() const { return Seconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace cafe

#endif  // CAFE_UTIL_TIMER_H_
