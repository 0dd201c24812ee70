// Request deadlines for the serving layer.
//
// A Deadline is an absolute point on the monotonic clock, fixed when the
// request is admitted, so queue wait and every later phase all draw from
// the same budget. Engines poll it at phase boundaries (see
// SearchOptions::deadline) and return partial results with the
// `truncated` flag instead of running past it; the dispatcher drops
// requests whose deadline expired while they were still queued.
//
// Header-only value type; copying preserves the absolute expiry point.

#ifndef CAFE_UTIL_DEADLINE_H_
#define CAFE_UTIL_DEADLINE_H_

#include <chrono>
#include <cstdint>

namespace cafe {

class Deadline {
 public:
  /// Default-constructed deadlines never expire.
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  /// Expires `seconds` from now (<= 0 means already expired).
  static Deadline AfterSeconds(double seconds) {
    Deadline d;
    d.has_deadline_ = true;
    d.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
    return d;
  }

  static Deadline AfterMillis(uint64_t millis) {
    return AfterSeconds(static_cast<double>(millis) * 1e-3);
  }

  bool has_deadline() const { return has_deadline_; }

  bool Expired() const { return has_deadline_ && Clock::now() >= at_; }

 private:
  using Clock = std::chrono::steady_clock;

  Clock::time_point at_{};
  bool has_deadline_ = false;
};

}  // namespace cafe

#endif  // CAFE_UTIL_DEADLINE_H_
