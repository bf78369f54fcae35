#ifndef KIMDB_UTIL_STOPWATCH_H_
#define KIMDB_UTIL_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace kimdb {

/// Monotonic wall-clock stopwatch used by benchmark harnesses and the
/// transaction manager (long-duration transaction ages).
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace kimdb

#endif  // KIMDB_UTIL_STOPWATCH_H_
