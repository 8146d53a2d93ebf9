// Wall-clock stopwatch used by the benches and the examples' negotiation
// latency reporting.
#pragma once

#include <chrono>

namespace qosnp {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double elapsed_ms() const { return elapsed_seconds() * 1e3; }
  /// The instant this stopwatch read `elapsed_ms` (rounded down).
  std::chrono::steady_clock::time_point at_ms(double elapsed_ms) const {
    return start_ + std::chrono::floor<Clock::duration>(
                        std::chrono::duration<double, std::milli>(elapsed_ms));
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace qosnp
