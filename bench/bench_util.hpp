// Small console-table helpers shared by the experiment benches. Each bench
// prints the paper's expected figures next to the measured ones so a reader
// can eyeball the reproduction without opening EXPERIMENTS.md.
#pragma once

#include <sched.h>

#include <algorithm>
#include <ctime>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace qosnp::bench {

inline void print_title(const std::string& title) {
  std::cout << '\n' << title << '\n' << std::string(title.size(), '=') << '\n';
}

inline void print_section(const std::string& title) {
  std::cout << '\n' << title << '\n' << std::string(title.size(), '-') << '\n';
}

class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  Table& row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  void print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      std::cout << "  ";
      for (std::size_t c = 0; c < cells.size(); ++c) {
        std::cout << std::left << std::setw(static_cast<int>(widths[c]) + 2) << cells[c];
      }
      std::cout << '\n';
    };
    print_row(headers_);
    std::size_t total = 2;
    for (std::size_t w : widths) total += w + 2;
    std::cout << "  " << std::string(total - 2, '-') << '\n';
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int decimals = 3) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << v;
  return os.str();
}

inline std::string pct(double v, int decimals = 1) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << v * 100.0 << '%';
  return os.str();
}

/// Verdict marker for paper-vs-measured rows.
inline std::string check(bool ok) { return ok ? "OK" : "MISMATCH"; }

// --- Paired CPU-time estimator ---------------------------------------------
// The self-checks that compare two arms of the same workload time each
// request in process CPU time (no thread wake-up jitter), take the median
// request of each batch (drops interrupted requests), interleave the arms'
// batches in pairs (frequency scaling and cache drift land on both halves),
// pin the work to one CPU, and read the median of the paired differences.

/// CPU time the whole process has used, in microseconds.
inline double process_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// Confines the calling thread, and every thread it starts while alive, to
/// the CPU it is running on; restores the previous affinity on destruction.
class PinnedToOneCpu {
 public:
  PinnedToOneCpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    cpu_set_t here;
    CPU_ZERO(&here);
    CPU_SET(cpu, &here);
    pinned_ = sched_setaffinity(0, sizeof here, &here) == 0;
  }
  ~PinnedToOneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinnedToOneCpu(const PinnedToOneCpu&) = delete;
  PinnedToOneCpu& operator=(const PinnedToOneCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

}  // namespace qosnp::bench
