// Log-bucketed latency histogram for the service-level percentiles
// (p50/p95/p99 request latency). Single-writer by design: every worker
// records into its own histogram and the service merges them at report
// time, so the hot path needs no synchronisation.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace qosnp {

class LatencyHistogram {
 public:
  static constexpr std::size_t kBucketsPerDecade = 20;
  static constexpr double kMinMs = 1e-3;  ///< first bucket upper bound: 1 µs
  static constexpr std::size_t kDecades = 9;  ///< covers 1 µs .. 1000 s
  static constexpr std::size_t kBuckets = kBucketsPerDecade * kDecades;

  void record(double ms) {
    ms = std::max(ms, 0.0);
    ++count_;
    sum_ms_ += ms;
    max_ms_ = std::max(max_ms_, ms);
    ++buckets_[bucket_index(ms)];
  }

  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ms_ += other.sum_ms_;
    max_ms_ = std::max(max_ms_, other.max_ms_);
  }

  std::uint64_t count() const { return count_; }
  double mean_ms() const { return count_ == 0 ? 0.0 : sum_ms_ / static_cast<double>(count_); }
  double sum_ms() const { return sum_ms_; }

  /// Latency at quantile p in [0, 1]: the upper bound of the bucket holding
  /// the p-th sample (conservative — never under-reports), clipped to the
  /// exact observed maximum.
  double quantile_ms(double p) const {
    if (count_ == 0) return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    const auto target =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= target) return std::min(bucket_upper_ms(i), max_ms_);
    }
    return max_ms_;
  }

 private:
  static std::size_t bucket_index(double ms) {
    if (ms <= kMinMs) return 0;
    const double pos = std::log10(ms / kMinMs) * static_cast<double>(kBucketsPerDecade);
    const auto i = static_cast<std::size_t>(pos) + 1;  // bucket 0 is (0, kMinMs]
    return std::min(i, kBuckets - 1);
  }

  static double bucket_upper_ms(std::size_t i) {
    return kMinMs * std::pow(10.0, static_cast<double>(i) / static_cast<double>(kBucketsPerDecade));
  }

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ms_ = 0.0;
  double max_ms_ = 0.0;
};

}  // namespace qosnp
