// Lock-cheap metrics registry for the negotiation service. Three metric
// kinds, all safe for concurrent writers:
//
//   Counter         : monotone, sharded across cache-line-padded atomic
//                     cells — each thread sticks to one shard, so the hot
//                     increment is an uncontended relaxed fetch_add.
//   Gauge           : a single atomic value (set/add/sub/update_max).
//   HistogramMetric : sharded LatencyHistogram (obs/histogram.hpp);
//                     record() takes one shard's mutex, snapshots merge.
//
// Handles returned by the registry have stable addresses for the registry's
// lifetime; callers register once (start-up) and keep the pointer — the
// registry mutex guards registration and exposition only, never the
// recording path. expose() renders a Prometheus-style text snapshot.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace qosnp {

/// Label set of one metric sample, e.g. {{"verdict", "SUCCEEDED"}}.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::uint64_t delta = 1) {
    shards_[shard_index()].n.fetch_add(delta, std::memory_order_relaxed);
  }
  void inc() { add(1); }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.n.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> n{0};
  };

  static std::size_t shard_index() {
    // Each thread claims a shard round-robin on first use; increments from
    // one thread never contend with another's (modulo kShards collisions).
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t index = next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return index;
  }

  std::array<Shard, kShards> shards_{};
};

class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d = 1) { value_.fetch_add(d, std::memory_order_relaxed); }
  void sub(std::int64_t d = 1) { value_.fetch_sub(d, std::memory_order_relaxed); }
  /// Raise the gauge to `v` if it is below (high-water marks).
  void update_max(std::int64_t v) {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Thread-safe wrapper over LatencyHistogram: writers spread over a few
/// mutex-guarded shards (uncontended in the common case), readers merge.
class HistogramMetric {
 public:
  static constexpr std::size_t kShards = 8;

  void record(double ms) {
    Shard& s = shards_[shard_index()];
    std::lock_guard lk(s.mu);
    s.histogram.record(ms);
  }

  LatencyHistogram merged() const {
    LatencyHistogram out;
    for (const Shard& s : shards_) {
      std::lock_guard lk(s.mu);
      out.merge(s.histogram);
    }
    return out;
  }

 private:
  struct alignas(64) Shard {
    mutable std::mutex mu;
    LatencyHistogram histogram;
  };

  static std::size_t shard_index() {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t index = next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return index;
  }

  std::array<Shard, kShards> shards_{};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register (or look up) a metric. The same (name, labels) always returns
  /// the same handle; `help` is kept from the first registration.
  Counter& counter(const std::string& name, MetricLabels labels = {}, const std::string& help = "");
  Gauge& gauge(const std::string& name, MetricLabels labels = {}, const std::string& help = "");
  HistogramMetric& histogram(const std::string& name, MetricLabels labels = {},
                             const std::string& help = "");

  /// Current value of a counter sample; 0 when never registered.
  std::uint64_t counter_value(const std::string& name, const MetricLabels& labels = {}) const;

  /// Prometheus-style text exposition of every registered metric. Counters
  /// and gauges expose their value; histograms expose _count, _sum and
  /// p50/p95/p99 quantile samples (summary form).
  std::string expose() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Metric {
    Kind kind;
    std::string name;
    MetricLabels labels;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };

  Metric& find_or_add(Kind kind, const std::string& name, MetricLabels labels,
                      const std::string& help);
  const Metric* find(Kind kind, const std::string& name, const MetricLabels& labels) const;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Metric>> metrics_;  ///< registration order
};

}  // namespace qosnp
