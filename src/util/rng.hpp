// Deterministic pseudo-random number generation for workload synthesis and
// the discrete-event simulator. SplitMix64 core: tiny state, excellent
// statistical quality for simulation purposes, trivially seedable per
// experiment so every bench run is reproducible.
#pragma once

#include <cstdint>
#include <cmath>
#include <cstddef>
#include <span>

namespace qosnp {

class Rng {
 public:
  explicit constexpr Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : state_(seed) {}

  /// Next raw 64-bit value (SplitMix64 step).
  constexpr std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n) {
    // Lemire's multiply-shift reduction: negligible bias at the cost of a
    // single wide multiply.
#ifdef __SIZEOF_INT128__
    __extension__ using u128 = unsigned __int128;
    const u128 m = static_cast<u128>(next_u64()) * n;
    return static_cast<std::uint64_t>(m >> 64);
#else
    return next_u64() % n;
#endif
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return uniform() < p; }

  /// Exponentially distributed variate with the given rate (mean 1/rate);
  /// the inter-arrival law of the Poisson session workload.
  double exponential(double rate) {
    double u = uniform();
    // Guard against log(0).
    if (u <= 0.0) u = 0x1.0p-53;
    return -std::log(u) / rate;
  }

  /// Pick an index in [0, weights.size()) proportionally to weights.
  /// Zero total weight falls back to index 0.
  std::size_t weighted_pick(std::span<const double> weights) {
    double total = 0.0;
    for (double w : weights) total += w;
    if (total <= 0.0) return 0;
    double x = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      x -= weights[i];
      if (x < 0.0) return i;
    }
    return weights.size() - 1;
  }

  /// Derive an independent child generator (for parallel workers).
  constexpr Rng fork() { return Rng{next_u64()}; }

 private:
  std::uint64_t state_;
};

/// The stream of one item of a seeded run (a request, an arriving user):
/// same (seed, index) => same draws, no matter which thread handles the
/// item or what happened before it. SplitMix64 is seed-sequence friendly,
/// so consecutive indices yield independent streams.
inline Rng indexed_rng(std::uint64_t seed, std::uint64_t index) {
  return Rng(seed + index * 0x9e3779b97f4a7c15ULL);
}

}  // namespace qosnp
