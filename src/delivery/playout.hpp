// Block-level playout simulation: what actually happens to a continuous
// media stream once the negotiation has reserved a rate for it. Blocks
// drain from the server through the reserved bottleneck rate, suffer
// network delay and jitter, land in the client's playout buffer, and are
// consumed one per block period after a prebuffer delay. A block that has
// not arrived by its consumption deadline stalls the playout (rebuffering)
// — the user-visible QoS violation. This closes the loop on the paper's
// Sec. 6 mapping: it shows *why* a guaranteed VBR stream must reserve its
// peak rate (maxBitRate), and what the [Lam 94]-style synchronisation layer
// has to absorb (inter-stream skew).
#pragma once

#include <cstdint>
#include <vector>

#include "document/model.hpp"
#include "util/rng.hpp"

namespace qosnp {

struct DeliveryConfig {
  /// Shaped delivery rate — normally the reserved rate from the mapping
  /// (maxBitRate for guaranteed streams; set to avgBitRate to watch the
  /// under-reservation ablation fail).
  std::int64_t bottleneck_bps = 0;
  double base_delay_ms = 20.0;
  /// Uniform one-way delay jitter amplitude (+-).
  double jitter_ms = 5.0;
  /// Fraction of blocks lost in transit (a lost block is a stall source:
  /// playout waits one block period as if it arrived maximally late).
  double loss_rate = 0.0;
  /// Client prebuffer before playout starts.
  double prebuffer_s = 1.0;
  /// How far (in playout seconds) the sender may run ahead of the client's
  /// consumption — the client buffer is finite, so delivery is paced.
  double max_buffer_ahead_s = 2.0;
  std::uint64_t seed = 1;
};

struct PlayoutReport {
  std::size_t blocks = 0;
  std::size_t late_blocks = 0;  ///< blocks that missed their deadline
  std::size_t stalls = 0;       ///< distinct rebuffering events
  double total_stall_s = 0.0;
  double max_lateness_s = 0.0;  ///< worst deadline miss
  double playout_end_s = 0.0;   ///< nominal end + accumulated stalls

  bool clean() const { return stalls == 0; }
  /// The per-block lateness timeline (for inter-stream skew analysis):
  /// cumulative stall time before consuming block i.
  std::vector<double> cumulative_stall;
};

/// Simulate delivering `duration_s` worth of the variant's stream through
/// the configured bottleneck.
PlayoutReport simulate_playout(const Variant& variant, double duration_s,
                               const DeliveryConfig& config);

/// Maximum inter-stream presentation skew (seconds) between two streams
/// played in parallel: the largest difference of their cumulative stalls at
/// any presentation instant. Lip-sync requires this below ~80 ms unless a
/// synchronisation protocol ([Lam 94]) re-aligns the streams.
double max_sync_skew(const PlayoutReport& a, const PlayoutReport& b);

/// The classic lip-sync tolerance.
inline constexpr double kLipSyncSkewS = 0.080;

}  // namespace qosnp
