// qosnp_net_* metric bundle: the network front-end's observability surface,
// registered into the same MetricsRegistry the service records into so one
// expose() snapshot covers the whole process (socket ingress included — a
// wire request's qosnp_queue_wait_ms starts at the socket read that
// completed its frame).
//
// The counters are chosen to close conservation laws at drain (no open
// connections). Each request runs to completion on the loop that read it,
// so every counted request has committed its RESULT:
//
//   connections_opened                == sum(connections_closed[reason])
//   requests_rx                      == frames_tx[RESULT]
//   frames_tx[ERROR]                 == decode_errors + shed_overload
//   frames_rx[PING]                  == frames_tx[PONG]
//
// balanced() checks exactly these; tests/netio_test asserts it after every
// loopback scenario, malformed-input runs included. This header depends
// only on obs (frame-type indices mirror wire::FrameType by value).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace qosnp {

/// Why the server closed a connection (label of
/// qosnp_net_connections_closed_total).
enum class NetCloseReason : std::uint8_t {
  kClientClose = 0,    ///< peer shut the socket down
  kIdleTimeout = 1,    ///< no traffic and nothing unsent for too long
  kProtocolError = 2,  ///< framing violated; stream no longer trustworthy
  kOverload = 3,       ///< refused at the max-connection limit
  kServerStop = 4,     ///< server shut down with the connection open
};
inline constexpr std::size_t kNetCloseReasonCount = 5;

inline std::string_view to_string(NetCloseReason reason) {
  switch (reason) {
    case NetCloseReason::kClientClose: return "client-close";
    case NetCloseReason::kIdleTimeout: return "idle-timeout";
    case NetCloseReason::kProtocolError: return "protocol-error";
    case NetCloseReason::kOverload: return "overload";
    case NetCloseReason::kServerStop: return "server-stop";
  }
  return "?";
}

/// Frame-type label values, index-compatible with wire::FrameType.
inline constexpr std::size_t kNetFrameTypeCount = 5;
inline constexpr std::array<std::string_view, kNetFrameTypeCount> kNetFrameTypeNames{
    "request", "result", "error", "ping", "pong"};

struct NetMetrics {
  explicit NetMetrics(MetricsRegistry& registry) {
    connections_opened = &registry.counter("qosnp_net_connections_opened_total", {},
                                           "TCP connections accepted by the wire server");
    for (std::size_t i = 0; i < kNetCloseReasonCount; ++i) {
      connections_closed[i] = &registry.counter(
          "qosnp_net_connections_closed_total",
          {{"reason", std::string(to_string(static_cast<NetCloseReason>(i)))}},
          "Connections closed, by reason");
    }
    for (std::size_t i = 0; i < kNetFrameTypeCount; ++i) {
      frames_rx[i] =
          &registry.counter("qosnp_net_frames_rx_total",
                            {{"type", std::string(kNetFrameTypeNames[i])}},
                            "Well-formed frames received, by type");
      frames_tx[i] =
          &registry.counter("qosnp_net_frames_tx_total",
                            {{"type", std::string(kNetFrameTypeNames[i])}},
                            "Frames committed to send, by type");
    }
    bytes_rx = &registry.counter("qosnp_net_bytes_rx_total", {}, "Bytes read off sockets");
    bytes_tx = &registry.counter("qosnp_net_bytes_tx_total", {}, "Bytes written to sockets");
    decode_errors = &registry.counter(
        "qosnp_net_decode_errors_total", {},
        "Protocol violations on receive (framing, CRC, payload); each answered "
        "with exactly one ERROR frame");
    requests_rx = &registry.counter("qosnp_net_requests_rx_total", {},
                                    "REQUEST frames decoded into a NegotiationRequest");
    shed_overload = &registry.counter("qosnp_net_shed_total",
                                      {{"reason", "max-connections"}},
                                      "Wire-level sheds, answered FAILEDTRYLATER-style");
    shed_frame_too_large = &registry.counter("qosnp_net_shed_total",
                                             {{"reason", "frame-too-large"}},
                                             "Wire-level sheds, answered FAILEDTRYLATER-style");
    connections_active =
        &registry.gauge("qosnp_net_connections_active", {}, "Connections currently open");
  }

  Counter* connections_opened;
  std::array<Counter*, kNetCloseReasonCount> connections_closed;
  std::array<Counter*, kNetFrameTypeCount> frames_rx;
  std::array<Counter*, kNetFrameTypeCount> frames_tx;
  Counter* bytes_rx;
  Counter* bytes_tx;
  Counter* decode_errors;
  Counter* requests_rx;
  Counter* shed_overload;
  Counter* shed_frame_too_large;
  Gauge* connections_active;

  std::uint64_t closed_total() const {
    std::uint64_t total = 0;
    for (const Counter* c : connections_closed) total += c->value();
    return total;
  }

  /// The drain-time conservation laws (header comment); exact once the
  /// server is idle (no open connections).
  bool balanced() const {
    const std::size_t result = 1, error = 2, ping = 3, pong = 4;
    return connections_active->value() == 0 &&
           connections_opened->value() == closed_total() &&
           requests_rx->value() == frames_tx[result]->value() &&
           frames_tx[error]->value() == decode_errors->value() + shed_overload->value() &&
           frames_rx[ping]->value() == frames_tx[pong]->value();
  }
};

}  // namespace qosnp
