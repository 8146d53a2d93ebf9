// qosnpd: the TCP front-end that turns the in-process NegotiationService
// into a deployable network server. It runs one epoll event loop per
// service worker (ServiceConfig::workers). The loops share one listener,
// watched with EPOLLEXCLUSIVE so that a new connection wakes one idle loop,
// which accepts it and owns it from then on. A loop runs each decoded
// REQUEST to completion on its own thread: decode, the paper procedure
// (NegotiationService::serve), encode, buffer the RESULT. No request
// crosses a thread, so a loop has at most one request in flight. A client
// may pipeline (responses are matched by sequence number), but one
// connection's requests run one after another: concurrency comes from
// connections on different loops.
//
// Robustness contract (tests/netio_test.cpp):
//  - partial reads reassemble (a 1-byte-at-a-time writer is fine);
//  - every protocol violation is answered with one typed ERROR frame, then
//    framing-level violations (bad magic/CRC/version/oversize) close the
//    connection — the stream is no longer trustworthy — while a malformed
//    REQUEST payload keeps it open (framing survived);
//  - the max-connection and max-frame limits shed with kOverloaded /
//    kFrameTooLarge ERROR frames, the wire image of FAILEDTRYLATER; past
//    those limits TCP flow control is the back-pressure;
//  - idle connections (no traffic, nothing unsent, nothing unread) are
//    reaped after idle_timeout_ms;
//  - every accounting event lands in the qosnp_net_* metrics (NetMetrics),
//    whose conservation laws hold at drain.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/net_metrics.hpp"
#include "service/negotiation_service.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace qosnp {

struct WireServerConfig {
  std::string bind_address = "127.0.0.1";
  /// Port to listen on; 0 binds an ephemeral port (see WireServer::port()).
  std::uint16_t port = 0;
  /// Connections beyond this, over all loops, are accepted, answered with
  /// one kOverloaded ERROR frame (retry later) and closed.
  std::size_t max_connections = 256;
  /// Ceiling on one frame's total size (header + payload + trailer); a
  /// frame declaring more sheds with kFrameTooLarge and the connection is
  /// closed (its stream position is unrecoverable).
  std::size_t max_frame_bytes = wire::kDefaultMaxFrameBytes;
  /// Close connections with no traffic and nothing unsent for this long.
  /// 0 disables the reaper.
  double idle_timeout_ms = 0.0;
  /// Register qosnp_net_* metrics here instead of the service's registry.
  /// Not owned; must outlive the server.
  MetricsRegistry* metrics = nullptr;

  /// Throws std::invalid_argument on an unusable config (zero limits, a
  /// max_frame too small to carry any frame at all).
  static WireServerConfig validated(WireServerConfig config);
};

class WireServer {
 public:
  /// The service must outlive the server and be start()ed by the caller.
  explicit WireServer(NegotiationService& service, WireServerConfig config = {});
  ~WireServer();

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  /// Bind + listen + spawn the event loops. Throws std::runtime_error when a
  /// socket cannot be bound (std::system_error when a thread cannot start),
  /// after closing every descriptor it opened.
  void start();
  /// Wake every loop and join it. A loop finishes the procedure it is
  /// running, then closes its connections as kServerStop; frames still
  /// buffered on them are never decoded.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The port actually bound (resolves an ephemeral request after start()).
  std::uint16_t port() const { return port_; }

  const NetMetrics& net() const { return net_; }

 private:
  struct Conn {
    int fd = -1;
    wire::FrameAssembler assembler;
    std::vector<std::uint8_t> out;   ///< bytes committed but not yet written
    std::size_t out_offset = 0;
    double last_active_ms = 0.0;
    bool draining = false;           ///< close once `out` flushes
    NetCloseReason drain_reason = NetCloseReason::kProtocolError;
    std::uint32_t interest = 0;      ///< epoll events registered for `fd`
  };

  /// One event loop: its epoll set and the connections it accepted.
  /// Touched only by its own thread between start() and stop().
  struct Loop {
    std::size_t index = 0;
    int epoll_fd = -1;
    std::unordered_map<int, std::unique_ptr<Conn>> conns;  ///< by fd
    std::thread thread;
  };

  /// Close every descriptor start() opened (the failure path and stop()).
  void close_fds();
  void run(Loop& loop);
  void accept_one(Loop& loop);
  void conn_readable(Loop& loop, Conn& conn);
  void handle_frame(Loop& loop, Conn& conn, wire::Frame frame, double read_ms);
  void serve_request(Loop& loop, Conn& conn, std::uint64_t seq, const wire::Bytes& payload,
                     double read_ms);
  void reap_idle(Loop& loop);
  /// Buffer bytes on the connection and try to flush; counts the frame as
  /// transmitted (the conservation laws count commitment, not flush).
  void enqueue(Loop& loop, Conn& conn, wire::FrameType type, wire::Bytes frame);
  void flush(Loop& loop, Conn& conn);
  /// Register the interest the connection needs now (EPOLLIN unless
  /// draining, EPOLLOUT while output is pending); no syscall when it is the
  /// one already registered.
  void update_epoll(Loop& loop, Conn& conn);
  void close_conn(Loop& loop, Conn& conn, NetCloseReason reason);
  /// The service clock, so a frame's read time is its request's accept time.
  double now_ms() const { return service_->now_s() * 1e3; }
  bool stopping() const { return stop_requested_.load(std::memory_order_acquire); }

  NegotiationService* service_;
  WireServerConfig config_;
  NetMetrics net_;
  std::vector<Loop> loops_;
  int listen_fd_ = -1;  ///< in every loop's epoll set, with EPOLLEXCLUSIVE
  int stop_fd_ = -1;  ///< eventfd written once by stop(); in every loop's epoll set
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::uint16_t port_ = 0;
  std::atomic<std::size_t> conn_count_{0};  ///< open connections over all loops
};

}  // namespace qosnp
