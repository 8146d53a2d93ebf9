#include "netio/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/log.hpp"
#include "util/validate.hpp"

namespace qosnp {

namespace {
constexpr std::size_t kReadChunk = 64 * 1024;
constexpr int kListenBacklog = 64;

std::size_t frame_type_index(wire::FrameType type) {
  return static_cast<std::size_t>(type);
}

/// A non-blocking listener bound to `addr`. It does not share its port
/// (no SO_REUSEPORT), so a second server on a taken port fails with
/// EADDRINUSE. Throws std::runtime_error.
int open_listener(const sockaddr_in& addr) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error("WireServer: socket() failed: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, kListenBacklog) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("WireServer: bind/listen failed: " + why);
  }
  return fd;
}

void watch_readable(int epoll_fd, int fd, std::uint32_t extra = 0) {
  epoll_event ev{};
  ev.events = EPOLLIN | extra;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev);
}
}  // namespace

WireServerConfig WireServerConfig::validated(WireServerConfig config) {
  require_config(config.max_connections > 0, "WireServerConfig",
                 "max_connections must be at least 1");
  require_config(config.max_frame_bytes >= wire::kMinMaxFrameBytes,
                 "WireServerConfig", "max_frame_bytes cannot carry any frame");
  require_config(config.idle_timeout_ms >= 0.0, "WireServerConfig",
                 "idle_timeout_ms must not be negative");
  return config;
}

WireServer::WireServer(NegotiationService& service, WireServerConfig config)
    : service_(&service),
      config_(WireServerConfig::validated(std::move(config))),
      net_(config_.metrics != nullptr ? *config_.metrics : service.metrics()) {}

WireServer::~WireServer() { stop(); }

void WireServer::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  stop_requested_.store(false, std::memory_order_release);
  try {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
      throw std::runtime_error("WireServer: bad bind address '" + config_.bind_address + "'");
    }
    listen_fd_ = open_listener(addr);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);  // resolves an ephemeral port
    stop_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (stop_fd_ < 0) throw std::runtime_error("WireServer: eventfd setup failed");
    loops_ = std::vector<Loop>(service_->config().workers);
    for (std::size_t i = 0; i < loops_.size(); ++i) {
      Loop& loop = loops_[i];
      loop.index = i;
      loop.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
      if (loop.epoll_fd < 0) throw std::runtime_error("WireServer: epoll setup failed");
      // A new connection wakes one loop waiting in epoll_wait, not all.
      watch_readable(loop.epoll_fd, listen_fd_, EPOLLEXCLUSIVE);
      watch_readable(loop.epoll_fd, stop_fd_);
    }
  } catch (...) {
    close_fds();
    running_.store(false, std::memory_order_release);
    throw;
  }
  try {
    for (Loop& loop : loops_) loop.thread = std::thread([this, &loop] { run(loop); });
  } catch (...) {
    stop();  // joins the loops already running and closes every descriptor
    throw;
  }
  QOSNP_LOG_INFO("netio", "qosnpd listening on ", config_.bind_address, ":", port_, " with ",
                 loops_.size(), " loops");
}

void WireServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_requested_.store(true, std::memory_order_release);
  // Never read: the eventfd stays readable and wakes every loop.
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(stop_fd_, &one, sizeof(one));
  for (Loop& loop : loops_) {
    if (loop.thread.joinable()) loop.thread.join();
  }
  close_fds();
  QOSNP_LOG_INFO("netio", "qosnpd stopped; ", net_.requests_rx->value(), " requests served");
}

void WireServer::close_fds() {
  for (Loop& loop : loops_) {
    if (loop.epoll_fd >= 0) ::close(loop.epoll_fd);
  }
  loops_.clear();
  for (int* fd : {&listen_fd_, &stop_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void WireServer::run(Loop& loop) {
  set_log_tag("qosnpd" + std::to_string(loop.index));
  std::array<epoll_event, 64> events;
  const int wait_ms = config_.idle_timeout_ms > 0.0
                          ? static_cast<int>(std::max(1.0, config_.idle_timeout_ms / 4.0))
                          : -1;
  while (!stopping()) {
    const int n = ::epoll_wait(loop.epoll_fd, events.data(), static_cast<int>(events.size()),
                               wait_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      QOSNP_LOG_ERROR("netio", "epoll_wait failed: ", std::strerror(errno));
      break;
    }
    for (int i = 0; i < n && !stopping(); ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        accept_one(loop);
        continue;
      }
      auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) continue;  // the stop eventfd, or closed this round
      Conn& conn = *it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_conn(loop, conn, NetCloseReason::kClientClose);
        continue;
      }
      bool alive = true;
      if (events[i].events & EPOLLOUT) {
        flush(loop, conn);
        alive = loop.conns.find(fd) != loop.conns.end();
      }
      if (alive && (events[i].events & EPOLLIN)) conn_readable(loop, conn);
    }
    if (config_.idle_timeout_ms > 0.0) reap_idle(loop);
  }
  // Shutdown path: everything still open closes as server-stop.
  while (!loop.conns.empty()) {
    close_conn(loop, *loop.conns.begin()->second, NetCloseReason::kServerStop);
  }
  set_log_tag("");
}

void WireServer::accept_one(Loop& loop) {
  // One accept per wakeup: the next connection wakes another idle loop.
  int fd;
  do {
    fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    // EAGAIN: another loop took the connection first.
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      QOSNP_LOG_WARN("netio", "accept failed: ", std::strerror(errno));
    }
    return;
  }
  net_.connections_opened->inc();
  if (conn_count_.fetch_add(1, std::memory_order_relaxed) >= config_.max_connections) {
    // Connection-level load shedding: one typed "try later" and goodbye.
    conn_count_.fetch_sub(1, std::memory_order_relaxed);
    net_.shed_overload->inc();
    net_.frames_tx[frame_type_index(wire::FrameType::kError)]->inc();
    const wire::Bytes frame = wire::encode_error_frame(
        {wire::WireErrorCode::kOverloaded, "connection limit reached; retry later"}, 0);
    const ssize_t sent = ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
    if (sent > 0) net_.bytes_tx->add(static_cast<std::uint64_t>(sent));
    ::close(fd);
    net_.connections_closed[static_cast<std::size_t>(NetCloseReason::kOverload)]->inc();
    return;
  }
  net_.connections_active->add();
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->assembler = wire::FrameAssembler(config_.max_frame_bytes);
  conn->last_active_ms = now_ms();
  watch_readable(loop.epoll_fd, fd);
  conn->interest = EPOLLIN;
  loop.conns.emplace(fd, std::move(conn));
}

void WireServer::conn_readable(Loop& loop, Conn& conn) {
  // One read per readiness event: the loop runs every request it completes
  // before it reads again, and level-triggered epoll reports the rest, so
  // one pipelining client cannot starve the other connections of its loop.
  std::array<std::uint8_t, kReadChunk> buf;
  ssize_t n;
  do {
    n = ::recv(conn.fd, buf.data(), buf.size(), 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
  if (n <= 0) {
    close_conn(loop, conn, NetCloseReason::kClientClose);
    return;
  }
  net_.bytes_rx->add(static_cast<std::uint64_t>(n));
  const double read_ms = now_ms();
  conn.last_active_ms = read_ms;
  conn.assembler.feed(buf.data(), static_cast<std::size_t>(n));
  const int fd = conn.fd;
  // A stop leaves the frames not yet started undecoded and uncounted.
  while (!stopping()) {
    wire::FrameAssembler::Next next = conn.assembler.next();
    if (next.frame) {
      handle_frame(loop, conn, std::move(*next.frame), read_ms);
      if (loop.conns.find(fd) == loop.conns.end()) return;  // closed during handling
      if (conn.draining) return;                             // stop parsing a dying stream
      continue;
    }
    if (next.error) {
      // Framing-level violation: the byte stream can no longer be
      // trusted. One typed ERROR frame, then drain and close.
      net_.decode_errors->inc();
      if (next.error->code == wire::WireErrorCode::kFrameTooLarge) {
        net_.shed_frame_too_large->inc();
      }
      QOSNP_LOG_DEBUG("netio", "framing error on fd ", fd, ": ", next.error->to_text());
      conn.draining = true;
      conn.drain_reason = NetCloseReason::kProtocolError;
      enqueue(loop, conn, wire::FrameType::kError,
              wire::encode_error_frame(*next.error, next.error_seq));
    }
    return;  // needs more bytes, or the stream is poisoned
  }
}

void WireServer::handle_frame(Loop& loop, Conn& conn, wire::Frame frame, double read_ms) {
  net_.frames_rx[frame_type_index(frame.type)]->inc();
  switch (frame.type) {
    case wire::FrameType::kPing:
      enqueue(loop, conn, wire::FrameType::kPong, wire::encode_pong_frame(frame.seq));
      return;
    case wire::FrameType::kRequest:
      serve_request(loop, conn, frame.seq, frame.payload, read_ms);
      return;
    case wire::FrameType::kResult:
    case wire::FrameType::kError:
    case wire::FrameType::kPong: {
      // A server never solicits these; receiving one is a protocol bug on
      // the peer's side and the stream state is suspect.
      net_.decode_errors->inc();
      conn.draining = true;
      conn.drain_reason = NetCloseReason::kProtocolError;
      enqueue(loop, conn, wire::FrameType::kError,
              wire::encode_error_frame({wire::WireErrorCode::kBadFrameType,
                                        "server received a " +
                                            std::string(wire::to_string(frame.type)) + " frame"},
                                       frame.seq));
      return;
    }
  }
}

void WireServer::serve_request(Loop& loop, Conn& conn, std::uint64_t seq,
                               const wire::Bytes& payload, double read_ms) {
  auto decoded = wire::decode_request_payload(payload);
  if (!decoded.ok()) {
    // The framing held (magic/CRC fine), only this payload is bad: answer
    // the typed error and keep the connection.
    net_.decode_errors->inc();
    enqueue(loop, conn, wire::FrameType::kError, wire::encode_error_frame(decoded.error(), seq));
    return;
  }
  net_.requests_rx->inc();
  const NegotiationResult result =
      service_->serve(std::move(decoded.value()), loop.index, read_ms / 1e3);
  conn.last_active_ms = now_ms();
  enqueue(loop, conn, wire::FrameType::kResult, wire::encode_result_frame(result, seq));
}

void WireServer::reap_idle(Loop& loop) {
  const double now = now_ms();
  std::vector<int> idle;
  for (const auto& [fd, conn] : loop.conns) {
    if (conn->out.size() != conn->out_offset ||
        now - conn->last_active_ms <= config_.idle_timeout_ms) {
      continue;
    }
    // Bytes that arrived while this loop ran a procedure are traffic the
    // loop has not read yet, not idleness.
    int unread = 0;
    if (::ioctl(fd, FIONREAD, &unread) == 0 && unread > 0) continue;
    idle.push_back(fd);
  }
  for (int fd : idle) close_conn(loop, *loop.conns.at(fd), NetCloseReason::kIdleTimeout);
}

void WireServer::enqueue(Loop& loop, Conn& conn, wire::FrameType type, wire::Bytes frame) {
  net_.frames_tx[frame_type_index(type)]->inc();
  conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  flush(loop, conn);
}

void WireServer::flush(Loop& loop, Conn& conn) {
  const int fd = conn.fd;
  while (conn.out_offset < conn.out.size()) {
    const ssize_t n = ::send(fd, conn.out.data() + conn.out_offset,
                             conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      net_.bytes_tx->add(static_cast<std::uint64_t>(n));
      conn.out_offset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      update_epoll(loop, conn);
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    close_conn(loop, conn, NetCloseReason::kClientClose);
    return;
  }
  conn.out.clear();
  conn.out_offset = 0;
  if (conn.draining) {
    close_conn(loop, conn, conn.drain_reason);
    return;
  }
  update_epoll(loop, conn);
}

void WireServer::update_epoll(Loop& loop, Conn& conn) {
  const bool pending = conn.out_offset < conn.out.size();
  const std::uint32_t interest = (conn.draining ? 0u : EPOLLIN) | (pending ? EPOLLOUT : 0u);
  if (interest == conn.interest) return;
  epoll_event ev{};
  ev.events = interest;
  ev.data.fd = conn.fd;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.interest = interest;
}

void WireServer::close_conn(Loop& loop, Conn& conn, NetCloseReason reason) {
  const int fd = conn.fd;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  net_.connections_closed[static_cast<std::size_t>(reason)]->inc();
  loop.conns.erase(fd);  // frees `conn`
  conn_count_.fetch_sub(1, std::memory_order_relaxed);
  net_.connections_active->sub();
}

}  // namespace qosnp
