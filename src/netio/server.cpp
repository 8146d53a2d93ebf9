#include "netio/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/log.hpp"
#include "util/validate.hpp"

namespace qosnp {

namespace {
constexpr std::size_t kReadChunk = 64 * 1024;

std::size_t frame_type_index(wire::FrameType type) {
  return static_cast<std::size_t>(type);
}
}  // namespace

WireServer::Completions::~Completions() {
  if (event_fd >= 0) ::close(event_fd);
}

WireServerConfig WireServerConfig::validated(WireServerConfig config) {
  require_config(config.max_connections > 0, "WireServerConfig",
                 "max_connections must be at least 1");
  require_config(config.listen_backlog > 0, "WireServerConfig",
                 "listen_backlog must be at least 1");
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

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    running_.store(false, std::memory_order_release);
    throw std::runtime_error("WireServer: socket() failed: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    running_.store(false, std::memory_order_release);
    throw std::runtime_error("WireServer: bad bind address '" + config_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, config_.listen_backlog) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    running_.store(false, std::memory_order_release);
    throw std::runtime_error("WireServer: bind/listen failed: " + why);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  completions_ = std::make_shared<Completions>();
  completions_->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  completions_->open = true;
  if (epoll_fd_ < 0 || completions_->event_fd < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    running_.store(false, std::memory_order_release);
    throw std::runtime_error("WireServer: epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.events = EPOLLIN;
  ev.data.fd = completions_->event_fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, completions_->event_fd, &ev);

  loop_thread_ = std::thread([this] { loop(); });
  QOSNP_LOG_INFO("netio", "qosnpd listening on ", config_.bind_address, ":", port_);
}

void WireServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_requested_.store(true, std::memory_order_release);
  {
    std::lock_guard lk(completions_->mu);
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(completions_->event_fd, &one, sizeof(one));
  }
  loop_thread_.join();

  // Every dispatched request resolves eventually (the service guarantees a
  // response per submit); with all connections gone those completions are
  // orphans. Account for them before declaring the server stopped so the
  // conservation laws stay exact across a shutdown.
  while (net_.requests_inflight->value() > 0) {
    {
      std::lock_guard lk(completions_->mu);
      for (auto& entry : completions_->done) {
        (void)entry;
        net_.orphaned_results->inc();
        net_.requests_inflight->sub();
      }
      completions_->done.clear();
    }
    if (net_.requests_inflight->value() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  {
    std::lock_guard lk(completions_->mu);
    completions_->open = false;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  QOSNP_LOG_INFO("netio", "qosnpd stopped; ", net_.requests_rx->value(), " requests served");
}

std::size_t WireServer::connection_count() const {
  std::lock_guard lk(count_mu_);
  return conn_count_;
}

void WireServer::loop() {
  set_log_tag("qosnpd");
  std::array<epoll_event, 64> events;
  const int wait_ms = config_.idle_timeout_ms > 0.0
                          ? static_cast<int>(std::max(1.0, config_.idle_timeout_ms / 4.0))
                          : -1;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                               wait_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      QOSNP_LOG_ERROR("netio", "epoll_wait failed: ", std::strerror(errno));
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        accept_ready();
        continue;
      }
      if (fd == completions_->event_fd) {
        std::uint64_t drained = 0;
        while (::read(completions_->event_fd, &drained, sizeof(drained)) > 0) {
        }
        drain_completions();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn& conn = *it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_conn(conn, NetCloseReason::kClientClose);
        continue;
      }
      bool alive = true;
      if (events[i].events & EPOLLOUT) {
        flush(conn);
        alive = conns_.find(fd) != conns_.end();
      }
      if (alive && (events[i].events & EPOLLIN)) conn_readable(conn);
    }
    if (config_.idle_timeout_ms > 0.0) reap_idle();
  }
  // Shutdown path: everything still open closes as server-stop.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (int fd : fds) {
    auto it = conns_.find(fd);
    if (it != conns_.end()) close_conn(*it->second, NetCloseReason::kServerStop);
  }
  set_log_tag("");
}

void WireServer::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      QOSNP_LOG_WARN("netio", "accept failed: ", std::strerror(errno));
      return;
    }
    net_.connections_opened->inc();
    bool over_limit;
    {
      std::lock_guard lk(count_mu_);
      over_limit = conn_count_ >= config_.max_connections;
    }
    if (over_limit) {
      // Connection-level load shedding: one typed "try later" and goodbye.
      net_.shed_overload->inc();
      net_.frames_tx[frame_type_index(wire::FrameType::kError)]->inc();
      const wire::Bytes frame = wire::encode_error_frame(
          {wire::WireErrorCode::kOverloaded, "connection limit reached; retry later"}, 0);
      const ssize_t sent = ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      if (sent > 0) net_.bytes_tx->add(static_cast<std::uint64_t>(sent));
      ::close(fd);
      net_.connections_closed[static_cast<std::size_t>(NetCloseReason::kOverload)]->inc();
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->assembler = wire::FrameAssembler(config_.max_frame_bytes);
    conn->last_active_ms = now_ms();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_by_id_[conn->id] = conn.get();
    conns_.emplace(fd, std::move(conn));
    {
      std::lock_guard lk(count_mu_);
      ++conn_count_;
      net_.connections_active->set(static_cast<std::int64_t>(conn_count_));
    }
  }
}

void WireServer::conn_readable(Conn& conn) {
  const int fd = conn.fd;
  std::array<std::uint8_t, kReadChunk> buf;
  while (true) {
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n > 0) {
      net_.bytes_rx->add(static_cast<std::uint64_t>(n));
      conn.last_active_ms = now_ms();
      conn.assembler.feed(buf.data(), static_cast<std::size_t>(n));
      while (true) {
        wire::FrameAssembler::Next next = conn.assembler.next();
        if (next.frame) {
          handle_frame(conn, std::move(*next.frame));
          if (conns_.find(fd) == conns_.end()) return;  // closed during handling
          if (conn.draining) break;                     // stop parsing a dying stream
          continue;
        }
        if (next.error) {
          // Framing-level violation: the byte stream can no longer be
          // trusted. One typed ERROR frame, then drain and close.
          net_.decode_errors->inc();
          if (next.error->code == wire::WireErrorCode::kFrameTooLarge) {
            net_.shed_frame_too_large->inc();
          }
          QOSNP_LOG_DEBUG("netio", "framing error on conn ", conn.id, ": ",
                          next.error->to_text());
          conn.draining = true;
          conn.drain_reason = NetCloseReason::kProtocolError;
          enqueue(conn, wire::FrameType::kError,
                  wire::encode_error_frame(*next.error, next.error_seq));
          return;  // conn may be gone (enqueue flushes; drained -> closed)
        }
        break;  // needs more bytes
      }
      if (conn.draining) return;
      continue;
    }
    if (n == 0) {
      close_conn(conn, NetCloseReason::kClientClose);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_conn(conn, NetCloseReason::kClientClose);
    return;
  }
}

void WireServer::handle_frame(Conn& conn, wire::Frame frame) {
  net_.frames_rx[frame_type_index(frame.type)]->inc();
  switch (frame.type) {
    case wire::FrameType::kPing:
      enqueue(conn, wire::FrameType::kPong, wire::encode_pong_frame(frame.seq));
      return;
    case wire::FrameType::kRequest:
      dispatch_request(conn, frame.seq, frame.payload);
      return;
    case wire::FrameType::kResult:
    case wire::FrameType::kError:
    case wire::FrameType::kPong: {
      // A server never solicits these; receiving one is a protocol bug on
      // the peer's side and the stream state is suspect.
      net_.decode_errors->inc();
      conn.draining = true;
      conn.drain_reason = NetCloseReason::kProtocolError;
      enqueue(conn, wire::FrameType::kError,
              wire::encode_error_frame({wire::WireErrorCode::kBadFrameType,
                                        "server received a " +
                                            std::string(wire::to_string(frame.type)) + " frame"},
                                       frame.seq));
      return;
    }
  }
}

void WireServer::dispatch_request(Conn& conn, std::uint64_t seq, const wire::Bytes& payload) {
  auto decoded = wire::decode_request_payload(payload);
  if (!decoded.ok()) {
    // The framing held (magic/CRC fine), only this payload is bad: answer
    // the typed error and keep the connection.
    net_.decode_errors->inc();
    enqueue(conn, wire::FrameType::kError, wire::encode_error_frame(decoded.error(), seq));
    return;
  }
  net_.requests_rx->inc();
  net_.requests_inflight->add();
  ++conn.inflight;
  const std::uint64_t conn_id = conn.id;
  std::shared_ptr<Completions> completions = completions_;
  service_->submit_async(
      std::move(decoded.value()),
      [completions, conn_id, seq](NegotiationResult result) {
        // Worker thread: encode here (off the event loop), then hand the
        // finished frame over and ring the eventfd.
        wire::Bytes frame = wire::encode_result_frame(result, seq);
        std::lock_guard lk(completions->mu);
        if (!completions->open) return;
        completions->done.emplace_back(conn_id, std::move(frame));
        const std::uint64_t one = 1;
        [[maybe_unused]] ssize_t n = ::write(completions->event_fd, &one, sizeof(one));
      });
}

void WireServer::drain_completions() {
  std::vector<std::pair<std::uint64_t, wire::Bytes>> done;
  {
    std::lock_guard lk(completions_->mu);
    done.swap(completions_->done);
  }
  for (auto& [conn_id, frame] : done) {
    net_.requests_inflight->sub();
    auto it = conns_by_id_.find(conn_id);
    if (it == conns_by_id_.end()) {
      // The connection died while the request was negotiating; the session
      // (if any) lives on server-side, only the response is undeliverable.
      net_.orphaned_results->inc();
      continue;
    }
    Conn& conn = *it->second;
    --conn.inflight;
    conn.last_active_ms = now_ms();
    enqueue(conn, wire::FrameType::kResult, std::move(frame));
  }
}

void WireServer::reap_idle() {
  const double now = now_ms();
  std::vector<int> idle;
  for (const auto& [fd, conn] : conns_) {
    if (conn->inflight == 0 && conn->out.size() == conn->out_offset &&
        now - conn->last_active_ms > config_.idle_timeout_ms) {
      idle.push_back(fd);
    }
  }
  for (int fd : idle) {
    auto it = conns_.find(fd);
    if (it != conns_.end()) close_conn(*it->second, NetCloseReason::kIdleTimeout);
  }
}

void WireServer::enqueue(Conn& conn, wire::FrameType type, wire::Bytes frame) {
  net_.frames_tx[frame_type_index(type)]->inc();
  conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  flush(conn);
}

void WireServer::flush(Conn& conn) {
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
      update_epoll(conn);
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    close_conn(conn, NetCloseReason::kClientClose);
    return;
  }
  conn.out.clear();
  conn.out_offset = 0;
  if (conn.draining) {
    close_conn(conn, conn.drain_reason);
    return;
  }
  update_epoll(conn);
}

void WireServer::update_epoll(Conn& conn) {
  epoll_event ev{};
  const bool pending = conn.out_offset < conn.out.size();
  ev.events = (conn.draining ? 0u : EPOLLIN) | (pending ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void WireServer::close_conn(Conn& conn, NetCloseReason reason) {
  const int fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  net_.connections_closed[static_cast<std::size_t>(reason)]->inc();
  conns_by_id_.erase(conn.id);
  conns_.erase(fd);  // frees `conn`
  {
    std::lock_guard lk(count_mu_);
    --conn_count_;
    net_.connections_active->set(static_cast<std::int64_t>(conn_count_));
  }
}

}  // namespace qosnp
