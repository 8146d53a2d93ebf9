#include "netio/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "util/stopwatch.hpp"
#include "util/validate.hpp"

namespace qosnp {

using wire::WireError;
using wire::WireErrorCode;

namespace {
constexpr int kConnectAttempts = 3;
constexpr std::chrono::milliseconds kConnectBackoff{50};
}  // namespace

WireClientConfig WireClientConfig::validated(WireClientConfig config) {
  require_config(config.deadline_ms >= 0.0, "WireClientConfig",
                 "deadline_ms must not be negative");
  require_config(config.max_frame_bytes >= wire::kMinMaxFrameBytes,
                 "WireClientConfig", "max_frame_bytes cannot carry any frame");
  return config;
}

WireClient::WireClient(WireClientConfig config)
    : config_(WireClientConfig::validated(std::move(config))),
      assembler_(config_.max_frame_bytes) {}

WireClient::~WireClient() { close(); }

void WireClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<bool, WireError> WireClient::connect() {
  if (connected()) return true;
  std::string last_error = "unknown";
  for (int attempt = 0; attempt < kConnectAttempts; ++attempt) {
    if (attempt > 0) std::this_thread::sleep_for(kConnectBackoff);
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      return Err(WireError{WireErrorCode::kIo, "bad host address '" + config_.host + "'"});
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fd_ = fd;
      assembler_ = wire::FrameAssembler(config_.max_frame_bytes);
      pending_results_.clear();
      pending_errors_.clear();
      pending_pongs_.clear();
      return true;
    }
    last_error = std::strerror(errno);
    ::close(fd);
  }
  return Err(WireError{WireErrorCode::kConnectionClosed,
                       "connect to " + config_.host + ":" + std::to_string(config_.port) +
                           " failed after " + std::to_string(kConnectAttempts) +
                           " attempts: " + last_error});
}

Result<bool, WireError> WireClient::write_all(const wire::Bytes& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    const std::string why = std::strerror(errno);
    close();
    return Err(WireError{WireErrorCode::kIo, "send failed: " + why});
  }
  return true;
}

Result<std::uint64_t, WireError> WireClient::send(const NegotiationRequest& request) {
  if (!connected()) {
    auto c = connect();
    if (!c.ok()) return Err(c.error());
  }
  const std::uint64_t seq = next_seq_++;
  auto frame = wire::encode_request_frame(request, seq);
  if (!frame.ok()) return Err(frame.error());
  auto written = write_all(frame.value());
  if (!written.ok()) return Err(written.error());
  return seq;
}

Result<bool, WireError> WireClient::read_until(std::uint64_t seq, double deadline_ms) {
  Stopwatch waited;
  while (true) {
    if (pending_results_.count(seq) || pending_errors_.count(seq) ||
        pending_pongs_.count(seq)) {
      return true;
    }
    if (!connected()) {
      return Err(WireError{WireErrorCode::kConnectionClosed, "connection is closed"});
    }
    int poll_ms = -1;
    if (deadline_ms > 0.0) {
      const double remaining = deadline_ms - waited.elapsed_ms();
      if (remaining <= 0.0) {
        // Typed distinctly from kOverloaded: an expired *caller* deadline
        // must never be treated as a retry-elsewhere signal (the sharded
        // router retries another shard only on overload).
        return Err(WireError{WireErrorCode::kDeadlineExceeded,
                             "no response for seq " + std::to_string(seq) + " within " +
                                 std::to_string(deadline_ms) + "ms"});
      }
      poll_ms = static_cast<int>(remaining) + 1;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, poll_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      const std::string why = std::strerror(errno);
      close();
      return Err(WireError{WireErrorCode::kIo, "poll failed: " + why});
    }
    if (ready == 0) continue;  // re-check the deadline at the top

    std::array<std::uint8_t, 64 * 1024> buf;
    const ssize_t n = ::recv(fd_, buf.data(), buf.size(), 0);
    if (n == 0) {
      close();
      return Err(WireError{WireErrorCode::kConnectionClosed, "server closed the connection"});
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string why = std::strerror(errno);
      close();
      return Err(WireError{WireErrorCode::kIo, "recv failed: " + why});
    }
    assembler_.feed(buf.data(), static_cast<std::size_t>(n));
    while (true) {
      wire::FrameAssembler::Next next = assembler_.next();
      if (next.error) {
        close();
        return Err(*next.error);
      }
      if (!next.frame) break;
      wire::Frame& frame = *next.frame;
      switch (frame.type) {
        case wire::FrameType::kResult: {
          auto result = wire::decode_result_payload(frame.payload);
          if (!result.ok()) {
            close();
            return Err(result.error());
          }
          pending_results_.emplace(frame.seq, std::move(result.value()));
          break;
        }
        case wire::FrameType::kError: {
          auto error = wire::decode_error_payload(frame.payload);
          WireError typed = error.ok() ? error.value() : error.error();
          if (frame.seq == 0) {
            // Connection-scoped refusal (e.g. the overload shed at accept):
            // not tied to any request, the connection is done.
            close();
            return Err(std::move(typed));
          }
          pending_errors_.emplace(frame.seq, std::move(typed));
          break;
        }
        case wire::FrameType::kPong:
          pending_pongs_.insert(frame.seq);
          break;
        case wire::FrameType::kPing:
          // Symmetric liveness: answer a server's ping in place.
          if (auto written = write_all(wire::encode_pong_frame(frame.seq)); !written.ok()) {
            return Err(written.error());
          }
          break;
        case wire::FrameType::kRequest: {
          close();
          return Err(WireError{WireErrorCode::kBadFrameType,
                               "client received a REQUEST frame"});
        }
      }
    }
  }
}

Result<NegotiationResult, WireError> WireClient::await(std::uint64_t seq, double deadline_ms) {
  auto ready = read_until(seq, resolve_deadline(deadline_ms));
  if (!ready.ok()) return Err(ready.error());
  if (auto it = pending_errors_.find(seq); it != pending_errors_.end()) {
    WireError error = std::move(it->second);
    pending_errors_.erase(it);
    return Err(std::move(error));
  }
  auto it = pending_results_.find(seq);
  if (it == pending_results_.end()) {
    return Err(WireError{WireErrorCode::kBadPayload,
                         "seq " + std::to_string(seq) + " resolved without a result"});
  }
  NegotiationResult result = std::move(it->second);
  pending_results_.erase(it);
  return result;
}

Result<NegotiationResult, WireError> WireClient::submit(const NegotiationRequest& request,
                                                        double deadline_ms) {
  auto seq = send(request);
  if (!seq.ok()) return Err(seq.error());
  return await(seq.value(), deadline_ms);
}

Result<double, WireError> WireClient::ping(double deadline_ms) {
  if (!connected()) {
    auto c = connect();
    if (!c.ok()) return Err(c.error());
  }
  const std::uint64_t seq = next_seq_++;
  Stopwatch rtt;
  auto written = write_all(wire::encode_ping_frame(seq));
  if (!written.ok()) return Err(written.error());
  auto ready = read_until(seq, resolve_deadline(deadline_ms));
  if (!ready.ok()) return Err(ready.error());
  pending_pongs_.erase(seq);
  return rtt.elapsed_ms();
}

}  // namespace qosnp
