// WireClient: the blocking client library of the qosnp wire protocol. One
// client owns one TCP connection to a qosnpd server and exposes the
// request/response cycle in three grains:
//
//   submit(request)          — send + wait for the matching RESULT;
//   send(request) -> seq     — fire a pipelined request;
//   await(seq)               — collect one pipelined response (responses
//                              arriving out of order are parked until their
//                              seq is asked for).
//
// Every failure is a typed WireError (connect exhaustion, socket errors,
// deadline expiry, server ERROR frames — an kOverloaded error is the wire
// image of FAILEDTRYLATER and worth retrying). A WireClient is not
// thread-safe; give each submitting thread its own connection, the way a
// real client process would.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "core/negotiation_request.hpp"
#include "core/negotiation_result.hpp"
#include "util/result.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace qosnp {

struct WireClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Default wait bound for submit()/await()/ping(); 0 blocks forever.
  double deadline_ms = 0.0;
  std::size_t max_frame_bytes = wire::kDefaultMaxFrameBytes;

  static WireClientConfig validated(WireClientConfig config);
};

class WireClient {
 public:
  explicit WireClient(WireClientConfig config);
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Establish the connection, trying 3 times 50 ms apart: enough to ride
  /// out a server that is still binding its port. Idempotent while connected.
  Result<bool, wire::WireError> connect();
  void close();
  bool connected() const { return fd_ >= 0; }

  /// Encode and send one request, returning its sequence number for a
  /// later await(). Connects on demand.
  Result<std::uint64_t, wire::WireError> send(const NegotiationRequest& request);

  /// Wait (up to deadline_ms, 0 = config default, <0 = forever) for the
  /// response matching `seq`. A server ERROR frame for this seq is
  /// returned as its typed error; responses for other sequence numbers are
  /// parked for their own await().
  Result<NegotiationResult, wire::WireError> await(std::uint64_t seq, double deadline_ms = 0.0);

  /// send + await: the blocking request cycle.
  Result<NegotiationResult, wire::WireError> submit(const NegotiationRequest& request,
                                                    double deadline_ms = 0.0);

  /// Liveness probe; returns the measured round-trip in milliseconds.
  Result<double, wire::WireError> ping(double deadline_ms = 0.0);

  const WireClientConfig& config() const { return config_; }

 private:
  Result<bool, wire::WireError> write_all(const wire::Bytes& bytes);
  /// Pump the socket until `seq` resolves (into pending_ or an error).
  Result<bool, wire::WireError> read_until(std::uint64_t seq, double deadline_ms);
  double resolve_deadline(double deadline_ms) const {
    return deadline_ms != 0.0 ? deadline_ms : config_.deadline_ms;
  }

  WireClientConfig config_;
  int fd_ = -1;
  std::uint64_t next_seq_ = 1;
  wire::FrameAssembler assembler_;
  std::map<std::uint64_t, NegotiationResult> pending_results_;
  std::map<std::uint64_t, wire::WireError> pending_errors_;
  std::set<std::uint64_t> pending_pongs_;
};

}  // namespace qosnp
