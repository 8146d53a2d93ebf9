// The framing layer of the qosnp wire protocol (docs/WIRE.md is the
// normative spec). Every message on a connection is one frame:
//
//   offset  width  field
//   ------  -----  -----------------------------------------------------
//        0      4  magic 0x51504E31 ("1NPQ" on the wire, "QNP1" as text)
//        4      2  protocol version (currently 1)
//        6      1  frame type (REQUEST/RESULT/ERROR/PING/PONG)
//        7      1  flags (reserved, must be 0)
//        8      8  sequence number (echoed by the matching response)
//       16      4  payload length N
//       20      N  payload (see wire/codec.hpp)
//     20+N      4  CRC32C over bytes [0, 20+N)
//
// All integers little-endian. A decoder failure is always a *typed* error
// (WireError) — never undefined behaviour, never partially-applied state.
// FrameAssembler turns an arbitrary byte stream (partial reads, pipelined
// frames, 1-byte-at-a-time writers) back into whole frames incrementally.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "wire/bytes.hpp"

namespace qosnp::wire {

inline constexpr std::uint32_t kMagic = 0x51504E31u;  // "QNP1" big-endian text
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderBytes = 20;
inline constexpr std::size_t kTrailerBytes = 4;
/// Smallest max_frame_bytes any peer or config accepts: a header and a
/// trailer around a two-byte payload.
inline constexpr std::size_t kMinMaxFrameBytes = kHeaderBytes + kTrailerBytes + 2;
/// Default ceiling on one frame's total size; both peers may configure
/// their own, and a declared payload past it is shed with kFrameTooLarge.
inline constexpr std::size_t kDefaultMaxFrameBytes = 1 << 20;

enum class FrameType : std::uint8_t {
  kRequest = 0,  ///< payload: NegotiationRequest (client -> server)
  kResult = 1,   ///< payload: NegotiationResult (server -> client)
  kError = 2,    ///< payload: WireError (either direction)
  kPing = 3,     ///< empty payload; the peer answers PONG with the same seq
  kPong = 4,     ///< empty payload
};
inline constexpr std::size_t kFrameTypeCount = 5;

std::string_view to_string(FrameType type);

/// Every way the wire layer can fail, shared by decoders, the server (as
/// the `code` of an ERROR frame) and the client (typed submit errors).
enum class WireErrorCode : std::uint16_t {
  kBadMagic = 1,        ///< stream desynchronised or not speaking qosnp
  kBadVersion = 2,      ///< protocol version not supported by this peer
  kBadFrameType = 3,    ///< unknown or contextually invalid frame type
  kBadFlags = 4,        ///< reserved flag bits set
  kFrameTooLarge = 5,   ///< declared payload exceeds the peer's max frame
  kBadCrc = 6,          ///< trailer checksum mismatch
  kBadPayload = 7,      ///< payload malformed (truncated field, bad enum, trailing bytes)
  kUnencodable = 8,     ///< request cannot be expressed on the wire (encode side)
  kOverloaded = 9,      ///< server shed the connection/request; retry later
  kTimeout = 10,        ///< client-side deadline expired while waiting
  kConnectionClosed = 11,  ///< peer closed (or connection never established)
  kIo = 12,             ///< socket-level failure (errno detail in message)
  kDeadlineExceeded = 13,  ///< caller's own deadline expired; NOT worth
                           ///< retrying elsewhere — the answer may still be
                           ///< coming and retrying would double-spend it
};
inline constexpr std::uint16_t kMaxWireErrorCode = 13;

std::string_view to_string(WireErrorCode code);

/// A typed wire-layer failure. On the wire (ERROR frame payload) it is
/// `u16 code` + length-prefixed detail string; in process it doubles as the
/// error type of every fallible wire/netio operation.
struct WireError {
  WireErrorCode code = WireErrorCode::kIo;
  std::string detail;

  std::string to_text() const;
  /// A server refusal that the paper's vocabulary maps to FAILEDTRYLATER
  /// (transient overload — worth retrying), as opposed to a protocol bug.
  bool try_later() const { return code == WireErrorCode::kOverloaded; }
};

struct Frame {
  FrameType type = FrameType::kRequest;
  std::uint64_t seq = 0;
  Bytes payload;
};

/// Serialise one complete frame (header + payload + CRC32C trailer).
Bytes encode_frame(FrameType type, std::uint64_t seq, const Bytes& payload);

/// Incremental stream-to-frame reassembly. feed() appends raw socket bytes;
/// next() yields complete frames until the buffer runs dry (`needs_more`) or
/// the stream violates the protocol (`error`, with the offending frame's
/// sequence number when the header got far enough to carry one). After an
/// error the assembler is poisoned: the connection's framing is no longer
/// trustworthy and the owner is expected to close it.
class FrameAssembler {
 public:
  explicit FrameAssembler(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(const void* data, std::size_t size);

  struct Next {
    std::optional<Frame> frame;
    std::optional<WireError> error;
    std::uint64_t error_seq = 0;  ///< seq of the frame the error occurred in (0 if unknown)
    bool needs_more() const { return !frame && !error; }
  };
  Next next();

  std::size_t buffered() const { return buffer_.size() - consumed_; }
  bool poisoned() const { return poisoned_; }

 private:
  Next fail(WireErrorCode code, std::string detail, std::uint64_t seq = 0);

  std::size_t max_frame_bytes_;
  Bytes buffer_;
  std::size_t consumed_ = 0;  ///< prefix of buffer_ already handed out
  bool poisoned_ = false;
};

}  // namespace qosnp::wire
