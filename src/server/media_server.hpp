// Simulated continuous-media file server: the stand-in for the UBC CMFS
// [Neu 96] of the 1996 prototype. The negotiation procedure interacts with
// a media server only through admission control — "asks ... the media file
// servers to reserve resources to support the QoS associated with the
// system offer" (Step 5) — so the simulation models exactly that: a disk
// bandwidth budget, a session-slot budget, per-stream reservations, plus
// failure/degradation injection for the adaptation experiments.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "document/model.hpp"
#include "net/topology.hpp"
#include "qosmap/mapping.hpp"
#include "util/id_table.hpp"
#include "util/result.hpp"

namespace qosnp {

using StreamId = std::uint64_t;

struct MediaServerConfig {
  ServerId id;
  NodeId node;  ///< where the server attaches to the network topology
  std::int64_t disk_bandwidth_bps = 100'000'000;
  int max_sessions = 64;
  /// Per-class admission headroom: class C only fits while
  /// reserved + rate <= effective_bandwidth * (1 - headroom[C]). The all-zero
  /// default is class-blind (byte-identical to pre-policy admission).
  ClassHeadroom headroom;
};

struct ServerUsage {
  std::int64_t disk_bandwidth_bps = 0;
  std::int64_t effective_bandwidth_bps = 0;
  std::int64_t reserved_bps = 0;
  int sessions = 0;
  int max_sessions = 0;
  bool failed = false;
};

/// The admission surface of one media server — exactly what Step 5
/// (resource commitment) talks to. MediaServer implements it; the
/// fault-injection decorators in src/fault interpose on it without touching
/// the server internals. Refusals are typed: transient (no capacity right
/// now, server momentarily down) vs permanent (malformed request).
class StreamServer {
 public:
  virtual ~StreamServer() = default;
  virtual const ServerId& id() const = 0;
  virtual const NodeId& node() const = 0;
  virtual Result<StreamId, Refusal> admit(const StreamRequirements& req) = 0;
  virtual bool release(StreamId id) = 0;
};

/// Server-lookup surface of the farm: how the resource committer resolves a
/// variant's localisation field into an admission endpoint. Decorators wrap
/// this to inject faults per server.
class ServerProvider {
 public:
  virtual ~ServerProvider() = default;
  /// nullptr when no server with that id exists (a permanent error).
  virtual StreamServer* find_server(const ServerId& id) = 0;
};

class MediaServer final : public StreamServer {
 public:
  explicit MediaServer(MediaServerConfig config);

  MediaServer(const MediaServer&) = delete;
  MediaServer& operator=(const MediaServer&) = delete;

  const ServerId& id() const override { return config_.id; }
  const NodeId& node() const override { return config_.node; }

  /// Admit a stream: reserves peak rate (guaranteed) or average rate
  /// (best-effort) of disk bandwidth plus one session slot.
  Result<StreamId, Refusal> admit(const StreamRequirements& req) override;
  bool release(StreamId id) override;

  ServerUsage usage() const;

  /// Failure injection: a failed server admits nothing; the ids of streams
  /// it was serving are returned so the caller can adapt them.
  std::vector<StreamId> fail();
  void recover();
  bool failed() const;

  /// Degradation injection: fraction of disk bandwidth lost (e.g. a rebuild
  /// or a competing workload); returns streams that no longer fit.
  std::vector<StreamId> degrade(double lost_fraction);
  void restore();

 private:
  std::vector<StreamId> overfull_victims_locked();

  mutable std::mutex mu_;
  MediaServerConfig config_;
  std::int64_t effective_bandwidth_;
  std::int64_t reserved_ = 0;
  bool failed_ = false;
  IdTable<std::int64_t> streams_;  // id -> reserved rate
  StreamId next_id_ = 1;
};

/// Registry of all media servers, keyed by ServerId (the variant metadata's
/// localisation field points here).
class ServerFarm final : public ServerProvider {
 public:
  /// Register a server; duplicate ids are rejected.
  bool add(MediaServerConfig config);
  MediaServer* find(const ServerId& id);
  const MediaServer* find(const ServerId& id) const;
  StreamServer* find_server(const ServerId& id) override { return find(id); }
  std::vector<ServerId> list() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<ServerId, std::unique_ptr<MediaServer>> servers_;
};

/// RAII wrapper releasing a server stream unless dismissed.
class ScopedStream {
 public:
  ScopedStream() = default;
  ScopedStream(StreamServer* server, StreamId id) : server_(server), id_(id) {}
  ~ScopedStream() { reset(); }

  ScopedStream(ScopedStream&& other) noexcept { *this = std::move(other); }
  ScopedStream& operator=(ScopedStream&& other) noexcept {
    if (this != &other) {
      reset();
      server_ = other.server_;
      id_ = other.id_;
      other.server_ = nullptr;
      other.id_ = 0;
    }
    return *this;
  }
  ScopedStream(const ScopedStream&) = delete;
  ScopedStream& operator=(const ScopedStream&) = delete;

  StreamId id() const { return id_; }
  StreamServer* server() const { return server_; }
  bool valid() const { return server_ != nullptr; }

  StreamId dismiss() {
    server_ = nullptr;
    return id_;
  }

  void reset() {
    if (server_ != nullptr) server_->release(id_);
    server_ = nullptr;
    id_ = 0;
  }

 private:
  StreamServer* server_ = nullptr;
  StreamId id_ = 0;
};

}  // namespace qosnp
