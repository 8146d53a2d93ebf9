// Loopback end-to-end suite for the wire server: a real qosnpd on an
// ephemeral 127.0.0.1 port, driven by real sockets. Covers the behaviour
// contract in netio/server.hpp:
//   - loopback results are byte-identical (result signature) to in-process
//     submits against a twin system;
//   - pipelined requests resolve by sequence number, in any await order;
//   - concurrent clients all get answers and the system drains;
//   - a 1-byte-at-a-time writer reassembles;
//   - malformed input is answered with typed ERROR frames (framing
//     violations close the connection, payload violations keep it open);
//   - overload (max connections) and oversized frames shed, idle
//     connections reap, ping answers pong;
//   - the population simulation over a RemoteClient is byte-identical to
//     the in-process NegotiationService;
//   - qosnp_net_* conservation laws balance after every scenario,
//     server-stop-with-inflight included.
#include "netio/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "document/corpus.hpp"
#include "netio/client.hpp"
#include "netio/remote_client.hpp"
#include "result_signature.hpp"
#include "sim/population.hpp"
#include "test_service.hpp"
#include "wire/codec.hpp"

namespace qosnp {
namespace {

using testing::ServiceSystem;
using testing::TestSystem;
using testing::result_signature;
using wire::Bytes;
using wire::FrameType;
using wire::WireErrorCode;

/// Full loopback stack: shared system, running service, running server.
struct WireFixture {
  ServiceSystem sys;
  MetricsRegistry registry;
  std::unique_ptr<NegotiationService> service;
  std::unique_ptr<WireServer> server;

  explicit WireFixture(WireServerConfig net = {}, ServiceConfig svc = {}) : sys(8) {
    svc.metrics = &registry;
    service = std::make_unique<NegotiationService>(*sys.manager, *sys.sessions, svc);
    service->start();
    net.metrics = &registry;
    server = std::make_unique<WireServer>(*service, net);
    server->start();
  }

  ~WireFixture() {
    server->stop();
    service->stop();
  }

  WireClientConfig client_config() const {
    WireClientConfig config;
    config.port = server->port();
    config.deadline_ms = 20'000.0;
    return config;
  }

  NegotiationRequest request(std::uint64_t id) const {
    NegotiationRequest req;
    req.id = id;
    req.client = sys.clients[id % sys.clients.size()];
    req.document = "article";
    req.profile = TestSystem::tolerant_profile();
    return req;
  }
};

// --- raw-socket helpers (the misbehaving clients WireClient refuses to be) --

int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  return fd;
}

void raw_send(int fd, const Bytes& bytes, std::size_t chunk = SIZE_MAX) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const std::size_t n = std::min(chunk, bytes.size() - sent);
    ASSERT_EQ(::send(fd, bytes.data() + sent, n, MSG_NOSIGNAL), static_cast<ssize_t>(n));
    sent += n;
  }
}

/// Read one frame (5s budget). Fails the test on timeout or EOF.
wire::Frame raw_read_frame(int fd, wire::FrameAssembler& assembler) {
  for (int rounds = 0; rounds < 500; ++rounds) {
    wire::FrameAssembler::Next next = assembler.next();
    EXPECT_FALSE(next.error.has_value()) << next.error->to_text();
    if (next.frame) return std::move(*next.frame);
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) break;
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    assembler.feed(buf, static_cast<std::size_t>(n));
  }
  ADD_FAILURE() << "no frame arrived";
  return {};
}

/// True when the peer closes the connection within 5 seconds.
bool raw_wait_eof(int fd) {
  for (int rounds = 0; rounds < 500; ++rounds) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) return false;
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) return true;
    if (n < 0) return errno != EINTR && errno != EAGAIN;
  }
  return false;
}

// --- scenarios ------------------------------------------------------------

TEST(WireServerLoopback, ResultsAreByteIdenticalToInProcessSubmits) {
  ServiceSystem twin_sys(8);
  NegotiationService twin(*twin_sys.manager, *twin_sys.sessions, {});
  twin.start();

  WireFixture fx;
  WireClient client(fx.client_config());
  for (std::uint64_t i = 0; i < 24; ++i) {
    auto over_wire = client.submit(fx.request(i));
    ASSERT_TRUE(over_wire.ok()) << over_wire.error().to_text();
    const NegotiationResult in_process = twin.submit(fx.request(i)).get();
    EXPECT_EQ(result_signature(over_wire.value()), result_signature(in_process)) << "i=" << i;
    EXPECT_EQ(over_wire.value().request_id, i);
    EXPECT_GE(over_wire.value().worker, 0);
    if (over_wire.value().session_id != 0) fx.sys.sessions->complete(over_wire.value().session_id);
    if (in_process.session_id != 0) twin_sys.sessions->complete(in_process.session_id);
  }
  twin.stop();
  client.close();
  fx.server->stop();
  EXPECT_TRUE(fx.server->net().balanced());
  EXPECT_TRUE(fx.sys.drained());
  EXPECT_TRUE(twin_sys.drained());
}

TEST(WireServerLoopback, PipelinedRequestsResolveBySequenceInAnyOrder) {
  WireFixture fx;
  WireClient client(fx.client_config());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sent;  // (seq, request id)
  for (std::uint64_t i = 0; i < 32; ++i) {
    auto seq = client.send(fx.request(1000 + i));
    ASSERT_TRUE(seq.ok()) << seq.error().to_text();
    sent.emplace_back(seq.value(), 1000 + i);
  }
  // Await newest-first: every response must land on its own sequence.
  for (auto it = sent.rbegin(); it != sent.rend(); ++it) {
    auto result = client.await(it->first);
    ASSERT_TRUE(result.ok()) << result.error().to_text();
    EXPECT_EQ(result.value().request_id, it->second);
    if (result.value().session_id != 0) fx.sys.sessions->complete(result.value().session_id);
  }
  client.close();
  fx.server->stop();
  EXPECT_EQ(fx.server->net().requests_rx->value(), 32u);
  EXPECT_TRUE(fx.server->net().balanced());
  EXPECT_TRUE(fx.sys.drained());
}

TEST(WireServerLoopback, ConcurrentClientsAllDrainCleanly) {
  WireFixture fx;
  constexpr int kClients = 6;
  constexpr int kPerClient = 16;
  std::mutex mu;
  std::vector<SessionId> opened;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      WireClient client(fx.client_config());
      for (int i = 0; i < kPerClient; ++i) {
        auto result = client.submit(fx.request(static_cast<std::uint64_t>(t * 1000 + i)));
        if (!result.ok()) {
          ++failures;
          continue;
        }
        if (result.value().session_id != 0) {
          std::lock_guard<std::mutex> lock(mu);
          opened.push_back(result.value().session_id);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  for (SessionId id : opened) fx.sys.sessions->complete(id);
  fx.server->stop();
  EXPECT_EQ(fx.server->net().requests_rx->value(),
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_TRUE(fx.server->net().balanced());
  EXPECT_TRUE(fx.sys.drained());
}

TEST(WireServerLoopback, OneByteAtATimeWriterIsReassembled) {
  WireFixture fx;
  const int fd = raw_connect(fx.server->port());
  const Bytes frame = wire::encode_request_frame(fx.request(7), /*seq=*/9).value();
  raw_send(fd, frame, /*chunk=*/1);
  wire::FrameAssembler assembler(wire::kDefaultMaxFrameBytes);
  const wire::Frame reply = raw_read_frame(fd, assembler);
  EXPECT_EQ(reply.type, FrameType::kResult);
  EXPECT_EQ(reply.seq, 9u);
  auto result = wire::decode_result_payload(reply.payload);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().request_id, 7u);
  if (result.value().session_id != 0) fx.sys.sessions->complete(result.value().session_id);
  ::close(fd);
  fx.server->stop();
  EXPECT_TRUE(fx.server->net().balanced());
  EXPECT_TRUE(fx.sys.drained());
}

TEST(WireServerLoopback, MalformedPayloadAnswersTypedErrorAndKeepsConnection) {
  WireFixture fx;
  const int fd = raw_connect(fx.server->port());
  // Valid framing + CRC around a garbage REQUEST payload.
  const Bytes garbage_payload{0xDE, 0xAD, 0xBE, 0xEF};
  raw_send(fd, wire::encode_frame(FrameType::kRequest, /*seq=*/3, garbage_payload));
  wire::FrameAssembler assembler(wire::kDefaultMaxFrameBytes);
  const wire::Frame error_frame = raw_read_frame(fd, assembler);
  EXPECT_EQ(error_frame.type, FrameType::kError);
  EXPECT_EQ(error_frame.seq, 3u);
  auto decoded_error = wire::decode_error_payload(error_frame.payload);
  ASSERT_TRUE(decoded_error.ok());
  EXPECT_EQ(decoded_error.value().code, WireErrorCode::kBadPayload);

  // The framing survived, so the connection must still serve real requests.
  raw_send(fd, wire::encode_request_frame(fx.request(8), /*seq=*/4).value());
  const wire::Frame reply = raw_read_frame(fd, assembler);
  EXPECT_EQ(reply.type, FrameType::kResult);
  EXPECT_EQ(reply.seq, 4u);
  auto result = wire::decode_result_payload(reply.payload);
  ASSERT_TRUE(result.ok());
  if (result.value().session_id != 0) fx.sys.sessions->complete(result.value().session_id);
  ::close(fd);
  fx.server->stop();
  EXPECT_EQ(fx.server->net().decode_errors->value(), 1u);
  EXPECT_TRUE(fx.server->net().balanced());
  EXPECT_TRUE(fx.sys.drained());
}

TEST(WireServerLoopback, BadMagicAnswersTypedErrorThenCloses) {
  WireFixture fx;
  const int fd = raw_connect(fx.server->port());
  Bytes junk(64, 0x55);
  raw_send(fd, junk);
  wire::FrameAssembler assembler(wire::kDefaultMaxFrameBytes);
  const wire::Frame error_frame = raw_read_frame(fd, assembler);
  EXPECT_EQ(error_frame.type, FrameType::kError);
  auto decoded = wire::decode_error_payload(error_frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().code, WireErrorCode::kBadMagic);
  EXPECT_TRUE(raw_wait_eof(fd));
  ::close(fd);
  fx.server->stop();
  EXPECT_EQ(fx.server->net().connections_closed[static_cast<std::size_t>(
                                                    NetCloseReason::kProtocolError)]
                ->value(),
            1u);
  EXPECT_TRUE(fx.server->net().balanced());
}

TEST(WireServerLoopback, CorruptedCrcAnswersTypedErrorThenCloses) {
  WireFixture fx;
  const int fd = raw_connect(fx.server->port());
  Bytes frame = wire::encode_request_frame(fx.request(1), /*seq=*/5).value();
  frame.back() ^= 0xFF;
  raw_send(fd, frame);
  wire::FrameAssembler assembler(wire::kDefaultMaxFrameBytes);
  const wire::Frame error_frame = raw_read_frame(fd, assembler);
  EXPECT_EQ(error_frame.type, FrameType::kError);
  EXPECT_EQ(error_frame.seq, 5u);
  auto decoded = wire::decode_error_payload(error_frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().code, WireErrorCode::kBadCrc);
  EXPECT_TRUE(raw_wait_eof(fd));
  ::close(fd);
  fx.server->stop();
  EXPECT_TRUE(fx.server->net().balanced());
}

TEST(WireServerLoopback, OversizedFrameShedsAndCloses) {
  WireServerConfig net;
  net.max_frame_bytes = 4096;
  WireFixture fx(net);
  const int fd = raw_connect(fx.server->port());
  // A header declaring a payload far beyond the ceiling; body never sent.
  Bytes frame = wire::encode_frame(FrameType::kRequest, /*seq=*/6, Bytes{});
  const std::uint32_t huge = 1u << 20;
  std::memcpy(frame.data() + 16, &huge, sizeof(huge));
  raw_send(fd, frame);
  wire::FrameAssembler assembler(wire::kDefaultMaxFrameBytes);
  const wire::Frame error_frame = raw_read_frame(fd, assembler);
  EXPECT_EQ(error_frame.type, FrameType::kError);
  auto decoded = wire::decode_error_payload(error_frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().code, WireErrorCode::kFrameTooLarge);
  EXPECT_TRUE(raw_wait_eof(fd));
  ::close(fd);
  fx.server->stop();
  EXPECT_EQ(fx.server->net().shed_frame_too_large->value(), 1u);
  EXPECT_TRUE(fx.server->net().balanced());
}

TEST(WireServerLoopback, MaxConnectionsShedsWithOverloadedError) {
  WireServerConfig net;
  net.max_connections = 1;
  WireFixture fx(net);
  WireClient first(fx.client_config());
  ASSERT_TRUE(first.ping().ok());  // occupy the one slot

  WireClient second(fx.client_config());
  auto refused = second.submit(fx.request(1));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, WireErrorCode::kOverloaded);
  EXPECT_TRUE(refused.error().try_later());

  first.close();
  second.close();
  fx.server->stop();
  EXPECT_EQ(fx.server->net().shed_overload->value(), 1u);
  EXPECT_EQ(fx.server->net()
                .connections_closed[static_cast<std::size_t>(NetCloseReason::kOverload)]
                ->value(),
            1u);
  EXPECT_TRUE(fx.server->net().balanced());
}

TEST(WireClientDeadline, SilentServerSurfacesDeadlineExceededNotOverloaded) {
  // A listener that accepts and never answers: the client's wait bound must
  // expire as the *typed* kDeadlineExceeded — not kTimeout, and above all
  // not kOverloaded, because a shard router retries overload on another
  // shard but must never retry an expired deadline (the silent server may
  // still be working on the request).
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  ServiceSystem sys(1);
  NegotiationRequest req;
  req.id = 1;
  req.client = sys.clients[0];
  req.document = "article";
  req.profile = TestSystem::tolerant_profile();

  WireClientConfig config;
  config.port = ntohs(addr.sin_port);
  config.deadline_ms = 100.0;
  WireClient client(config);
  auto result = client.submit(req);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, WireErrorCode::kDeadlineExceeded);
  EXPECT_FALSE(result.error().try_later());  // only overload invites a retry
  client.close();
  ::close(listener);
}

TEST(WireClientDeadline, OverloadStaysTypedAsTryLater) {
  // The counterpart contract: a shed connection is kOverloaded and DOES
  // invite a retry — the pair of codes a shard router keys its hop on.
  WireServerConfig net;
  net.max_connections = 1;
  WireFixture fx(net);
  WireClient occupant(fx.client_config());
  ASSERT_TRUE(occupant.ping().ok());

  WireClient shed(fx.client_config());
  auto refused = shed.submit(fx.request(2));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, WireErrorCode::kOverloaded);
  EXPECT_TRUE(refused.error().try_later());
  EXPECT_NE(refused.error().code, WireErrorCode::kDeadlineExceeded);
  occupant.close();
  shed.close();
  fx.server->stop();
  EXPECT_TRUE(fx.server->net().balanced());
}

TEST(WireServerLoopback, IdleConnectionsAreReaped) {
  WireServerConfig net;
  net.idle_timeout_ms = 50.0;
  WireFixture fx(net);
  const int fd = raw_connect(fx.server->port());
  EXPECT_TRUE(raw_wait_eof(fd));  // reaped without us sending a byte
  ::close(fd);
  fx.server->stop();
  EXPECT_EQ(fx.server->net()
                .connections_closed[static_cast<std::size_t>(NetCloseReason::kIdleTimeout)]
                ->value(),
            1u);
  EXPECT_TRUE(fx.server->net().balanced());
}

TEST(WireServerLoopback, PingAnswersPong) {
  WireFixture fx;
  WireClient client(fx.client_config());
  auto rtt = client.ping();
  ASSERT_TRUE(rtt.ok()) << rtt.error().to_text();
  EXPECT_GE(rtt.value(), 0.0);
  client.close();
  fx.server->stop();
  const std::size_t ping = 3, pong = 4;
  EXPECT_EQ(fx.server->net().frames_rx[ping]->value(), 1u);
  EXPECT_EQ(fx.server->net().frames_tx[pong]->value(), 1u);
  EXPECT_TRUE(fx.server->net().balanced());
}

TEST(WireServerLoopback, StopWithInflightRequestsStaysBalanced) {
  ServiceConfig svc;
  svc.simulated_rtt_ms = 40.0;  // keep requests in flight when we stop
  WireFixture fx({}, svc);
  WireClient client(fx.client_config());
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.send(fx.request(i)).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  fx.server->stop();  // connections die with requests still in the service
  fx.service->stop();
  EXPECT_TRUE(fx.server->net().balanced());
  EXPECT_EQ(fx.server->net().requests_rx->value(),
            fx.server->net().frames_tx[1]->value() +
                fx.server->net().orphaned_results->value());
  // Auto-confirmed sessions opened by in-flight requests still exist; drain.
  for (SessionId id = 1; id <= 64; ++id) {
    if (fx.sys.sessions->snapshot(id)) fx.sys.sessions->complete(id);
  }
  EXPECT_TRUE(fx.sys.drained());
}

// --- population over the wire ---------------------------------------------

TEST(WirePopulation, RemoteClientMatchesInProcessService) {
  auto build_system = [](ServiceSystem& sys, std::vector<DocumentId>& documents) {
    CorpusConfig corpus;
    corpus.seed = 7;
    corpus.num_documents = 6;
    corpus.min_duration_s = 30.0;
    corpus.max_duration_s = 120.0;
    for (auto& doc : generate_corpus(corpus)) sys.catalog.add(std::move(doc));
    documents = sys.catalog.list();
  };
  auto population_config = [](const ServiceSystem& sys) {
    PopulationConfig config;
    config.classes = standard_population();
    for (std::size_t i = 0; i < config.classes.size(); ++i) {
      config.classes[i].machine.node = sys.clients[i].node;
    }
    config.duration_s = 60.0;
    config.seed = 13;
    return config;
  };
  ServiceConfig svc;
  svc.workers = 4;
  svc.auto_confirm = false;  // Step 6 belongs to the population

  // In-process twin.
  ServiceSystem direct_sys(3);
  std::vector<DocumentId> direct_documents;
  build_system(direct_sys, direct_documents);
  NegotiationService direct(*direct_sys.manager, *direct_sys.sessions, svc);
  direct.start();
  const PopulationMetrics in_process =
      Population(population_config(direct_sys), direct, direct_documents).run();
  direct.stop();

  // Wire twin: same seed, every negotiation crosses the loopback socket.
  ServiceSystem wire_sys(3);
  std::vector<DocumentId> wire_documents;
  build_system(wire_sys, wire_documents);
  NegotiationService wired(*wire_sys.manager, *wire_sys.sessions, svc);
  wired.start();
  WireServer server(wired);
  server.start();
  WireClientConfig client_config;
  client_config.port = server.port();
  client_config.deadline_ms = 20'000.0;
  WireClient client(client_config);
  RemoteClient remote(client, wired);
  const PopulationMetrics over_wire =
      Population(population_config(wire_sys), remote, wire_documents).run();
  client.close();
  server.stop();
  wired.stop();

  EXPECT_TRUE(in_process.conserved()) << in_process.signature();
  EXPECT_TRUE(over_wire.conserved()) << over_wire.signature();
  EXPECT_EQ(in_process.signature(), over_wire.signature());
  EXPECT_TRUE(server.net().balanced());
  EXPECT_TRUE(direct_sys.drained());
  EXPECT_TRUE(wire_sys.drained());
}

TEST(WirePopulation, RemoteClientRefusesAutoConfirmingHost) {
  ServiceSystem sys(1);
  NegotiationService service(*sys.manager, *sys.sessions);  // auto_confirm defaults on
  WireClient client(WireClientConfig{});
  EXPECT_THROW((RemoteClient{client, service}), std::invalid_argument);
}

}  // namespace
}  // namespace qosnp
