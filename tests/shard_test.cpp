// The sharded-federation suite:
//   - ShardDirectory properties: the ring hash is pure and stable across
//     instances, one shard owns everything, growing the ring remaps only a
//     consistent-hash-sized fraction of keys, registration is idempotent
//     and split ownership throws;
//   - the 500+-seed differential: the ShardRouter of a one-shard federation
//     is byte-identical (result signature) to a NegotiationService over the
//     identical unsharded world, request for request;
//   - both routers route a request by ShardDirectory::shard_of_request;
//   - cross-shard commits reserve on every owning shard and drain to zero;
//   - the rollback property: injected mid-walk faults (faulty farms and
//     transports on both shards) never leak a reservation;
//   - WireShardRouter over real loopback backends: consistent-hash routing,
//     retry-on-another-shard for kOverloaded ONLY, fast typed failure for
//     kDeadlineExceeded;
//   - the population simulator over a one-shard ShardRouter is
//     byte-identical to the in-process NegotiationService.
#include "shard/sharded_service.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "document/corpus.hpp"
#include "fault/fault_injector.hpp"
#include "netio/server.hpp"
#include "result_signature.hpp"
#include "shard/wire_router.hpp"
#include "sim/population.hpp"
#include "test_service.hpp"

namespace qosnp {
namespace {

using testing::ServiceSystem;
using testing::TestSystem;
using testing::result_signature;
using wire::WireErrorCode;

// --- shared builders --------------------------------------------------------

std::vector<ClientMachine> make_clients(int n) {
  std::vector<ClientMachine> clients;
  clients.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ClientMachine c;
    c.name = "client-" + std::to_string(i);
    c.node = c.name;
    c.screen = ScreenSpec{1920, 1080, ColorDepth::kSuperColor};
    c.decoders = {CodingFormat::kMPEG1,     CodingFormat::kMPEG2,
                  CodingFormat::kMJPEG,     CodingFormat::kPCM,
                  CodingFormat::kADPCM,     CodingFormat::kMPEGAudio,
                  CodingFormat::kPlainText, CodingFormat::kJPEG,
                  CodingFormat::kGIF};
    c.max_audio = AudioQuality::kCD;
    clients.push_back(std::move(c));
  }
  return clients;
}

/// A document no single shard can serve: every video variant on one server,
/// every audio/text variant on another — each offer must span both.
MultimediaDocument cross_document(const std::string& id, const ServerId& video_server,
                                  const ServerId& other_server) {
  MultimediaDocument doc;
  doc.id = id;
  doc.title = "Cross-shard " + id;
  doc.copyright_cost = Money::cents(10);
  const double duration = 60.0;

  Monomedia video;
  video.id = id + "/video";
  video.kind = MediaKind::kVideo;
  video.duration_s = duration;
  video.variants = {
      make_video_variant(id + "/video/hi", VideoQoS{ColorDepth::kColor, 25, 640},
                         CodingFormat::kMPEG1, duration, video_server),
      make_video_variant(id + "/video/lo", VideoQoS{ColorDepth::kBlackWhite, 10, 320},
                         CodingFormat::kMPEG1, duration, video_server),
  };
  doc.monomedia.push_back(std::move(video));

  Monomedia audio;
  audio.id = id + "/audio";
  audio.kind = MediaKind::kAudio;
  audio.duration_s = duration;
  audio.variants = {
      make_audio_variant(id + "/audio/cd", AudioQuality::kCD, CodingFormat::kPCM, duration,
                         other_server),
      make_audio_variant(id + "/audio/tel", AudioQuality::kTelephone, CodingFormat::kADPCM,
                         duration, other_server),
  };
  doc.monomedia.push_back(std::move(audio));

  Monomedia text;
  text.id = id + "/text";
  text.kind = MediaKind::kText;
  text.variants = {make_text_variant(id + "/text/en", Language::kEnglish,
                                     CodingFormat::kPlainText, 8'000, other_server)};
  doc.monomedia.push_back(std::move(text));
  return doc;
}

/// Two shards owning server-a / server-b on the usual dumbbell nodes. Every
/// shard's topology carries all client nodes (any shard may terminate a
/// flow at any client) plus both server nodes — but each *registers* only
/// its own.
std::vector<ShardSpec> two_shard_specs(int num_clients, std::int64_t access_bps = 50'000'000,
                                       std::int64_t backbone_bps = 200'000'000,
                                       std::int64_t server_bps = 100'000'000,
                                       int server_sessions = 32) {
  std::vector<ShardSpec> specs(2);
  for (int k = 0; k < 2; ++k) {
    MediaServerConfig server;
    server.id = k == 0 ? "server-a" : "server-b";
    server.node = "server-node-" + std::to_string(k);
    server.disk_bandwidth_bps = server_bps;
    server.max_sessions = server_sessions;
    specs[static_cast<std::size_t>(k)].servers.push_back(std::move(server));
    specs[static_cast<std::size_t>(k)].topology =
        Topology::dumbbell(num_clients, 2, access_bps, backbone_bps);
  }
  return specs;
}

NegotiationRequest tolerant_request(std::uint64_t id, const ClientMachine& client,
                                    DocumentId document) {
  NegotiationRequest req;
  req.id = id;
  req.client = client;
  req.document = std::move(document);
  req.profile = TestSystem::tolerant_profile();
  return req;
}

// --- directory properties ---------------------------------------------------

TEST(ShardDirectoryProperty, HashIsPureAndStableAcrossInstances) {
  const ShardDirectory first(5);
  const ShardDirectory second(5);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "doc-" + std::to_string(i);
    const std::size_t shard = first.shard_of_key(key);
    EXPECT_LT(shard, 5u);
    EXPECT_EQ(shard, second.shard_of_key(key)) << key;
  }
  // The hash itself is exposed and deterministic.
  EXPECT_EQ(shard_key_hash("article"), shard_key_hash("article"));
  EXPECT_NE(shard_key_hash("article"), shard_key_hash("article2"));
}

TEST(ShardDirectoryProperty, SingleShardOwnsEveryKey) {
  const ShardDirectory directory(1);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(directory.shard_of_key("key-" + std::to_string(i)), 0u);
  }
}

TEST(ShardDirectoryProperty, EveryShardOwnsSomeKeys) {
  // More virtual nodes than the default: this asserts ring coverage, and
  // coverage is exactly what virtual-node count buys.
  const ShardDirectory directory(8, /*virtual_nodes=*/256);
  std::set<std::size_t> seen;
  for (int i = 0; i < 4000; ++i) {
    seen.insert(directory.shard_of_key("key-" + std::to_string(i)));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(ShardDirectoryProperty, GrowingTheRingRemapsOnlyAFraction) {
  // The consistent-hashing contract: going from N to N+1 shards moves about
  // 1/(N+1) of the keys — never anything close to a full reshuffle.
  constexpr int kKeys = 4000;
  const ShardDirectory before(4);
  const ShardDirectory after(5);
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "doc-" + std::to_string(i);
    if (before.shard_of_key(key) != after.shard_of_key(key)) ++moved;
  }
  const double fraction = static_cast<double>(moved) / kKeys;
  EXPECT_GT(fraction, 0.02);  // the new shard took ownership of something
  EXPECT_LT(fraction, 0.45);  // ...but nowhere near a modulo-style reshuffle
}

TEST(ShardDirectory, RegistrationIsIdempotentAndSplitOwnershipThrows) {
  ShardDirectory directory(3);
  directory.register_server("server-a", 1);
  directory.register_server("server-a", 1);  // same shard: fine
  EXPECT_EQ(directory.shard_of_server("server-a"), std::optional<std::size_t>(1));
  EXPECT_THROW(directory.register_server("server-a", 2), std::invalid_argument);
  EXPECT_THROW(directory.register_server("server-x", 3), std::out_of_range);

  directory.register_node("node-a", 0);
  directory.register_node("node-a", 0);
  EXPECT_EQ(directory.shard_of_node("node-a"), std::optional<std::size_t>(0));
  EXPECT_THROW(directory.register_node("node-a", 1), std::invalid_argument);
  EXPECT_FALSE(directory.shard_of_server("unknown").has_value());
  EXPECT_FALSE(directory.shard_of_node("unknown").has_value());
}

// --- the N=1 differential ---------------------------------------------------

TEST(ShardedDifferential, SingleShardRouterIsByteIdenticalToService) {
  constexpr int kClients = 8;
  constexpr std::uint64_t kSeeds = 520;

  // Shared corpus so both catalogs hold identical documents.
  CorpusConfig corpus;
  corpus.seed = 11;
  corpus.num_documents = 8;
  corpus.min_duration_s = 30.0;
  corpus.max_duration_s = 90.0;
  const std::vector<MultimediaDocument> docs = generate_corpus(corpus);

  // The unsharded twin: ServiceSystem + NegotiationService.
  ServiceSystem direct_sys(kClients, 50'000'000, 200'000'000, 100'000'000, 32);
  for (MultimediaDocument doc : docs) direct_sys.catalog.add(std::move(doc));
  const NodeConfig node;  // defaults on both sides
  NegotiationService direct(*direct_sys.manager, *direct_sys.sessions, node.service());
  direct.start();

  // The one-shard federation over the identical world.
  std::vector<ShardSpec> specs(1);
  for (int i = 0; i < 2; ++i) {
    MediaServerConfig server;
    server.id = i == 0 ? "server-a" : "server-b";
    server.node = "server-node-" + std::to_string(i);
    server.disk_bandwidth_bps = 100'000'000;
    server.max_sessions = 32;
    specs[0].servers.push_back(std::move(server));
  }
  specs[0].topology = Topology::dumbbell(kClients, 2, 50'000'000, 200'000'000);
  ShardedService sharded(std::move(specs), node);
  EXPECT_TRUE(sharded.add_document(TestSystem::news_article()).empty());
  for (MultimediaDocument doc : docs) EXPECT_TRUE(sharded.add_document(std::move(doc)).empty());
  sharded.start();

  std::vector<DocumentId> ids = direct_sys.catalog.list();
  const std::vector<ClientMachine> clients = make_clients(kClients);

  Rng rng(0x5eed5);
  std::vector<std::pair<SessionId, SessionId>> open;  // (direct, sharded)
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    NegotiationRequest req =
        tolerant_request(seed, clients[rng.below(clients.size())], ids[rng.below(ids.size())]);
    req.accept_degraded = rng.below(2) == 0;

    NegotiationResult direct_result = direct.submit(req).get();
    NegotiationResult sharded_result = sharded.router().submit(req).get();
    ASSERT_EQ(result_signature(direct_result), result_signature(sharded_result))
        << "seed=" << seed << " doc=" << req.document;
    ASSERT_EQ(direct_result.session_id != 0, sharded_result.session_id != 0) << "seed=" << seed;
    if (direct_result.session_id != 0) {
      open.emplace_back(direct_result.session_id, sharded_result.session_id);
    }

    // Recycle capacity identically on both sides, so later seeds exercise
    // congestion and refusal paths too.
    if (!open.empty() && rng.chance(0.35)) {
      const std::size_t pick = static_cast<std::size_t>(rng.below(open.size()));
      direct_sys.sessions->complete(open[pick].first);
      sharded.sessions().complete(open[pick].second);
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }

  for (const auto& [direct_id, sharded_id] : open) {
    direct_sys.sessions->complete(direct_id);
    sharded.sessions().complete(sharded_id);
  }
  direct.stop();
  sharded.stop();
  EXPECT_TRUE(direct_sys.drained());
  EXPECT_TRUE(sharded.drained());
}

// --- cross-shard commits ----------------------------------------------------

TEST(ShardedFederation, CrossShardDocumentReservesOnBothShardsAndDrains) {
  ShardedService sharded(two_shard_specs(4));
  EXPECT_TRUE(sharded.add_document(cross_document("cross", "server-a", "server-b")).empty());
  sharded.start();
  const std::vector<ClientMachine> clients = make_clients(4);

  NegotiationResult result =
      sharded.router().submit(tolerant_request(1, clients[0], "cross")).get();
  ASSERT_EQ(result.verdict, NegotiationStatus::kSucceeded)
      << (result.problems.empty() ? "" : result.problems.front());
  ASSERT_NE(result.session_id, 0u);

  // The session's reservations span both shards: a video stream on shard
  // 0's farm, audio+text on shard 1's, and a flow in each shard's network.
  EXPECT_GT(sharded.farm(0).find("server-a")->usage().reserved_bps, 0);
  EXPECT_GT(sharded.farm(1).find("server-b")->usage().reserved_bps, 0);
  EXPECT_GT(sharded.transport(0).active_flows(), 0u);
  EXPECT_GT(sharded.transport(1).active_flows(), 0u);

  const std::size_t home = sharded.home_of("cross");
  EXPECT_GE(sharded.shard_metrics().cross_commits[home]->value(), 1u);
  EXPECT_GE(sharded.shard_metrics().forwarded[1 - home]->value(), 1u);

  sharded.sessions().complete(result.session_id);
  sharded.stop();
  EXPECT_TRUE(sharded.drained());
}

TEST(ShardedFederation, InjectedMidWalkFaultsNeverLeakReservations) {
  // Property: no matter where a fault interrupts the cross-shard walk, the
  // partial reservations are rolled back on every shard — conservation
  // holds globally after every negotiate. Faulty decorators wrap both
  // shards' farms AND transports, so the walk can die before, between and
  // after the shard boundary.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    ShardDirectory directory(2);
    ServerFarm farm0;
    ServerFarm farm1;
    for (int k = 0; k < 2; ++k) {
      MediaServerConfig server;
      server.id = k == 0 ? "server-a" : "server-b";
      server.node = "server-node-" + std::to_string(k);
      server.disk_bandwidth_bps = 100'000'000;
      server.max_sessions = 32;
      directory.register_server(server.id, static_cast<std::size_t>(k));
      directory.register_node(server.node, static_cast<std::size_t>(k));
      (k == 0 ? farm0 : farm1).add(std::move(server));
    }
    TransportService t0(Topology::dumbbell(1, 2, 50'000'000, 200'000'000));
    TransportService t1(Topology::dumbbell(1, 2, 50'000'000, 200'000'000));

    FaultPlan plan;
    plan.seed = seed;
    plan.server_defaults.transient_failure_p = 0.45;
    plan.transport_defaults.transient_failure_p = 0.35;
    FaultyServerFarm faulty_farm0(farm0, plan);
    FaultyServerFarm faulty_farm1(farm1, plan);
    FaultyTransportProvider faulty_t0(t0, plan);
    FaultyTransportProvider faulty_t1(t1, plan);

    FederatedFarm fed_farm(directory, {&faulty_farm0, &faulty_farm1});
    FederatedTransport fed_transport(directory, {&faulty_t0, &faulty_t1});

    Catalog catalog;
    catalog.add(cross_document("cross", "server-a", "server-b"));
    catalog.add(TestSystem::news_article());

    NegotiationConfig config;
    config.retry.max_attempts = 2;
    config.committer_factory = [&](const RetryPolicy& retry, SessionClass session_class) {
      return std::make_unique<FederatedCommitter>(fed_farm, fed_transport, directory, retry,
                                                  session_class, /*home=*/0, nullptr);
    };
    QoSManager manager(catalog, fed_farm, fed_transport, CostModel{}, config);
    const ClientMachine client = make_clients(1)[0];

    int committed = 0;
    for (std::uint64_t i = 0; i < 12; ++i) {
      NegotiationRequest req =
          tolerant_request(i, client, i % 2 == 0 ? "cross" : DocumentId("article"));
      NegotiationResult result = manager.negotiate(req);
      if (result.has_commitment()) {
        ++committed;
        result.commitment.release();
      }
      // The invariant under fire: nothing may remain reserved anywhere.
      EXPECT_EQ(farm0.find("server-a")->usage().reserved_bps, 0) << "seed=" << seed;
      EXPECT_EQ(farm1.find("server-b")->usage().reserved_bps, 0) << "seed=" << seed;
      EXPECT_EQ(t0.active_flows(), 0u) << "seed=" << seed;
      EXPECT_EQ(t1.active_flows(), 0u) << "seed=" << seed;
      EXPECT_EQ(t0.total_reserved_bps(), 0) << "seed=" << seed;
      EXPECT_EQ(t1.total_reserved_bps(), 0) << "seed=" << seed;
      EXPECT_TRUE(t0.accounting_consistent()) << "seed=" << seed;
      EXPECT_TRUE(t1.accounting_consistent()) << "seed=" << seed;
    }
    // Sanity: the fault rates still let some negotiations through, so both
    // the success and the rollback paths were actually exercised.
    EXPECT_GT(committed, 0) << "seed=" << seed;
  }
}

// --- the wire-side router ---------------------------------------------------

/// One loopback backend: a full unsharded world behind a real qosnpd.
struct WireBackend {
  ServiceSystem sys;
  std::unique_ptr<NegotiationService> service;
  std::unique_ptr<WireServer> server;

  explicit WireBackend(std::size_t max_connections = 256) : sys(4) {
    NodeConfig node;
    node.max_connections(max_connections);
    service = std::make_unique<NegotiationService>(*sys.manager, *sys.sessions, node.service());
    service->start();
    server = std::make_unique<WireServer>(*service, node.wire_server());
    server->start();
  }

  ~WireBackend() {
    server->stop();
    service->stop();
  }
};

WireClientConfig backend_config(std::uint16_t port, double deadline_ms = 20'000.0) {
  WireClientConfig config;
  config.port = port;
  config.deadline_ms = deadline_ms;
  return config;
}

TEST(WireShardRouterLoopback, RoutesByConsistentHashAndAnswers) {
  WireBackend backend0;
  WireBackend backend1;
  WireShardRouterConfig config;
  config.backends = {backend_config(backend0.server->port()),
                     backend_config(backend1.server->port())};
  WireShardRouter router(config);
  ASSERT_EQ(router.shard_count(), 2u);

  // Both worlds serve "article"; requests must land on the hash-chosen one.
  std::array<WireBackend*, 2> backends{&backend0, &backend1};
  for (std::uint64_t i = 0; i < 12; ++i) {
    NegotiationRequest req = tolerant_request(i, backend0.sys.clients[i % 4], "article");
    const std::size_t home = router.home_shard(req);
    auto result = router.submit(req);
    ASSERT_TRUE(result.ok()) << result.error().to_text();
    if (result.value().session_id != 0) {
      backends[home]->sys.sessions->complete(result.value().session_id);
    }
  }
  EXPECT_EQ(router.stats().routed[0] + router.stats().routed[1], 12u);
  EXPECT_EQ(router.stats().overload_hops, 0u);
  EXPECT_EQ(router.stats().deadline_failures, 0u);
  EXPECT_TRUE(backend0.sys.drained());
  EXPECT_TRUE(backend1.sys.drained());
}

TEST(WireShardRouterLoopback, OverloadHopsToTheNextShardOnly) {
  // The home shard of "article" sheds (one connection slot, already taken);
  // the router must hop to the other shard and come back with an answer.
  const std::size_t home = ShardDirectory(2).shard_of_key("article");

  WireBackend constrained(/*max_connections=*/1);
  WireBackend spare;
  WireClient occupant(backend_config(constrained.server->port()));
  ASSERT_TRUE(occupant.ping().ok());  // takes the only slot

  WireShardRouterConfig config;
  config.backends.resize(2);
  config.backends[home] = backend_config(constrained.server->port());
  config.backends[1 - home] = backend_config(spare.server->port());
  WireShardRouter router(config);

  NegotiationRequest req = tolerant_request(1, constrained.sys.clients[0], "article");
  ASSERT_EQ(router.home_shard(req), home);
  auto result = router.submit(req);
  ASSERT_TRUE(result.ok()) << result.error().to_text();
  EXPECT_EQ(router.stats().overload_hops, 1u);
  EXPECT_EQ(router.stats().deadline_failures, 0u);
  EXPECT_EQ(router.stats().routed[home], 1u);
  if (result.value().session_id != 0) {
    spare.sys.sessions->complete(result.value().session_id);
  }
  occupant.close();
  EXPECT_TRUE(spare.sys.drained());
}

TEST(WireShardRouterLoopback, DeadlineFailsFastWithoutHopping) {
  // The home shard accepts the connection and never answers. The expired
  // deadline must surface as typed kDeadlineExceeded and must NOT be
  // retried on the other (healthy) shard: the silent home may still be
  // working on the request.
  const std::size_t home = ShardDirectory(2).shard_of_key("article");

  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  WireBackend healthy;
  WireShardRouterConfig config;
  config.backends.resize(2);
  config.backends[home] = backend_config(ntohs(addr.sin_port), /*deadline_ms=*/100.0);
  config.backends[1 - home] = backend_config(healthy.server->port());
  WireShardRouter router(config);

  NegotiationRequest req = tolerant_request(1, healthy.sys.clients[0], "article");
  auto result = router.submit(req);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, WireErrorCode::kDeadlineExceeded);
  EXPECT_EQ(router.stats().deadline_failures, 1u);
  EXPECT_EQ(router.stats().overload_hops, 0u);  // no hop: the other shard was never asked
  ::close(listener);
  EXPECT_TRUE(healthy.sys.drained());
}

// --- the routing key ----------------------------------------------------------

TEST(ShardRouting, ResolvedDocumentIdOutranksCatalogIdInBothRouters) {
  // A renegotiation-style request: `resolved` carries "cross", `document`
  // names an id that hashes to the other shard. Both routers must route by
  // the resolved id.
  const ShardDirectory directory(2);
  const std::size_t home = directory.shard_of_key("cross");
  int suffix = 0;
  DocumentId elsewhere = "elsewhere-0";
  while (directory.shard_of_key(elsewhere) == home) {
    elsewhere = "elsewhere-" + std::to_string(++suffix);
  }
  const std::vector<ClientMachine> clients = make_clients(4);
  NegotiationRequest req = tolerant_request(1, clients[0], elsewhere);
  req.resolved = std::make_shared<const MultimediaDocument>(
      cross_document("cross", "server-a", "server-b"));
  ASSERT_EQ(directory.shard_of_request(req), home);

  ShardedService sharded(two_shard_specs(4));
  sharded.start();
  EXPECT_EQ(sharded.router().home_shard(req), home);
  NegotiationResult result = sharded.router().submit(req).get();
  EXPECT_EQ(sharded.shard_metrics().routed[home]->value(), 1u);
  EXPECT_EQ(sharded.shard_metrics().routed[1 - home]->value(), 0u);
  if (result.session_id != 0) sharded.sessions().complete(result.session_id);
  sharded.stop();
  EXPECT_TRUE(sharded.drained());

  // Over the wire a resolved reference is unencodable, but the routing
  // decision is taken (and counted) first.
  WireBackend backend0;
  WireBackend backend1;
  WireShardRouterConfig config;
  config.backends = {backend_config(backend0.server->port()),
                     backend_config(backend1.server->port())};
  WireShardRouter router(config);
  EXPECT_EQ(router.home_shard(req), home);
  auto wired = router.submit(req);
  ASSERT_FALSE(wired.ok());
  EXPECT_EQ(wired.error().code, WireErrorCode::kUnencodable);
  EXPECT_EQ(router.stats().routed[home], 1u);
  EXPECT_EQ(router.stats().routed[1 - home], 0u);
}

// --- the population over the federation -------------------------------------

TEST(ShardedPopulation, SingleShardRouterMatchesService) {
  auto corpus_documents = [] {
    CorpusConfig corpus;
    corpus.seed = 7;
    corpus.num_documents = 6;
    corpus.min_duration_s = 30.0;
    corpus.max_duration_s = 120.0;
    return generate_corpus(corpus);
  };
  auto population_config = [](const std::vector<ClientMachine>& clients) {
    PopulationConfig config;
    config.classes = standard_population();
    for (std::size_t i = 0; i < config.classes.size(); ++i) {
      config.classes[i].machine.node = clients[i].node;
    }
    config.duration_s = 60.0;
    config.seed = 13;
    return config;
  };
  NodeConfig node;
  node.workers(4).auto_confirm(false);  // Step 6 belongs to the population

  // In-process service twin.
  ServiceSystem direct_sys(3);
  for (auto& doc : corpus_documents()) direct_sys.catalog.add(std::move(doc));
  const std::vector<DocumentId> direct_docs = direct_sys.catalog.list();
  NegotiationService direct(*direct_sys.manager, *direct_sys.sessions, node.service());
  direct.start();
  const PopulationMetrics in_process =
      Population(population_config(direct_sys.clients), direct, direct_docs).run();
  direct.stop();

  // One-shard federation twin: same seed, every negotiation routed.
  std::vector<ShardSpec> specs(1);
  for (int i = 0; i < 2; ++i) {
    MediaServerConfig server;
    server.id = i == 0 ? "server-a" : "server-b";
    server.node = "server-node-" + std::to_string(i);
    server.disk_bandwidth_bps = 10'000'000'000;
    server.max_sessions = 100'000;
    specs[0].servers.push_back(std::move(server));
  }
  specs[0].topology = Topology::dumbbell(3, 2, 1'000'000'000, 10'000'000'000);
  ShardedService sharded(std::move(specs), node);
  EXPECT_TRUE(sharded.add_document(TestSystem::news_article()).empty());
  for (auto& doc : corpus_documents()) EXPECT_TRUE(sharded.add_document(std::move(doc)).empty());
  sharded.start();
  const std::vector<DocumentId> sharded_docs = sharded.catalog(0).list();
  ASSERT_EQ(sharded_docs, direct_docs);
  const PopulationMetrics federated =
      Population(population_config(make_clients(3)), sharded.router(), sharded_docs).run();
  sharded.stop();

  EXPECT_TRUE(in_process.conserved()) << in_process.signature();
  EXPECT_TRUE(federated.conserved()) << federated.signature();
  EXPECT_EQ(in_process.signature(), federated.signature());
  EXPECT_TRUE(direct_sys.drained());
  EXPECT_TRUE(sharded.drained());
}

TEST(ShardedPopulation, RouterRefusesToNegotiateForAutoConfirmingCluster) {
  ShardedService sharded(two_shard_specs(1));  // default NodeConfig auto-confirms
  const std::vector<ClientMachine> clients = make_clients(1);
  EXPECT_THROW(sharded.router().negotiate(tolerant_request(1, clients[0], "cross"), 0.0),
               std::invalid_argument);
  EXPECT_EQ(sharded.shard_metrics().requests->value(), 0u);  // refused before routing
}

}  // namespace
}  // namespace qosnp
