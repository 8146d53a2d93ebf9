// E20 — Horizontally sharded negotiation federation (extension; the paper's
// prototype was one QoS manager). N complete negotiation verticals —
// catalog partition, farm, transport, manager, worker pool — behind one
// consistent-hash router, cross-shard documents committed by the
// FederatedCommitter (reserve on each owning shard in deterministic shard
// order, rollback on refusal, nothing leaks).
//
// Self-checks (non-zero exit on failure):
//   1. Scaling: closed-loop negotiated throughput at 8 shards is >= 3x the
//      single-shard figure under the E16 load shape (simulated per-request
//      RTT, capacity-rich farms), with the qosnp_shard_* balance law and
//      the drain invariant holding after every run.
//   2. Degeneracy: with one shard, the same-seed request stream produces
//      byte-identical results (result signature) to the unsharded service.
//   3. Conservation under cross-shard faults: a foreign shard's server is
//      failed mid-experiment; every partial cross-shard walk rolls back
//      (federated_rollbacks > 0), nothing stays reserved anywhere, and
//      recovery restores successful cross-shard commits.
//   4. The population simulation (E18's load shape) runs over a 4-shard
//      federation with its conservation laws intact.
#include "shard/sharded_service.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "document/corpus.hpp"
#include "result_signature.hpp"
#include "sim/population.hpp"
#include "test_service.hpp"
#include "util/rng.hpp"

namespace {

using namespace qosnp;
using namespace qosnp::bench;
using qosnp::testing::ServiceSystem;
using qosnp::testing::TestSystem;
using qosnp::testing::result_signature;

// The scaling phase is the E16 device one level up: each shard runs ONE
// worker, so a single shard is RTT-bound at ~1/rtt rps and every added
// shard brings its own worker pool — the speedup measures federation
// capacity (overlapped negotiation RTTs), not host parallelism, and so
// holds on a single-core runner.
constexpr double kRttMs = 5.0;
constexpr std::size_t kShardWorkers = 1;
constexpr int kConcurrency = 16;
constexpr std::size_t kScalingRequests = 640;
constexpr int kScalingDocs = 64;

std::vector<ClientMachine> make_clients(int n) {
  std::vector<ClientMachine> clients;
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

/// A document whose whole ladder lives on `video_server` except audio+text,
/// which live on `other_server` (pass the same id twice for a shard-local
/// document).
MultimediaDocument ladder_document(const std::string& id, const ServerId& video_server,
                                   const ServerId& other_server) {
  MultimediaDocument doc;
  doc.id = id;
  doc.title = "E20 " + id;
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

std::vector<ShardSpec> federation_specs(std::size_t shards, int num_clients) {
  std::vector<ShardSpec> specs(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    MediaServerConfig server;
    server.id = "srv-" + std::to_string(k);
    server.node = "server-node-" + std::to_string(k);
    server.disk_bandwidth_bps = 10'000'000'000;
    server.max_sessions = 100'000;
    specs[k].servers.push_back(std::move(server));
    specs[k].topology = Topology::dumbbell(num_clients, static_cast<int>(shards),
                                           1'000'000'000, 10'000'000'000);
  }
  return specs;
}

// --- 1: throughput scaling ---------------------------------------------------

struct ScalingRun {
  double rps = 0.0;
  bool clean = false;  ///< every request succeeded, balance law held, drained
};

/// The E16 closed-loop shape over a federation of `shards`: every document
/// is shard-local (its ladder lives on its home shard's server), each
/// negotiation pays the simulated remote RTT, and kConcurrency client
/// threads keep the federation saturated through the router.
ScalingRun run_scaling(std::size_t shards) {
  ShardedService sharded(
      federation_specs(shards, kConcurrency),
      NodeConfig{}.workers(kShardWorkers).queue_capacity(64).simulated_rtt_ms(kRttMs));
  std::vector<DocumentId> docs;
  for (int i = 0; i < kScalingDocs; ++i) {
    const std::string id = "doc-" + std::to_string(i);
    const ServerId server = "srv-" + std::to_string(sharded.home_of(id));
    if (!sharded.add_document(ladder_document(id, server, server)).empty()) return {};
    docs.push_back(id);
  }
  sharded.start();
  const std::vector<ClientMachine> clients = make_clients(kConcurrency);

  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> succeeded{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kConcurrency; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xe20 + static_cast<std::uint64_t>(t));
      for (;;) {
        const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= kScalingRequests) return;
        NegotiationRequest req;
        req.id = i + 1;
        req.client = clients[static_cast<std::size_t>(t)];
        req.document = docs[rng.below(docs.size())];
        req.profile = TestSystem::tolerant_profile();
        NegotiationResult result = sharded.router().submit(std::move(req)).get();
        if (result.session_id != 0) {
          ++succeeded;
          sharded.sessions().complete(result.session_id);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  sharded.stop();

  ScalingRun run;
  if (std::getenv("E20_DIAG") != nullptr) {
    const LatencyHistogram latency =
        sharded.metrics().histogram("qosnp_request_latency_ms").merged();
    const LatencyHistogram wait = sharded.metrics().histogram("qosnp_queue_wait_ms").merged();
    std::cout << "  [diag] N=" << shards << " latency p50=" << latency.quantile_ms(0.5)
              << "ms mean=" << latency.mean_ms() << "ms | queue wait p50="
              << wait.quantile_ms(0.5) << "ms mean=" << wait.mean_ms() << "ms | routed=";
    for (const Counter* c : sharded.shard_metrics().routed) std::cout << c->value() << ' ';
    std::cout << '\n';
  }
  run.rps = elapsed_s > 0.0 ? static_cast<double>(kScalingRequests) / elapsed_s : 0.0;
  run.clean = succeeded.load() == kScalingRequests &&
              sharded.shard_metrics().requests->value() == kScalingRequests &&
              sharded.drained();
  return run;
}

// --- 2: N=1 byte-identity ----------------------------------------------------

bool run_degeneracy() {
  constexpr int kClients = 8;
  constexpr std::uint64_t kRequests = 120;

  CorpusConfig corpus;
  corpus.seed = 11;
  corpus.num_documents = 8;
  corpus.min_duration_s = 30.0;
  corpus.max_duration_s = 90.0;
  const std::vector<MultimediaDocument> docs = generate_corpus(corpus);

  ServiceSystem direct_sys(kClients, 50'000'000, 200'000'000, 100'000'000, 32);
  for (MultimediaDocument doc : docs) direct_sys.catalog.add(std::move(doc));
  const NodeConfig node;
  NegotiationService direct(*direct_sys.manager, *direct_sys.sessions, node.service());
  direct.start();

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
  if (!sharded.add_document(TestSystem::news_article()).empty()) return false;
  for (MultimediaDocument doc : docs) {
    if (!sharded.add_document(std::move(doc)).empty()) return false;
  }
  sharded.start();

  const std::vector<DocumentId> ids = direct_sys.catalog.list();
  const std::vector<ClientMachine> clients = make_clients(kClients);
  Rng rng(0x1de);
  bool identical = true;
  std::vector<std::pair<SessionId, SessionId>> open;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    NegotiationRequest req;
    req.id = i;
    req.client = clients[rng.below(clients.size())];
    req.document = ids[rng.below(ids.size())];
    req.profile = TestSystem::tolerant_profile();
    NegotiationResult a = direct.submit(req).get();
    NegotiationResult b = sharded.router().submit(req).get();
    identical = identical && result_signature(a) == result_signature(b) &&
                (a.session_id != 0) == (b.session_id != 0);
    if (a.session_id != 0) open.emplace_back(a.session_id, b.session_id);
    if (!open.empty() && rng.chance(0.35)) {
      const std::size_t pick = static_cast<std::size_t>(rng.below(open.size()));
      direct_sys.sessions->complete(open[pick].first);
      sharded.sessions().complete(open[pick].second);
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  for (const auto& [a, b] : open) {
    direct_sys.sessions->complete(a);
    sharded.sessions().complete(b);
  }
  direct.stop();
  sharded.stop();
  return identical && direct_sys.drained() && sharded.drained();
}

// --- 3: cross-shard conservation under faults --------------------------------

struct FaultRun {
  std::uint64_t healthy_successes = 0;
  std::uint64_t outage_successes = 0;
  std::uint64_t recovered_successes = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t cross_commits = 0;
  bool drained = false;

  bool conserves() const {
    return healthy_successes > 0 && outage_successes == 0 && recovered_successes > 0 &&
           rollbacks > 0 && cross_commits > 0 && drained;
  }
};

FaultRun run_cross_shard_faults() {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kForeign = 3;  // the shard whose server we fail
  ShardedService sharded(federation_specs(kShards, kConcurrency),
                         NodeConfig{}.workers(4).queue_capacity(64));

  // Cross-shard documents: video on the document's own home shard, audio +
  // text always on the foreign shard. The walk reserves the home shard
  // first (ascending shard order), so failing the foreign server leaves a
  // partial reservation that MUST roll back.
  std::vector<DocumentId> docs;
  for (int i = 0; docs.size() < 8 && i < 200; ++i) {
    const std::string id = "xdoc-" + std::to_string(i);
    const std::size_t home = sharded.home_of(id);
    if (home == kForeign) continue;  // keep home strictly before the foreign shard
    if (!sharded.add_document(
             ladder_document(id, "srv-" + std::to_string(home), "srv-" + std::to_string(kForeign)))
             .empty()) {
      return {};
    }
    docs.push_back(id);
  }
  sharded.start();
  const std::vector<ClientMachine> clients = make_clients(8);

  auto batch = [&](std::uint64_t base) {
    std::atomic<std::uint64_t> successes{0};
    std::mutex mu;
    std::vector<SessionId> opened;
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(base + static_cast<std::uint64_t>(t));
        for (int i = 0; i < 8; ++i) {
          NegotiationRequest req;
          req.id = base + static_cast<std::uint64_t>(t * 100 + i);
          req.client = clients[static_cast<std::size_t>(t)];
          req.document = docs[rng.below(docs.size())];
          req.profile = TestSystem::tolerant_profile();
          NegotiationResult result = sharded.router().submit(std::move(req)).get();
          if (result.session_id != 0) {
            ++successes;
            std::lock_guard<std::mutex> lock(mu);
            opened.push_back(result.session_id);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (SessionId id : opened) sharded.sessions().complete(id);
    return successes.load();
  };

  FaultRun run;
  run.healthy_successes = batch(1'000);
  sharded.farm(kForeign).find("srv-" + std::to_string(kForeign))->fail();
  run.outage_successes = batch(2'000);  // every walk dies on the foreign shard
  sharded.farm(kForeign).find("srv-" + std::to_string(kForeign))->recover();
  run.recovered_successes = batch(3'000);
  sharded.stop();

  run.rollbacks = sharded.shard_metrics().federated_rollbacks->value();
  for (const Counter* c : sharded.shard_metrics().cross_commits) run.cross_commits += c->value();
  run.drained = sharded.drained();
  return run;
}

// --- 4: the population over the federation -----------------------------------

bool run_population() {
  constexpr std::size_t kShards = 4;
  ShardedService sharded(federation_specs(kShards, 3),
                         NodeConfig{}.workers(4).auto_confirm(false));
  CorpusConfig corpus;
  corpus.seed = 7;
  corpus.num_documents = 8;
  corpus.min_duration_s = 30.0;
  corpus.max_duration_s = 120.0;
  corpus.servers.clear();
  for (std::size_t k = 0; k < kShards; ++k) corpus.servers.push_back("srv-" + std::to_string(k));
  for (auto& doc : generate_corpus(corpus)) {
    if (!sharded.add_document(std::move(doc)).empty()) return false;
  }
  std::vector<DocumentId> docs;
  for (std::size_t k = 0; k < kShards; ++k) {
    for (const DocumentId& id : sharded.catalog(k).list()) docs.push_back(id);
  }
  sharded.start();

  PopulationConfig config;
  config.classes = standard_population();
  const std::vector<ClientMachine> clients = make_clients(3);
  for (std::size_t i = 0; i < config.classes.size(); ++i) {
    config.classes[i].machine.node = clients[i].node;
  }
  config.duration_s = 60.0;
  config.seed = 13;
  const PopulationMetrics metrics = Population(config, sharded.router(), docs).run();
  sharded.stop();
  return metrics.conserved() && sharded.drained() && sharded.shard_metrics().balanced();
}

}  // namespace

int main() {
  print_title("E20: Sharded QoS-manager federation (consistent-hash router + federated commit)");
  std::cout << "(closed loop, " << kConcurrency << " client threads, " << kScalingRequests
            << " requests, simulated RTT " << kRttMs << " ms, " << kShardWorkers
            << " worker per shard,\n"
            << kScalingDocs << " shard-local documents; capacity-rich farms)\n";

  print_section("Shard scaling (E16 load shape through the router)");
  Table scaling({"shards", "rps", "speedup", "clean"});
  double rps_1 = 0.0;
  double rps_8 = 0.0;
  bool all_clean = true;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const ScalingRun run = run_scaling(shards);
    if (shards == 1) rps_1 = run.rps;
    if (shards == 8) rps_8 = run.rps;
    scaling.row({std::to_string(shards), fmt(run.rps, 0),
                 rps_1 > 0.0 ? fmt(run.rps / rps_1, 2) + "x" : "-", check(run.clean)});
    all_clean = all_clean && run.clean;
  }
  scaling.print();
  const double speedup = rps_1 > 0.0 ? rps_8 / rps_1 : 0.0;
  const bool scales = speedup >= 3.0;
  std::cout << "\nClaim: 8 independent verticals behind the router sustain >= 3x the\n"
               "single-shard negotiated throughput. Measured: " << fmt(speedup, 1) << "x   ["
            << check(scales) << "]\n";

  print_section("Degeneracy (one shard == the unsharded service, same seed)");
  const bool identical = run_degeneracy();
  std::cout << "Claim: ShardRouter(N=1) is byte-identical (result signature) to the\n"
               "unsharded NegotiationService over a 120-request mixed stream   ["
            << check(identical) << "]\n";

  print_section("Cross-shard conservation under a foreign-shard outage");
  const FaultRun faults = run_cross_shard_faults();
  Table fault_table({"phase", "successes"});
  fault_table.row({"healthy", std::to_string(faults.healthy_successes)})
      .row({"foreign server failed", std::to_string(faults.outage_successes)})
      .row({"recovered", std::to_string(faults.recovered_successes)})
      .print();
  std::cout << "rollbacks=" << faults.rollbacks << " cross_commits=" << faults.cross_commits
            << " drained=" << check(faults.drained) << '\n';
  const bool conserves = faults.conserves();
  std::cout << "\nClaim: failing a foreign shard's server mid-federation rolls back every\n"
               "partial cross-shard walk (rollbacks > 0), leaks nothing, and recovery\n"
               "restores cross-shard commits   [" << check(conserves) << "]\n";

  print_section("Population simulation over a 4-shard federation (E18 load shape)");
  const bool population = run_population();
  std::cout << "Claim: the population's conservation laws and the shard balance law hold\n"
               "over a federated backend   [" << check(population) << "]\n";

  return all_clean && scales && identical && conserves && population ? 0 : 1;
}
