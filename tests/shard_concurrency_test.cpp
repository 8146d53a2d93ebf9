// Concurrency suite for the shard router (run under tsan by the sanitizer
// presets): a 4-shard federation hammered by 8 client threads submitting a
// mix of single-shard and cross-shard documents through the router at once.
// Afterwards every opened session is completed and the global invariants
// must hold exactly: the qosnp_shard_* balance law, zero reservations on
// every shard's farm and transport, and consistent accounting — the
// concurrent cross-shard walks leaked nothing and raced nothing.
#include "shard/sharded_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "document/corpus.hpp"
#include "test_system.hpp"
#include "util/rng.hpp"

namespace qosnp {
namespace {

using testing::TestSystem;

constexpr int kShards = 4;
constexpr int kThreads = 8;
constexpr int kPerThread = 24;

std::vector<ShardSpec> four_shard_specs(int num_clients) {
  std::vector<ShardSpec> specs(kShards);
  for (int k = 0; k < kShards; ++k) {
    MediaServerConfig server;
    server.id = "shard-server-" + std::to_string(k);
    server.node = "server-node-" + std::to_string(k);
    server.disk_bandwidth_bps = 10'000'000'000;
    server.max_sessions = 100'000;
    specs[static_cast<std::size_t>(k)].servers.push_back(std::move(server));
    // Every shard's topology carries all client nodes and all four server
    // nodes; only its own server node is registered to it.
    specs[static_cast<std::size_t>(k)].topology =
        Topology::dumbbell(num_clients, kShards, 1'000'000'000, 10'000'000'000);
  }
  return specs;
}

/// A document whose video lives on shard `k` and whose audio+text live on
/// shard `(k+1) % kShards` — guaranteed cross-shard on every commit.
MultimediaDocument cross_document(int k) {
  const std::string id = "cross-" + std::to_string(k);
  const ServerId video_server = "shard-server-" + std::to_string(k);
  const ServerId other_server = "shard-server-" + std::to_string((k + 1) % kShards);
  MultimediaDocument doc;
  doc.id = id;
  doc.title = "Cross-shard " + id;
  doc.copyright_cost = Money::cents(10);
  const double duration = 60.0;

  Monomedia video;
  video.id = id + "/video";
  video.kind = MediaKind::kVideo;
  video.duration_s = duration;
  video.variants = {make_video_variant(id + "/video/hi", VideoQoS{ColorDepth::kColor, 25, 640},
                                       CodingFormat::kMPEG1, duration, video_server)};
  doc.monomedia.push_back(std::move(video));

  Monomedia audio;
  audio.id = id + "/audio";
  audio.kind = MediaKind::kAudio;
  audio.duration_s = duration;
  audio.variants = {make_audio_variant(id + "/audio/cd", AudioQuality::kCD, CodingFormat::kPCM,
                                       duration, other_server)};
  doc.monomedia.push_back(std::move(audio));

  Monomedia text;
  text.id = id + "/text";
  text.kind = MediaKind::kText;
  text.variants = {make_text_variant(id + "/text/en", Language::kEnglish,
                                     CodingFormat::kPlainText, 8'000, other_server)};
  doc.monomedia.push_back(std::move(text));
  return doc;
}

TEST(ShardConcurrency, MixedLoadThroughTheRouterDrainsBalanced) {
  ShardedService sharded(four_shard_specs(kThreads));
  // Single-shard documents spread over all four shards' servers...
  CorpusConfig corpus;
  corpus.seed = 23;
  corpus.num_documents = 8;
  corpus.min_duration_s = 30.0;
  corpus.max_duration_s = 90.0;
  corpus.servers.clear();
  for (int k = 0; k < kShards; ++k) corpus.servers.push_back("shard-server-" + std::to_string(k));
  for (auto& doc : generate_corpus(corpus)) {
    ASSERT_TRUE(sharded.add_document(std::move(doc)).empty());
  }
  // ...plus one guaranteed-cross-shard document per shard pair.
  for (int k = 0; k < kShards; ++k) {
    ASSERT_TRUE(sharded.add_document(cross_document(k)).empty());
  }
  const std::vector<DocumentId> docs = [&] {
    std::vector<DocumentId> all;
    for (std::size_t k = 0; k < sharded.shard_count(); ++k) {
      for (const DocumentId& id : sharded.catalog(k).list()) all.push_back(id);
    }
    return all;
  }();
  ASSERT_EQ(docs.size(), 12u);
  sharded.start();

  std::vector<ClientMachine> clients;
  for (int i = 0; i < kThreads; ++i) {
    ClientMachine c;
    c.name = "client-" + std::to_string(i);
    c.node = c.name;
    c.screen = ScreenSpec{1920, 1080, ColorDepth::kSuperColor};
    c.decoders = {CodingFormat::kMPEG1, CodingFormat::kMPEG2,     CodingFormat::kMJPEG,
                  CodingFormat::kPCM,   CodingFormat::kADPCM,     CodingFormat::kMPEGAudio,
                  CodingFormat::kJPEG,  CodingFormat::kPlainText, CodingFormat::kGIF};
    c.max_audio = AudioQuality::kCD;
    clients.push_back(std::move(c));
  }

  std::mutex mu;
  std::vector<SessionId> opened;
  std::atomic<int> succeeded{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xc0ffee + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        NegotiationRequest req;
        req.id = static_cast<std::uint64_t>(t * 1000 + i);
        req.client = clients[static_cast<std::size_t>(t)];
        req.document = docs[rng.below(docs.size())];
        req.profile = TestSystem::tolerant_profile();
        NegotiationResult result = sharded.router().submit(req).get();
        if (result.session_id != 0) {
          ++succeeded;
          std::lock_guard<std::mutex> lock(mu);
          opened.push_back(result.session_id);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_GT(succeeded.load(), 0);
  for (SessionId id : opened) sharded.sessions().complete(id);
  sharded.stop();

  const ShardMetrics& metrics = sharded.shard_metrics();
  EXPECT_EQ(metrics.requests->value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_TRUE(metrics.balanced());
  // Cross-shard documents were in the mix, so the federation actually
  // crossed shard boundaries under concurrency.
  std::uint64_t cross_total = 0;
  for (const Counter* c : metrics.cross_commits) cross_total += c->value();
  EXPECT_GT(cross_total, 0u);
  std::uint64_t forwarded_total = 0;
  for (const Counter* c : metrics.forwarded) forwarded_total += c->value();
  EXPECT_GT(forwarded_total, 0u);
  EXPECT_TRUE(sharded.drained());
}

TEST(ShardConcurrency, ConcurrentCrossShardCompletionsRaceCleanly) {
  // Open and complete cross-shard sessions from many threads at once: the
  // release path (tagged flow ids, per-shard farms) must tolerate the same
  // concurrency as the reserve path.
  ShardedService sharded(four_shard_specs(kThreads));
  for (int k = 0; k < kShards; ++k) {
    ASSERT_TRUE(sharded.add_document(cross_document(k)).empty());
  }
  sharded.start();

  std::vector<ClientMachine> clients;
  for (int i = 0; i < kThreads; ++i) {
    ClientMachine c;
    c.name = "client-" + std::to_string(i);
    c.node = c.name;
    c.screen = ScreenSpec{1920, 1080, ColorDepth::kSuperColor};
    c.decoders = {CodingFormat::kMPEG1, CodingFormat::kPCM, CodingFormat::kPlainText};
    c.max_audio = AudioQuality::kCD;
    clients.push_back(std::move(c));
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 16; ++i) {
        NegotiationRequest req;
        req.id = static_cast<std::uint64_t>(t * 1000 + i);
        req.client = clients[static_cast<std::size_t>(t)];
        req.document = "cross-" + std::to_string((t + i) % kShards);
        req.profile = TestSystem::tolerant_profile();
        NegotiationResult result = sharded.router().submit(req).get();
        if (result.session_id != 0) {
          sharded.sessions().complete(result.session_id);  // complete immediately, racing
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  sharded.stop();
  EXPECT_TRUE(sharded.shard_metrics().balanced());
  EXPECT_TRUE(sharded.drained());
}

}  // namespace
}  // namespace qosnp
