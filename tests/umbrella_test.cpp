// The umbrella header must pull in the whole public API, and a downstream
// user should be able to run the full pipeline with only this include.
#include "qosnp.hpp"

#include <gtest/gtest.h>

namespace qosnp {
namespace {

TEST(Umbrella, EndToEndWithSingleInclude) {
  Catalog catalog;
  CorpusConfig corpus;
  corpus.num_documents = 2;
  for (auto& doc : generate_corpus(corpus)) catalog.add(std::move(doc));

  TransportService transport(Topology::dumbbell(1, 2, 50'000'000, 200'000'000));
  ServerFarm farm;
  farm.add(MediaServerConfig{"server-a", "server-node-0", 100'000'000, 16, {}});
  farm.add(MediaServerConfig{"server-b", "server-node-1", 100'000'000, 16, {}});

  ClientMachine client;
  client.name = "client-0";
  client.node = "client-0";
  client.decoders = {CodingFormat::kMPEG1,     CodingFormat::kMPEG2, CodingFormat::kMJPEG,
                     CodingFormat::kPCM,       CodingFormat::kADPCM, CodingFormat::kMPEGAudio,
                     CodingFormat::kPlainText, CodingFormat::kJPEG,  CodingFormat::kGIF};

  QoSManager manager(catalog, farm, transport);
  SessionManager sessions(manager);
  const UserProfile profile = standard_profile_mix()[1];
  NegotiationResult outcome = manager.negotiate(make_negotiation_request(client, catalog.list().front(), profile));
  ASSERT_TRUE(outcome.has_commitment()) << render_summary(outcome);
  auto id = sessions.open(client, profile, std::move(outcome), 0.0);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(sessions.confirm(id.value(), 1.0).ok());
  sessions.advance(id.value(), 10'000.0);
  EXPECT_EQ(sessions.snapshot(id.value())->state, SessionState::kCompleted);
}

}  // namespace
}  // namespace qosnp
