// Future reservations demo: when the system is busy, the negotiation
// doesn't have to end at FAILEDTRYLATER — the advance planner books the
// best configuration at the earliest time its resources are all free and
// counter-offers a start time ("your news programme can start at 18:42").
// Run: ./examples/future_booking
#include <iostream>

#include "advance/planner.hpp"
#include "core/classify.hpp"
#include "core/enumerate.hpp"
#include "document/catalog.hpp"
#include "document/corpus.hpp"
#include "sim/experiment.hpp"

using namespace qosnp;

int main() {
  // A deliberately tight system: one client whose access link carries one
  // good video stream at a time.
  CorpusConfig corpus;
  corpus.num_documents = 4;
  corpus.seed = 11;
  Catalog catalog;
  for (auto& doc : generate_corpus(corpus)) catalog.add(std::move(doc));

  Topology topology = Topology::dumbbell(1, 2, 12'000'000, 200'000'000);
  std::vector<MediaServerConfig> servers;
  for (int i = 0; i < 2; ++i) {
    MediaServerConfig s;
    s.id = corpus.servers[static_cast<std::size_t>(i)];
    s.node = "server-node-" + std::to_string(i);
    s.disk_bandwidth_bps = 100'000'000;
    s.max_sessions = 16;
    servers.push_back(std::move(s));
  }
  ClientMachine client;
  client.name = "home-pc";
  client.node = "client-0";
  client.decoders = {CodingFormat::kMPEG1,     CodingFormat::kMPEG2, CodingFormat::kMJPEG,
                     CodingFormat::kPCM,       CodingFormat::kADPCM, CodingFormat::kMPEGAudio,
                     CodingFormat::kPlainText, CodingFormat::kJPEG,  CodingFormat::kGIF};

  FutureReservationPlanner planner(topology, servers);
  const UserProfile profile = standard_profile_mix()[1];  // "typical"

  std::cout << "Booking four articles back-to-back on a link that carries one stream:\n\n";
  double now = 0.0;
  for (const DocumentId& id : catalog.list()) {
    auto document = catalog.find(id);
    auto feasible = compatible_variants(document, client, profile.mm);
    if (!feasible.ok()) {
      std::cout << "  " << id << ": " << feasible.error() << '\n';
      continue;
    }
    OfferList offers = enumerate_offers(feasible.value(), profile.mm, CostModel{});
    classify_offers(offers.eager, profile.mm, profile.importance);

    auto plan = planner.plan(client, offers, profile.mm, now);
    if (!plan.ok()) {
      std::cout << "  " << id << ": no slot within the booking horizon (" << plan.error()
                << ")\n";
      continue;
    }
    const FuturePlan& p = plan.value();
    std::cout << "  " << id << ": " << (p.start_s <= now ? "starts now" : "deferred")
              << " at t=" << p.start_s << "s (until t=" << p.end_s << "s)\n"
              << "      " << p.offer.describe()
              << (p.satisfies_user ? "" : "  [degraded offer]") << '\n';
  }
  std::cout << "\nActive bookings: " << planner.active_plans()
            << ". Each would be released if its user declined the counter-offer.\n";
  return 0;
}
