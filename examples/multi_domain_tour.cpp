// Multi-domain tour: hierarchical QoS negotiation across administrative
// domains ([Haf 95b]). A client in one domain plays documents from servers
// in another; the transit can go through two cheap regional domains or one
// premium backbone. Watch the root negotiation compose per-domain segment
// offers, prefer the cheap composition, and overflow to the premium route
// as the regional capacity fills.
// Run: ./examples/multi_domain_tour
#include <iostream>

#include "core/qos_manager.hpp"
#include "document/catalog.hpp"
#include "document/corpus.hpp"
#include "domain/multi_domain.hpp"
#include "server/media_server.hpp"
#include "sim/experiment.hpp"

using namespace qosnp;

int main() {
  CorpusConfig corpus;
  corpus.num_documents = 6;
  corpus.seed = 9;
  Catalog catalog;
  for (auto& doc : generate_corpus(corpus)) catalog.add(std::move(doc));

  auto flat = [](std::int64_t micros_per_s) {
    return CostTable{{{1'000'000'000, Money::micros(micros_per_s)}}};
  };
  MultiDomainTransport net(
      {
          {"metro-net", 400'000'000, flat(200)},
          {"regional-a", 40'000'000, flat(500)},
          {"regional-b", 40'000'000, flat(500)},
          {"premium-backbone", 400'000'000, flat(8'000)},
          {"hoster-net", 400'000'000, flat(200)},
      },
      MultiDomainTransport::RoutePolicy::kCheapest);
  (void)net.add_peering("metro-net", "regional-a");
  (void)net.add_peering("regional-a", "regional-b");
  (void)net.add_peering("regional-b", "hoster-net");
  (void)net.add_peering("metro-net", "premium-backbone");
  (void)net.add_peering("premium-backbone", "hoster-net");
  (void)net.attach("client-0", "metro-net");
  (void)net.attach("server-node-0", "hoster-net");
  (void)net.attach("server-node-1", "hoster-net");

  ServerFarm farm;
  farm.add(MediaServerConfig{"server-a", "server-node-0", 300'000'000, 64, {}});
  farm.add(MediaServerConfig{"server-b", "server-node-1", 300'000'000, 64, {}});
  ClientMachine client;
  client.name = "client-0";
  client.node = "client-0";
  client.decoders = {CodingFormat::kMPEG1,     CodingFormat::kMPEG2, CodingFormat::kMJPEG,
                     CodingFormat::kPCM,       CodingFormat::kADPCM, CodingFormat::kMPEGAudio,
                     CodingFormat::kPlainText, CodingFormat::kJPEG,  CodingFormat::kGIF};

  QoSManager manager(catalog, farm, net);
  const UserProfile profile = standard_profile_mix()[0];  // demanding

  std::cout << "Negotiating every article; transit = regional (cheap) or premium:\n\n";
  std::vector<NegotiationResult> held;
  for (const DocumentId& id : catalog.list()) {
    NegotiationResult outcome = manager.negotiate(make_negotiation_request(client, id, profile));
    std::cout << id << ": " << to_string(outcome.verdict);
    if (outcome.has_commitment()) {
      std::cout << " via {";
      bool first = true;
      for (FlowId flow : outcome.commitment.flow_ids()) {
        for (const DomainId& d : net.route_of(flow)) {
          if (d == "regional-a" || d == "premium-backbone") {
            std::cout << (first ? "" : ", ") << d;
            first = false;
          }
        }
        break;  // one flow's transit is representative
      }
      std::cout << "}";
      held.push_back(std::move(outcome));
    }
    std::cout << '\n';
  }

  std::cout << "\nDomain usage after admissions:\n";
  for (const DomainId& d : {std::string("regional-a"), std::string("premium-backbone")}) {
    const DomainUsage u = net.usage(d);
    std::cout << "  " << d << ": " << u.reserved_bps / 1'000'000 << " / "
              << u.capacity_bps / 1'000'000 << " Mbit/s reserved across " << u.flow_count
              << " flows\n";
  }
  std::cout << "\nThe cheap regional composition carries traffic until it fills; the\n"
               "premium backbone absorbs the overflow — per-domain tariffs decide.\n";
  return 0;
}
