// E12 (extension) — Hierarchical multi-domain negotiation [Haf 95b], cited
// by the paper as part of its negotiation framework. The end-to-end path
// crosses administrative domains, each quoting its own segment tariff; the
// root negotiation composes segment offers. This bench admits a batch of
// negotiated sessions over a diamond of domains (a cheap transit of finite
// capacity in parallel with an expensive one) and compares the cost-aware
// route policy against the tariff-blind fewest-domains policy: who admits
// more, who routes via the cheap transit, and what the carried traffic
// costs per second.
#include <memory>

#include "core/qos_manager.hpp"
#include "document/catalog.hpp"
#include "document/corpus.hpp"
#include "domain/multi_domain.hpp"
#include "server/media_server.hpp"
#include "sim/experiment.hpp"
#include "util/rng.hpp"

#include "bench_util.hpp"

namespace {

using namespace qosnp;
using namespace qosnp::bench;

CostTable flat_tariff(Money per_second) {
  return CostTable{{{1'000'000'000, per_second}}};
}

std::unique_ptr<MultiDomainTransport> make_world(MultiDomainTransport::RoutePolicy policy) {
  // The cheap path crosses *two* regional domains; the direct path is one
  // premium backbone domain — so the tariff-blind fewest-domains policy
  // always buys the premium route, while the cost-aware policy takes the
  // two-hop regional route while it has capacity.
  std::vector<DomainConfig> domains = {
      {"client-domain", 400'000'000, flat_tariff(Money::micros(200))},
      {"regional-a", 120'000'000, flat_tariff(Money::micros(500))},
      {"regional-b", 120'000'000, flat_tariff(Money::micros(500))},
      {"premium-backbone", 400'000'000, flat_tariff(Money::micros(8'000))},
      {"server-domain", 400'000'000, flat_tariff(Money::micros(200))},
  };
  auto net = std::make_unique<MultiDomainTransport>(std::move(domains), policy);
  (void)net->add_peering("client-domain", "regional-a");
  (void)net->add_peering("regional-a", "regional-b");
  (void)net->add_peering("regional-b", "server-domain");
  (void)net->add_peering("client-domain", "premium-backbone");
  (void)net->add_peering("premium-backbone", "server-domain");
  for (int i = 0; i < 8; ++i) (void)net->attach("client-" + std::to_string(i), "client-domain");
  (void)net->attach("server-node-0", "server-domain");
  (void)net->attach("server-node-1", "server-domain");
  return net;
}

}  // namespace

int main() {
  print_title("E12 (extension): hierarchical multi-domain negotiation");

  CorpusConfig corpus;
  corpus.num_documents = 30;
  corpus.seed = 21;
  Catalog catalog;
  for (auto& doc : generate_corpus(corpus)) catalog.add(std::move(doc));
  const auto doc_ids = catalog.list();
  const auto profiles = standard_profile_mix();

  Table table({"route policy", "admitted", "blocked", "via cheap", "via pricey",
               "carried cost $/s"});
  double cheapest_cost = 0.0;
  double fewest_cost = 0.0;
  std::size_t cheapest_admitted = 0;
  std::size_t fewest_admitted = 0;
  for (const auto policy : {MultiDomainTransport::RoutePolicy::kCheapest,
                            MultiDomainTransport::RoutePolicy::kFewestDomains}) {
    auto net = make_world(policy);
    ServerFarm farm;
    for (int i = 0; i < 2; ++i) {
      MediaServerConfig s;
      s.id = corpus.servers[static_cast<std::size_t>(i)];
      s.node = "server-node-" + std::to_string(i);
      s.disk_bandwidth_bps = 300'000'000;
      s.max_sessions = 256;
      farm.add(std::move(s));
    }
    QoSManager manager(catalog, farm, *net);

    Rng rng(17);
    std::size_t admitted = 0;
    std::size_t blocked = 0;
    std::size_t via_cheap = 0;
    std::size_t via_pricey = 0;
    Money carried_per_second;
    std::vector<NegotiationResult> held;  // keep commitments alive
    for (int i = 0; i < 40; ++i) {
      ClientMachine client;
      client.name = "client-" + std::to_string(rng.below(8));
      client.node = client.name;
      client.decoders = {CodingFormat::kMPEG1,     CodingFormat::kMPEG2,
                         CodingFormat::kMJPEG,     CodingFormat::kPCM,
                         CodingFormat::kADPCM,     CodingFormat::kMPEGAudio,
                         CodingFormat::kPlainText, CodingFormat::kJPEG,
                         CodingFormat::kGIF};
      const UserProfile& profile = profiles[rng.below(profiles.size())];
      NegotiationResult outcome =
          manager.negotiate(make_negotiation_request(client, doc_ids[rng.below(doc_ids.size())], profile));
      if (!outcome.has_commitment()) {
        ++blocked;
        continue;
      }
      ++admitted;
      for (FlowId flow : outcome.commitment.flow_ids()) {
        const auto route = net->route_of(flow);
        for (const DomainId& d : route) {
          if (d == "regional-a") ++via_cheap;
          if (d == "premium-backbone") ++via_pricey;
        }
      }
      held.push_back(std::move(outcome));
    }
    // Price the carried traffic: flat per-stream tariff x flows per domain.
    const std::pair<std::string, Money> tariffs[] = {
        {"client-domain", Money::micros(200)},   {"regional-a", Money::micros(500)},
        {"regional-b", Money::micros(500)},      {"premium-backbone", Money::micros(8'000)},
        {"server-domain", Money::micros(200)},
    };
    for (const auto& [d, tariff] : tariffs) {
      carried_per_second += tariff * static_cast<std::int64_t>(net->usage(d).flow_count);
    }
    table.row({policy == MultiDomainTransport::RoutePolicy::kCheapest ? "cheapest"
                                                                      : "fewest-domains",
               std::to_string(admitted), std::to_string(blocked), std::to_string(via_cheap),
               std::to_string(via_pricey), carried_per_second.to_string()});
    if (policy == MultiDomainTransport::RoutePolicy::kCheapest) {
      cheapest_cost = carried_per_second.as_dollars();
      cheapest_admitted = admitted;
    } else {
      fewest_cost = carried_per_second.as_dollars();
      fewest_admitted = admitted;
    }
  }
  table.print();

  const bool shape = cheapest_cost <= fewest_cost && cheapest_admitted >= fewest_admitted;
  std::cout << "\nThe cost-aware hierarchical composition carries the same workload at\n"
               "lower transit cost ($"
            << fmt(cheapest_cost, 4) << "/s vs $" << fmt(fewest_cost, 4)
            << "/s) and admits at least as many sessions   [" << check(shape) << "]\n";
  return shape ? 0 : 1;
}
