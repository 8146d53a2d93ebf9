// E11 (extension) — Negotiation with future reservations [Haf 96], which
// the paper's framework includes via its optimization scheme citations.
// Without advance booking, a request that cannot be committed now is a bare
// FAILEDTRYLATER; with the planner, the same request receives a counter-
// offer "the document can start at T" and a firm booking. This bench feeds
// one stream of requests (desired start = arrival time) through a
// constrained system and reports, for several booking horizons, how many
// requests are served immediately, deferred (and by how much), or refused.
#include "advance/planner.hpp"
#include "core/classify.hpp"
#include "core/enumerate.hpp"
#include "document/catalog.hpp"
#include "document/corpus.hpp"
#include "sim/experiment.hpp"
#include "util/rng.hpp"

#include <numeric>

#include "bench_util.hpp"

namespace {

using namespace qosnp;
using namespace qosnp::bench;

struct Request {
  double arrival_s;
  DocumentId document;
  const UserProfile* profile;
};

}  // namespace

int main() {
  print_title("E11 (extension): future reservations vs immediate-only admission");

  // Content and infrastructure.
  CorpusConfig corpus;
  corpus.num_documents = 30;
  corpus.seed = 21;
  Catalog catalog;
  for (auto& doc : generate_corpus(corpus)) catalog.add(std::move(doc));
  const auto doc_ids = catalog.list();

  Topology topology = Topology::dumbbell(4, 2, 30'000'000, 60'000'000);
  std::vector<MediaServerConfig> servers;
  for (int i = 0; i < 2; ++i) {
    MediaServerConfig s;
    s.id = corpus.servers[static_cast<std::size_t>(i)];
    s.node = "server-node-" + std::to_string(i);
    s.disk_bandwidth_bps = 50'000'000;
    s.max_sessions = 64;
    servers.push_back(std::move(s));
  }
  ClientMachine client;
  client.name = "client-0";
  client.node = "client-0";
  client.decoders = {CodingFormat::kMPEG1,     CodingFormat::kMPEG2, CodingFormat::kMJPEG,
                     CodingFormat::kPCM,       CodingFormat::kADPCM, CodingFormat::kMPEGAudio,
                     CodingFormat::kPlainText, CodingFormat::kJPEG,  CodingFormat::kGIF};

  const std::vector<UserProfile> profiles = standard_profile_mix();

  // One fixed request stream, replayed against every horizon setting.
  Rng rng(7);
  std::vector<Request> requests;
  double t = 0.0;
  while (t < 600.0) {
    t += rng.exponential(0.15);
    requests.push_back(Request{t, doc_ids[rng.below(doc_ids.size())],
                               &profiles[rng.below(profiles.size())]});
  }

  Table table({"booking horizon", "requests", "immediate", "deferred", "refused",
               "mean defer", "p95 defer"});
  double refused_at_zero = -1.0;
  double refused_at_max = -1.0;
  for (const double horizon : {0.0, 120.0, 600.0, 3'600.0}) {
    FutureReservationPlanner::Config config;
    config.max_start_delay_s = horizon;
    FutureReservationPlanner planner(topology, servers, config);

    std::size_t immediate = 0;
    std::size_t deferred = 0;
    std::size_t refused = 0;
    std::vector<double> defers;
    for (const Request& request : requests) {
      planner.trim(request.arrival_s);
      auto document = catalog.find(request.document);
      auto feasible = compatible_variants(document, client, request.profile->mm);
      if (!feasible.ok()) {
        ++refused;
        continue;
      }
      OfferList offers =
          enumerate_offers(feasible.value(), request.profile->mm, CostModel{});
      classify_offers(offers.eager, request.profile->mm, request.profile->importance);
      auto plan = planner.plan(client, offers, request.profile->mm, request.arrival_s);
      if (!plan.ok()) {
        ++refused;
        continue;
      }
      const double defer = plan.value().start_s - request.arrival_s;
      if (defer <= 1e-9) {
        ++immediate;
      } else {
        ++deferred;
        defers.push_back(defer);
      }
    }
    std::sort(defers.begin(), defers.end());
    const double mean_defer =
        defers.empty() ? 0.0
                       : std::accumulate(defers.begin(), defers.end(), 0.0) /
                             static_cast<double>(defers.size());
    const double p95 =
        defers.empty() ? 0.0 : defers[static_cast<std::size_t>(0.95 * (defers.size() - 1))];
    table.row({horizon == 0.0 ? "none (immediate only)" : fmt(horizon, 0) + "s",
               std::to_string(requests.size()), std::to_string(immediate),
               std::to_string(deferred), std::to_string(refused), fmt(mean_defer, 1) + "s",
               fmt(p95, 1) + "s"});
    if (horizon == 0.0) refused_at_zero = static_cast<double>(refused);
    if (horizon == 3'600.0) refused_at_max = static_cast<double>(refused);
  }
  table.print();

  const bool shape = refused_at_max < refused_at_zero;
  std::cout << "\nFuture reservations convert refusals into dated counter-offers\n"
               "(refused: "
            << refused_at_zero << " immediate-only -> " << refused_at_max
            << " with a 1h horizon)   [" << check(shape) << "]\n";
  return shape ? 0 : 1;
}
