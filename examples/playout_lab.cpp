// Playout lab: negotiate a news article, then actually *play* the committed
// configuration block-by-block through the delivery simulator — at the
// reserved rate and, for contrast, at an under-provisioned rate — and print
// per-stream playout reports plus the audio/video sync skew.
// Run: ./examples/playout_lab
#include <iostream>

#include "core/qos_manager.hpp"
#include "delivery/playout.hpp"
#include "document/catalog.hpp"
#include "document/corpus.hpp"
#include "server/media_server.hpp"
#include "sim/experiment.hpp"

using namespace qosnp;

namespace {

void print_report(const std::string& label, const PlayoutReport& report) {
  std::cout << "  " << label << ": " << report.blocks << " blocks, " << report.stalls
            << " stalls (" << report.total_stall_s << "s total), worst lateness "
            << report.max_lateness_s * 1000.0 << " ms\n";
}

}  // namespace

int main() {
  CorpusConfig corpus;
  corpus.num_documents = 3;
  corpus.seed = 5;
  Catalog catalog;
  for (auto& doc : generate_corpus(corpus)) catalog.add(std::move(doc));

  TransportService transport(Topology::dumbbell(1, 2, 60'000'000, 200'000'000));
  ServerFarm farm;
  farm.add(MediaServerConfig{"server-a", "server-node-0", 100'000'000, 32, {}});
  farm.add(MediaServerConfig{"server-b", "server-node-1", 100'000'000, 32, {}});
  ClientMachine client;
  client.name = "viewer";
  client.node = "client-0";
  client.decoders = {CodingFormat::kMPEG1,     CodingFormat::kMPEG2, CodingFormat::kMJPEG,
                     CodingFormat::kPCM,       CodingFormat::kADPCM, CodingFormat::kMPEGAudio,
                     CodingFormat::kPlainText, CodingFormat::kJPEG,  CodingFormat::kGIF};

  QoSManager manager(catalog, farm, transport);
  const UserProfile profile = standard_profile_mix()[1];
  const DocumentId doc_id = catalog.list().front();
  NegotiationResult outcome = manager.negotiate(make_negotiation_request(client, doc_id, profile));
  std::cout << "negotiated '" << doc_id << "': " << to_string(outcome.verdict) << '\n';
  if (!outcome.has_commitment()) return 1;
  const SystemOffer offer = outcome.offers.offer(outcome.committed_index);

  const PlayoutReport* video_report = nullptr;
  const PlayoutReport* audio_report = nullptr;
  std::vector<PlayoutReport> reports;
  reports.reserve(offer.components.size() * 2);
  for (const OfferComponent& c : offer.components) {
    if (c.requirements.guarantee != GuaranteeClass::kGuaranteed) continue;
    const double duration = c.monomedia->duration_s;
    std::cout << "\n" << c.variant->describe() << '\n';

    DeliveryConfig reserved;
    reserved.bottleneck_bps = c.requirements.max_bit_rate_bps;  // the Sec. 6 reservation
    reserved.jitter_ms = c.requirements.jitter_ms;
    reserved.loss_rate = c.requirements.loss_rate;
    reserved.prebuffer_s = 1.0;
    reports.push_back(simulate_playout(*c.variant, duration, reserved));
    print_report("at reserved rate (maxBitRate)", reports.back());
    if (c.variant->kind() == MediaKind::kVideo && video_report == nullptr) {
      video_report = &reports.back();
    }
    if (c.variant->kind() == MediaKind::kAudio && audio_report == nullptr) {
      audio_report = &reports.back();
    }

    DeliveryConfig starved = reserved;
    starved.bottleneck_bps = c.requirements.avg_bit_rate_bps * 9 / 10;
    reports.push_back(simulate_playout(*c.variant, duration, starved));
    print_report("at 0.9 x avgBitRate (ablation)", reports.back());
  }

  if (video_report != nullptr && audio_report != nullptr) {
    const double skew = max_sync_skew(*video_report, *audio_report);
    std::cout << "\naudio/video skew at reserved rates: " << skew * 1000.0 << " ms ("
              << (skew < kLipSyncSkewS ? "within" : "BEYOND") << " the 80 ms lip-sync bound)\n";
  }
  return 0;
}
