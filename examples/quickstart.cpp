// Quickstart: the smallest complete use of the QoS negotiation library.
//   1. put a news article (with variants) in the catalog,
//   2. stand up the simulated servers and network,
//   3. describe the user's wishes in a profile,
//   4. negotiate, inspect the offer, confirm, play.
// Build & run:  ./examples/quickstart
#include <iostream>

#include "core/qos_manager.hpp"
#include "core/report.hpp"
#include "document/catalog.hpp"
#include "document/corpus.hpp"
#include "server/media_server.hpp"
#include "session/session.hpp"

using namespace qosnp;

int main() {
  // --- 1. Content: one article, three video variants + CD audio. ----------
  Catalog catalog;
  MultimediaDocument article;
  article.id = "news/2026-07-05/markets";
  article.title = "Markets rally on good news";
  article.copyright_cost = Money::cents(50);
  const double duration = 240.0;

  Monomedia video;
  video.id = article.id + "/video";
  video.kind = MediaKind::kVideo;
  video.duration_s = duration;
  video.variants = {
      make_video_variant(video.id + "/tv", VideoQoS{ColorDepth::kColor, 25, 640},
                         CodingFormat::kMPEG1, duration, "server-a"),
      make_video_variant(video.id + "/small", VideoQoS{ColorDepth::kGray, 15, 320},
                         CodingFormat::kMPEG1, duration, "server-b"),
      make_video_variant(video.id + "/hd", VideoQoS{ColorDepth::kSuperColor, 30, 1280},
                         CodingFormat::kMPEG2, duration, "server-a"),
  };
  article.monomedia.push_back(std::move(video));

  Monomedia audio;
  audio.id = article.id + "/audio";
  audio.kind = MediaKind::kAudio;
  audio.duration_s = duration;
  audio.variants = {
      make_audio_variant(audio.id + "/cd", AudioQuality::kCD, CodingFormat::kMPEGAudio,
                         duration, "server-a"),
      make_audio_variant(audio.id + "/tel", AudioQuality::kTelephone, CodingFormat::kADPCM,
                         duration, "server-b"),
  };
  article.monomedia.push_back(std::move(audio));

  const auto problems = catalog.add(std::move(article));
  if (!problems.empty()) {
    std::cerr << "catalog rejected the article: " << problems.front() << '\n';
    return 1;
  }

  // --- 2. Infrastructure: two media servers behind a dumbbell network. ----
  TransportService transport(Topology::dumbbell(/*clients=*/1, /*servers=*/2,
                                                /*access_bps=*/25'000'000,
                                                /*backbone_bps=*/100'000'000));
  ServerFarm farm;
  farm.add(MediaServerConfig{"server-a", "server-node-0", 80'000'000, 32, {}});
  farm.add(MediaServerConfig{"server-b", "server-node-1", 80'000'000, 32, {}});

  ClientMachine client;
  client.name = "living-room";
  client.node = "client-0";
  client.screen = ScreenSpec{1920, 1080, ColorDepth::kSuperColor};
  client.decoders = {CodingFormat::kMPEG1, CodingFormat::kMPEG2, CodingFormat::kMPEGAudio,
                     CodingFormat::kADPCM};

  // --- 3. The user's wishes (what the QoS GUI would collect). -------------
  UserProfile profile = default_user_profile();
  profile.name = "evening-viewer";
  profile.mm.text.reset();
  profile.mm.image.reset();
  profile.mm.video->desired = VideoQoS{ColorDepth::kColor, 25, 640};
  profile.mm.video->worst = VideoQoS{ColorDepth::kGray, 10, 320};
  profile.mm.audio->desired = AudioQoS{AudioQuality::kCD};
  profile.mm.audio->worst = AudioQoS{AudioQuality::kTelephone};
  profile.mm.cost.max_cost = Money::dollars(6);

  // --- 4. Negotiate. -------------------------------------------------------
  QoSManager manager(catalog, farm, transport);
  NegotiationResult outcome = manager.negotiate(make_negotiation_request(client, "news/2026-07-05/markets", profile));

  // The information window of the prototype's QoS GUI.
  std::cout << render_information_window(outcome) << '\n';
  if (!outcome.user_offer) return 1;

  // --- 5. Confirm within the choice period, then play. --------------------
  SessionManager sessions(manager);
  auto session = sessions.open(client, profile, std::move(outcome), /*now_s=*/0.0);
  if (!session.ok()) {
    std::cerr << "could not open session: " << session.error() << '\n';
    return 1;
  }
  if (auto confirmed = sessions.confirm(session.value(), /*now_s=*/3.0); !confirmed.ok()) {
    std::cerr << "confirmation failed: " << confirmed.error() << '\n';
    return 1;
  }
  sessions.advance(session.value(), duration);
  const auto view = sessions.snapshot(session.value());
  std::cout << "session " << to_string(view->state) << " after " << view->position_s
            << "s; charged " << view->stats.charged.to_string() << '\n';
  return 0;
}
