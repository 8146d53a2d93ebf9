// News-on-demand walkthrough: the full life of the CITR prototype scenario —
// a synthetic article corpus, several clients (one of them a limited
// terminal), negotiation with every outcome explained, user confirmation,
// playout, injected congestion, and the automatic adaptation transition.
// Run: ./examples/news_on_demand [seed]
#include <cstdlib>
#include <iostream>

#include "core/qos_manager.hpp"
#include "core/report.hpp"
#include "document/catalog.hpp"
#include "document/corpus.hpp"
#include "server/media_server.hpp"
#include "session/session.hpp"
#include "sim/experiment.hpp"

using namespace qosnp;

namespace {

void banner(const std::string& text) {
  std::cout << "\n== " << text << " ==\n";
}

void show_outcome(const NegotiationResult& outcome) {
  std::cout << "   status: " << to_string(outcome.verdict) << '\n';
  if (outcome.user_offer) std::cout << "   offer:  " << outcome.user_offer->describe() << '\n';
  for (const auto& p : outcome.problems) std::cout << "   note:   " << p << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  banner("Content: synthetic news corpus (the MM database)");
  CorpusConfig corpus;
  corpus.num_documents = 12;
  corpus.seed = seed;
  corpus.servers = {"server-a", "server-b"};
  Catalog catalog;
  for (auto& doc : generate_corpus(corpus)) catalog.add(std::move(doc));
  std::cout << "   " << catalog.size() << " articles";
  const auto ids = catalog.list();
  auto doc = catalog.find(ids.front());
  std::cout << "; first: '" << doc->title << "' with " << doc->monomedia.size()
            << " monomedia, " << doc->duration_s() << "s\n";

  banner("Infrastructure: 2 media servers, dumbbell network");
  TransportService transport(Topology::dumbbell(2, 2, 25'000'000, 60'000'000));
  ServerFarm farm;
  farm.add(MediaServerConfig{"server-a", "server-node-0", 60'000'000, 24, {}});
  farm.add(MediaServerConfig{"server-b", "server-node-1", 60'000'000, 24, {}});

  ClientMachine workstation;
  workstation.name = "newsroom-workstation";
  workstation.node = "client-0";
  workstation.screen = ScreenSpec{1920, 1080, ColorDepth::kSuperColor};
  workstation.decoders = {CodingFormat::kMPEG1,     CodingFormat::kMPEG2,
                          CodingFormat::kMJPEG,     CodingFormat::kPCM,
                          CodingFormat::kADPCM,     CodingFormat::kMPEGAudio,
                          CodingFormat::kPlainText, CodingFormat::kJPEG,
                          CodingFormat::kGIF};

  ClientMachine terminal;
  terminal.name = "lobby-terminal";
  terminal.node = "client-1";
  terminal.screen = ScreenSpec{640, 480, ColorDepth::kGray};
  terminal.decoders = {CodingFormat::kMPEG1, CodingFormat::kADPCM, CodingFormat::kPlainText};
  terminal.max_audio = AudioQuality::kRadio;

  QoSManager manager(catalog, farm, transport);
  SessionManager sessions(manager);

  banner("Scenario 1: a typical viewer on the workstation");
  UserProfile typical = standard_profile_mix()[1];
  NegotiationResult outcome = manager.negotiate(make_negotiation_request(workstation, ids.front(), typical));
  show_outcome(outcome);
  if (!outcome.has_commitment()) return 1;
  std::cout << "   " << '\n'
            << render_classification_table(outcome, typical.mm, 5);

  auto session = sessions.open(workstation, typical, std::move(outcome), 0.0);
  std::cout << "   confirming within the " << typical.mm.time.choice_period_s
            << "s choice period...\n";
  if (auto ok = sessions.confirm(session.value(), 4.0); !ok.ok()) {
    std::cout << "   confirmation failed: " << ok.error() << '\n';
    return 1;
  }

  banner("Scenario 2: congestion strikes mid-playout -> automatic adaptation");
  sessions.advance(session.value(), 30.0);
  // Degrade the backbone (link 0 of the dumbbell) by 97%.
  const auto victims = transport.degrade_link(0, 0.97);
  std::cout << "   backbone degraded; " << victims.size() << " flow(s) violated\n";
  bool our_session_hit = false;
  for (FlowId flow : victims) {
    for (SessionId sid : sessions.sessions_using_flow(flow)) {
      our_session_hit = true;
      const auto before = sessions.snapshot(sid);
      TransitionResult adapted = sessions.adapt(sid, 34.0);
      const auto after = sessions.snapshot(sid);
      if (adapted.moved) {
        std::cout << "   session " << sid << " transitioned: offer #" << before->current_offer
                  << " -> #" << adapted.new_offer << " at position " << before->position_s
                  << "s (interruption " << adapted.interruption_s << "s)\n";
        std::cout << "   now playing: " << after->user_offer->describe() << '\n';
      } else {
        std::cout << "   session " << sid << " could not adapt and was aborted\n";
      }
    }
  }
  if (!our_session_hit) {
    std::cout << "   (our session's flows were not among the victims this time)\n";
  }
  transport.restore_link(0);

  if (auto view = sessions.snapshot(session.value());
      view && view->state == SessionState::kPlaying) {
    sessions.advance(session.value(), view->duration_s);
    std::cout << "   playout finished: " << to_string(sessions.snapshot(session.value())->state)
              << ", charged " << sessions.snapshot(session.value())->stats.charged.to_string()
              << '\n';
  }

  banner("Scenario 3: the limited lobby terminal");
  UserProfile demanding = standard_profile_mix()[0];
  NegotiationResult local = manager.negotiate(make_negotiation_request(terminal, ids.front(), demanding));
  show_outcome(local);
  std::cout << "   (the profile manager would now show the local offer and let the user\n"
               "    lower the worst-acceptable values and renegotiate)\n";

  banner("Scenario 4: renegotiation with a modest profile");
  UserProfile modest = standard_profile_mix()[2];
  NegotiationResult retry = manager.negotiate(make_negotiation_request(terminal, ids.front(), modest));
  show_outcome(retry);
  if (retry.verdict == NegotiationStatus::kFailedWithoutOffer && modest.mm.audio) {
    std::cout << "   renegotiating without the audio track...\n";
    modest.mm.audio.reset();
    retry = manager.negotiate(make_negotiation_request(terminal, ids.front(), modest));
    show_outcome(retry);
  }
  if (retry.has_commitment()) {
    auto s2 = sessions.open(terminal, modest, std::move(retry), 100.0);
    // The lobby visitor walks away: the choice period expires and the
    // reserved resources are de-allocated (paper Step 6).
    auto late = sessions.confirm(s2.value(), 100.0 + modest.mm.time.choice_period_s + 1.0);
    std::cout << "   late confirmation: " << (late.ok() ? "accepted" : late.error()) << '\n';
  }

  banner("Done");
  return 0;
}
