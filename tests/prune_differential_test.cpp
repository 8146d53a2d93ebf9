// Differential property of Step 5's nogoods: over 1,000 seeded congested
// corpora, three stacks run the same operations in step and must agree.
//   - pruned: the default stack. A walk refuses offers by the nogoods it
//     learns and, past its list's consumed prefix, continues on a fork of
//     the offer stream that skips every refused sub-space.
//   - memo: the same over eager lists, where the walk checks each offer it
//     reaches against its nogoods and counts the refused ones one by one.
//   - bypass: forwarding wrappers hide the farm and the transport, so every
//     examined offer gets a real commit().
// The operations are negotiate, adapt (under the all-but-current window on
// even seeds, the untried window on odd ones), preempt_degrade and
// try_upgrade, with sessions completing in between to recycle capacity.
// Per walk:
//   - pruned and memo make the same real commit() calls with the same
//     refusals (their commit-attempt spans are equal) and the same refusal
//     lines, nogood counts included;
//   - pruned agrees with bypass on verdict, committed index and offer, user
//     offer, CommitStats and saw_transient, and its refusal lines are
//     bypass's folded by its nogoods: the offers it skipped are exactly the
//     ones bypass committed for real and saw refused as the nogood said
//     (tests/result_signature.hpp, result_fold_mismatch);
//   - a committed negotiation is byte-identical to bypass's.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/qos_manager.hpp"
#include "document/catalog.hpp"
#include "document/corpus.hpp"
#include "obs/trace.hpp"
#include "profile/profiles.hpp"
#include "result_signature.hpp"
#include "session/session.hpp"
#include "util/rng.hpp"

namespace qosnp {
namespace {

using testing::refusal_fold_mismatch;
using testing::result_fold_mismatch;
using testing::result_signature;

constexpr std::uint64_t kSeeds = 1'000;
constexpr int kStepsPerSeed = 14;
constexpr int kClients = 3;

class ForwardingFarm final : public ServerProvider {
 public:
  explicit ForwardingFarm(ServerProvider& inner) : inner_(&inner) {}
  StreamServer* find_server(const ServerId& id) override { return inner_->find_server(id); }

 private:
  ServerProvider* inner_;
};

class ForwardingTransport final : public TransportProvider {
 public:
  explicit ForwardingTransport(TransportProvider& inner) : inner_(&inner) {}
  Result<FlowId, Refusal> reserve(const NodeId& src, const NodeId& dst,
                                  const StreamRequirements& req) override {
    return inner_->reserve(src, dst, req);
  }
  bool release(FlowId id) override { return inner_->release(id); }

 private:
  TransportProvider* inner_;
};

enum class Walker { kPruned, kMemo, kBypass };

NegotiationConfig config_for(Walker walker) {
  NegotiationConfig config;
  if (walker == Walker::kMemo) config.enumeration.strategy = EnumerationStrategy::kEager;
  return config;
}

/// One stack over a scarce world: two servers with few session slots and
/// little disk bandwidth behind a thin dumbbell network.
struct Stack {
  Stack(const std::vector<MultimediaDocument>& documents, Walker walker, bool exclude_all_tried)
      : transport(Topology::dumbbell(kClients, 2, 12'000'000, 30'000'000)),
        forwarding_farm(farm),
        forwarding_transport(transport),
        manager(catalog,
                walker == Walker::kBypass ? static_cast<ServerProvider&>(forwarding_farm) : farm,
                walker == Walker::kBypass ? static_cast<TransportProvider&>(forwarding_transport)
                                          : transport,
                CostModel{}, config_for(walker)),
        sessions(manager, AdaptationPolicy{.exclude_all_tried = exclude_all_tried}) {
    for (const MultimediaDocument& doc : documents) catalog.add(MultimediaDocument{doc});
    for (int i = 0; i < 2; ++i) {
      MediaServerConfig server;
      server.id = i == 0 ? "server-a" : "server-b";
      server.node = "server-node-" + std::to_string(i);
      server.disk_bandwidth_bps = 16'000'000;
      server.max_sessions = 5;
      farm.add(std::move(server));
    }
  }

  Catalog catalog;
  TransportService transport;
  ServerFarm farm;
  ForwardingFarm forwarding_farm;
  ForwardingTransport forwarding_transport;
  QoSManager manager;
  SessionManager sessions;
};

ClientMachine client_at(int i) {
  ClientMachine client;
  client.name = "client-" + std::to_string(i);
  client.node = client.name;
  client.screen = ScreenSpec{1920, 1080, ColorDepth::kSuperColor};
  client.decoders = {CodingFormat::kMPEG1,     CodingFormat::kMPEG2, CodingFormat::kMJPEG,
                     CodingFormat::kPCM,       CodingFormat::kADPCM, CodingFormat::kMPEGAudio,
                     CodingFormat::kPlainText, CodingFormat::kJPEG,  CodingFormat::kGIF};
  client.max_audio = AudioQuality::kCD;
  return client;
}

/// A tolerant profile, optionally on a tight budget (so some offers do not
/// satisfy it and the walk runs both passes).
UserProfile profile_for(bool cheap) {
  UserProfile p = default_user_profile();
  p.mm.video->desired = VideoQoS{ColorDepth::kColor, 25, 640};
  p.mm.video->worst = VideoQoS{ColorDepth::kBlackWhite, 10, 320};
  p.mm.audio->desired = AudioQoS{AudioQuality::kCD};
  p.mm.audio->worst = AudioQoS{AudioQuality::kTelephone};
  p.mm.text->desired = Language::kEnglish;
  p.mm.text->acceptable = {Language::kFrench};
  p.mm.cost.max_cost = cheap ? Money::dollars(3) : Money::dollars(20);
  return p;
}

std::string stats_image(const CommitStats& s) {
  return "attempts=" + std::to_string(s.attempts) + " retries=" + std::to_string(s.retries) +
         " transient=" + std::to_string(s.transient_failures) +
         " permanent=" + std::to_string(s.permanent_failures) +
         " released=" + std::to_string(s.released_on_failure) +
         " backoff_ms=" + std::to_string(s.backoff_ms);
}

/// The trace's commit-attempt spans: the walk's real commit() calls.
std::string attempt_spans(const NegotiationTrace& trace) {
  std::string image;
  for (const Span& span : trace.spans()) {
    if (span.stage != Stage::kCommitAttempt) continue;
    image += "span";
    for (const SpanAttr& a : span.attrs) image.append(" ").append(a.key).append("=").append(a.value);
    image += '\n';
  }
  return image;
}

std::uint64_t attr_sum(const NegotiationTrace& trace, std::string_view key) {
  std::uint64_t sum = 0;
  for (const Span& span : trace.spans()) {
    if (span.stage == Stage::kCommitWalk && span.has_attr(key)) {
      sum += std::stoull(std::string(span.attr(key)));
    }
  }
  return sum;
}

struct Tally {
  std::uint64_t nogood_hits = 0;
  std::uint64_t forked_walks = 0;
  int failed_negotiations = 0;
  int committed_negotiations = 0;
  int moved = 0;
  int released = 0;
  int failed_upgrades = 0;
};

/// One seed: returns false (with gtest failures recorded) on the first
/// disagreement, so a broken build reports one seed, not a thousand.
bool run_seed(std::uint64_t seed, Tally& tally) {
  CorpusConfig corpus;
  corpus.seed = seed;
  corpus.num_documents = 3;
  corpus.min_duration_s = 30.0;
  corpus.max_duration_s = 90.0;
  corpus.replication_probability = 0.5;
  const std::vector<MultimediaDocument> documents = generate_corpus(corpus);
  const bool untried = seed % 2 == 1;
  std::array<Stack, 3> stacks{Stack(documents, Walker::kPruned, untried),
                              Stack(documents, Walker::kMemo, untried),
                              Stack(documents, Walker::kBypass, untried)};
  const std::vector<DocumentId> ids = stacks[0].catalog.list();
  Rng rng(seed);
  std::vector<std::array<SessionId, 3>> live;
  const std::string where = "seed " + std::to_string(seed);

  for (int step = 0; step < kStepsPerSeed; ++step) {
    const std::string at = where + " step " + std::to_string(step);
    const std::uint64_t op = live.empty() ? 0 : rng.below(6);
    if (op <= 2) {
      const ClientMachine client = client_at(static_cast<int>(rng.below(kClients)));
      const UserProfile profile = profile_for(rng.below(3) == 0);
      const DocumentId& document = ids[rng.below(ids.size())];
      const auto session_class = static_cast<SessionClass>(rng.below(3));
      std::array<NegotiationResult, 3> results;
      std::array<std::string, 3> spans;
      std::array<std::uint64_t, 3> hits{};
      for (std::size_t k = 0; k < 3; ++k) {
        NegotiationTrace trace(static_cast<std::uint64_t>(step));
        NegotiationRequest request = make_negotiation_request(client, document, profile);
        request.session_class = session_class;
        request.trace = TraceContext(&trace);
        results[k] = stacks[k].manager.negotiate(request);
        spans[k] = attempt_spans(trace);
        hits[k] = attr_sum(trace, "nogood_hits");
        if (k == 0 && trace.find(Stage::kCommitWalk) != nullptr &&
            trace.find(Stage::kCommitWalk)->has_attr("pruned_states")) {
          ++tally.forked_walks;
        }
      }
      tally.nogood_hits += hits[0];
      EXPECT_EQ(result_fold_mismatch(results[0], results[2]), "") << at;
      EXPECT_EQ(result_fold_mismatch(results[0], results[1], /*oracle_eager=*/true), "") << at;
      EXPECT_EQ(results[0].problems, results[1].problems) << at;
      EXPECT_EQ(spans[0], spans[1]) << at;
      EXPECT_EQ(hits[0], hits[1]) << at;
      EXPECT_EQ(hits[2], 0u) << at;
      EXPECT_EQ(stats_image(results[0].commit_stats), stats_image(results[2].commit_stats)) << at;
      if (results[0].has_commitment()) {
        ++tally.committed_negotiations;
        EXPECT_EQ(result_signature(results[0]), result_signature(results[2])) << at;
        std::array<SessionId, 3> opened{};
        for (std::size_t k = 0; k < 3; ++k) {
          auto id = stacks[k].sessions.open(client, profile, std::move(results[k]), 0.0,
                                            session_class);
          if (!id.ok() || !stacks[k].sessions.confirm(id.value(), 0.5).ok()) {
            ADD_FAILURE() << at << ": session did not open";
            return false;
          }
          opened[k] = id.value();
        }
        live.push_back(opened);
      } else {
        ++tally.failed_negotiations;
      }
    } else {
      const std::size_t pick = static_cast<std::size_t>(rng.below(live.size()));
      std::array<TransitionResult, 3> moves;
      std::array<std::string, 3> spans;
      for (std::size_t k = 0; k < 3; ++k) {
        NegotiationTrace trace(static_cast<std::uint64_t>(step));
        const SessionId id = live[pick][k];
        SessionManager& sessions = stacks[k].sessions;
        moves[k] = op == 3   ? sessions.adapt(id, 1.0, TraceContext(&trace))
                   : op == 4 ? sessions.preempt_degrade(id, TraceContext(&trace))
                             : sessions.try_upgrade(id, TraceContext(&trace));
        spans[k] = attempt_spans(trace);
        if (k == 0) tally.nogood_hits += attr_sum(trace, "nogood_hits");
      }
      const std::string what = at + (op == 3 ? " adapt" : op == 4 ? " preempt" : " upgrade");
      for (std::size_t k = 1; k < 3; ++k) {
        EXPECT_EQ(moves[0].moved, moves[k].moved) << what;
        EXPECT_EQ(moves[0].released, moves[k].released) << what;
        EXPECT_EQ(moves[0].new_offer, moves[k].new_offer) << what;
        const auto view0 = stacks[0].sessions.snapshot(live[pick][0]);
        const auto viewk = stacks[k].sessions.snapshot(live[pick][k]);
        if (!view0 || !viewk) {
          ADD_FAILURE() << what << ": no snapshot";
          return false;
        }
        EXPECT_EQ(stats_image(view0->stats.commit), stats_image(viewk->stats.commit)) << what;
        EXPECT_EQ(view0->current_offer, viewk->current_offer) << what;
        EXPECT_EQ(view0->state, viewk->state) << what;
      }
      EXPECT_EQ(moves[0].errors(), moves[1].errors()) << what;
      EXPECT_EQ(refusal_fold_mismatch(moves[0].errors(), moves[2].errors()), "") << what;
      EXPECT_EQ(spans[0], spans[1]) << what;
      if (moves[0].moved) ++tally.moved;
      if (moves[0].released) {
        ++tally.released;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else if (!moves[0].moved && op == 5) {
        ++tally.failed_upgrades;
      }
    }
    // Recycle capacity now and then, identically on every stack.
    if (!live.empty() && rng.below(4) == 0) {
      const std::size_t done = static_cast<std::size_t>(rng.below(live.size()));
      for (std::size_t k = 0; k < 3; ++k) stacks[k].sessions.complete(live[done][k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(done));
    }
    if (::testing::Test::HasFailure()) return false;
  }
  for (const auto& ids_of : live) {
    for (std::size_t k = 0; k < 3; ++k) stacks[k].sessions.complete(ids_of[k]);
  }
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(stacks[k].transport.active_flows(), 0u) << where;
  }
  return !::testing::Test::HasFailure();
}

TEST(PruneDifferential, PrunedWalksAgreeWithMemoAndBypassedWalksOverSeededCorpora) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    if (!run_seed(seed, tally)) break;
  }
  // Not vacuous: nogoods refused offers, walks forked past their lists'
  // consumed prefixes, and every kind of walk both committed and failed.
  EXPECT_GT(tally.nogood_hits, 0u);
  EXPECT_GT(tally.forked_walks, 0u);
  EXPECT_GT(tally.committed_negotiations, 0);
  EXPECT_GT(tally.failed_negotiations, 0);
  EXPECT_GT(tally.moved, 0);
  EXPECT_GT(tally.released, 0);
  EXPECT_GT(tally.failed_upgrades, 0);
  std::cout << "nogood hits " << tally.nogood_hits << ", forked walks " << tally.forked_walks
            << ", negotiations committed " << tally.committed_negotiations << " / failed "
            << tally.failed_negotiations << ", transitions moved " << tally.moved
            << " / released " << tally.released << ", failed upgrades " << tally.failed_upgrades
            << '\n';
}

}  // namespace
}  // namespace qosnp
