// Property suite for the class-differentiated admission policy
// (src/policy): 500+ seeded corpora assert the invariants the policy model
// documents —
//   - with the policy disabled, PolicyEngine::negotiate is byte-identical to
//     QoSManager::negotiate (tests/result_signature.hpp), whatever class the
//     request carries;
//   - no same-or-higher-class session is ever preempted for a lower-class
//     request, and best-effort requests never preempt anyone;
//   - a preempted victim's new offer is always a later (worse) entry of its
//     own offer list; a promoted session's new offer is always earlier;
//   - the global per-class conservation laws hold with the policy running
//     inside the population lifecycle.
#include "policy/preemption.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <map>
#include <string>
#include <vector>

#include "core/plan_cache.hpp"
#include "document/corpus.hpp"
#include "obs/trace.hpp"
#include "result_signature.hpp"
#include "session/session.hpp"
#include "sim/population.hpp"
#include "test_service.hpp"

namespace qosnp {
namespace {

using testing::ServiceSystem;
using testing::TestSystem;
using testing::result_signature;

NegotiationRequest class_request(const ClientMachine& client, const DocumentId& document,
                                 SessionClass cls, std::uint64_t id) {
  NegotiationRequest request =
      make_negotiation_request(client, document, TestSystem::tolerant_profile());
  request.id = id;
  request.session_class = cls;
  request.accept_degraded = true;
  return request;
}

constexpr SessionClass kAllClasses[] = {SessionClass::kBestEffort, SessionClass::kStandard,
                                        SessionClass::kPremium};

/// A congested stack: two small servers behind a wide network, so the disk
/// budget is the contended resource. `server_bps` tunes how many article
/// sessions fit before Step 5 starts failing.
ServiceSystem congested_system(std::int64_t server_bps) {
  return ServiceSystem(4, /*access_bps=*/1'000'000'000, /*backbone_bps=*/10'000'000'000,
                       server_bps, /*server_sessions=*/256);
}

/// Admit-and-confirm sessions of alternating classes through `engine` until
/// the stack sheds one (kFailedTryLater); returns the playing session ids.
/// `classes` cycles per admission.
std::vector<SessionId> fill_until_shed(ServiceSystem& sys, PolicyEngine& engine,
                                       std::span<const SessionClass> classes,
                                       std::uint64_t& next_id) {
  std::vector<SessionId> playing;
  for (int i = 0; i < 128; ++i) {
    const SessionClass cls = classes[static_cast<std::size_t>(i) % classes.size()];
    NegotiationRequest request =
        class_request(sys.clients[static_cast<std::size_t>(i) % sys.clients.size()], "article",
                      cls, next_id++);
    NegotiationResult result = engine.negotiate(request);
    if (!result.has_commitment()) return playing;
    auto opened = sys.sessions->open(request.client, request.profile, std::move(result),
                                     /*now_s=*/0.0, cls);
    EXPECT_TRUE(opened.ok()) << opened.error();
    EXPECT_TRUE(sys.sessions->confirm(opened.value(), /*now_s=*/1.0).ok());
    playing.push_back(opened.value());
  }
  ADD_FAILURE() << "fill never saturated the farm (server budget too large?)";
  return playing;
}

void drain_all(ServiceSystem& sys) {
  for (SessionId id : sys.sessions->playing_sessions()) sys.sessions->complete(id);
}

// ---------------------------------------------------------------------------
// Policy-off byte-identity: 100 seeded corpora x 5+ documents x rotating
// session classes = 500+ compared negotiations. Twin systems, as in the
// population differential suite: the engine-side system and the direct-side
// system see identical catalogs and identical pristine resources.
TEST(PolicyOff, ByteIdenticalToDirectNegotiationAcross500SeededCases) {
  std::size_t compared = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    ServiceSystem engine_sys(2);
    ServiceSystem direct_sys(2);
    CorpusConfig corpus;
    corpus.seed = seed;
    corpus.num_documents = 4;
    corpus.min_duration_s = 30.0;
    corpus.max_duration_s = 120.0;
    for (auto& doc : generate_corpus(corpus)) {
      engine_sys.catalog.add(MultimediaDocument{doc});
      direct_sys.catalog.add(std::move(doc));
    }

    PreemptionPolicy disabled;  // defaults: enabled = false
    ASSERT_FALSE(disabled.enabled);
    PolicyEngine engine(*engine_sys.manager, *engine_sys.sessions, disabled);
    engine.set_victim_observer(
        [](const VictimEvent&) { FAIL() << "disabled policy touched a session"; });

    const std::vector<DocumentId> documents = engine_sys.catalog.list();
    std::uint64_t id = 1;
    for (const DocumentId& document : documents) {
      // Rotate the class per case: with the policy off (and the default
      // all-zero headroom) the class field must be observably inert.
      const SessionClass cls = kAllClasses[compared % 3];
      NegotiationResult via_engine =
          engine.negotiate(class_request(engine_sys.clients[0], document, cls, id));
      NegotiationResult direct =
          direct_sys.manager->negotiate(class_request(direct_sys.clients[0], document, cls, id));
      EXPECT_EQ(result_signature(via_engine), result_signature(direct))
          << "seed " << seed << " document " << document;
      via_engine.commitment.release();
      direct.commitment.release();
      ++id;
      ++compared;
    }
    EXPECT_TRUE(engine_sys.drained()) << "seed " << seed;
    EXPECT_TRUE(direct_sys.drained()) << "seed " << seed;
  }
  EXPECT_GE(compared, 500u);
}

// ---------------------------------------------------------------------------
// Preemption invariants over seeded congested farms: victims are strictly
// lower class, degraded victims always land on a later entry of their own
// offer list, released victims carry the policy abort reason, and the
// per-class metrics agree with the observed events.
TEST(Preemption, VictimInvariantsAcrossSeededCongestedFarms) {
  std::size_t total_events = 0;
  std::size_t preempt_admits = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    ServiceSystem sys = congested_system(20'000'000 + static_cast<std::int64_t>(seed % 5) *
                                                          10'000'000);
    MetricsRegistry metrics;
    PreemptionPolicy policy;
    policy.enabled = true;
    PolicyEngine engine(*sys.manager, *sys.sessions, policy, &metrics);

    // Fill with a seed-dependent mix of best-effort and standard sessions.
    const std::vector<SessionClass> mix =
        seed % 2 == 0
            ? std::vector<SessionClass>{SessionClass::kBestEffort, SessionClass::kStandard}
            : std::vector<SessionClass>{SessionClass::kBestEffort};
    // Observe from the start: the fill's own standard-class admissions may
    // already preempt, and the metrics below count those too.
    std::vector<VictimEvent> events;
    engine.set_victim_observer([&](const VictimEvent& e) { events.push_back(e); });
    std::uint64_t next_id = 1;
    fill_until_shed(sys, engine, mix, next_id);

    // A standard request may only victimise best-effort; a premium request
    // may victimise both lower classes.
    for (const SessionClass requester :
         {SessionClass::kStandard, SessionClass::kPremium}) {
      const std::size_t before = events.size();
      NegotiationResult result =
          engine.negotiate(class_request(sys.clients[0], "article", requester, next_id++));
      for (std::size_t i = before; i < events.size(); ++i) {
        const VictimEvent& e = events[i];
        EXPECT_EQ(e.for_class, requester);
        EXPECT_LT(session_class_rank(e.victim_class), session_class_rank(requester))
            << "seed " << seed << ": victim of class " << to_string(e.victim_class)
            << " preempted for a " << to_string(requester) << " request";
        const auto view = sys.sessions->snapshot(e.session);
        ASSERT_TRUE(view.has_value());
        if (e.action == VictimAction::kDegraded) {
          EXPECT_LT(e.old_offer, e.new_offer)
              << "seed " << seed << ": degraded victim moved to a non-worse offer";
          EXPECT_EQ(view->state, SessionState::kPlaying);
          EXPECT_EQ(view->current_offer, e.new_offer);
          EXPECT_GE(view->stats.preempt_degrades, 1);
        } else {
          EXPECT_EQ(view->state, SessionState::kAborted);
          EXPECT_EQ(view->abort_reason, kPreemptedAbortReason);
        }
      }
      if (result.has_commitment() && events.size() > before) ++preempt_admits;
      result.commitment.release();
    }
    total_events += events.size();

    // The class ordering holds for every event, fill-phase ones included.
    for (const VictimEvent& e : events) {
      EXPECT_LT(session_class_rank(e.victim_class), session_class_rank(e.for_class))
          << "seed " << seed;
    }

    // Metrics agree with the events this engine emitted.
    std::map<std::pair<std::string, std::string>, std::uint64_t> by_class_action;
    for (const VictimEvent& e : events) {
      by_class_action[{std::string(to_string(e.victim_class)),
                       std::string(to_string(e.action))}] += 1;
    }
    for (const SessionClass cls : kAllClasses) {
      for (const VictimAction action : {VictimAction::kDegraded, VictimAction::kReleased}) {
        const MetricLabels labels = {{"class", std::string(to_string(cls))},
                                     {"action", std::string(to_string(action))}};
        const std::pair<std::string, std::string> key = {std::string(to_string(cls)),
                                                         std::string(to_string(action))};
        const std::uint64_t expected = by_class_action[key];
        EXPECT_EQ(metrics.counter("qosnp_class_preempt_victims_total", labels).value(), expected)
            << "seed " << seed;
      }
    }

    engine.set_victim_observer(nullptr);
    drain_all(sys);
    EXPECT_TRUE(sys.drained()) << "seed " << seed;
    EXPECT_EQ(sys.sessions->opened_total(), sys.sessions->released_total()) << "seed " << seed;
  }
  // Congested farms at these budgets must actually exercise the policy.
  EXPECT_GT(total_events, 0u);
  EXPECT_GT(preempt_admits, 0u);
}

TEST(Preemption, BestEffortRequestsNeverPreempt) {
  ServiceSystem sys = congested_system(20'000'000);
  PreemptionPolicy policy;
  policy.enabled = true;
  PolicyEngine engine(*sys.manager, *sys.sessions, policy);
  const std::vector<SessionClass> mix = {SessionClass::kBestEffort};
  std::uint64_t next_id = 1;
  const std::vector<SessionId> playing = fill_until_shed(sys, engine, mix, next_id);

  engine.set_victim_observer(
      [](const VictimEvent&) { FAIL() << "a best-effort request preempted a session"; });
  NegotiationResult result =
      engine.negotiate(class_request(sys.clients[0], "article", SessionClass::kBestEffort,
                                     next_id++));
  EXPECT_FALSE(result.has_commitment());
  EXPECT_EQ(sys.sessions->playing_sessions().size(), playing.size());
  drain_all(sys);
  EXPECT_TRUE(sys.drained());
}

TEST(Preemption, DisabledEngineNeverTouchesSessions) {
  ServiceSystem sys = congested_system(20'000'000);
  PolicyEngine engine(*sys.manager, *sys.sessions);  // policy defaults: disabled
  const std::vector<SessionClass> mix = {SessionClass::kBestEffort};
  std::uint64_t next_id = 1;
  const std::vector<SessionId> playing = fill_until_shed(sys, engine, mix, next_id);

  engine.set_victim_observer(
      [](const VictimEvent&) { FAIL() << "disabled policy preempted a session"; });
  NegotiationResult result = engine.negotiate(
      class_request(sys.clients[0], "article", SessionClass::kPremium, next_id++));
  EXPECT_EQ(result.verdict, NegotiationStatus::kFailedTryLater);
  EXPECT_EQ(engine.run_upgrades(), 0u);
  for (SessionId id : playing) {
    const auto view = sys.sessions->snapshot(id);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->state, SessionState::kPlaying);
  }
  drain_all(sys);
  EXPECT_TRUE(sys.drained());
}

// A re-negotiation after a victim replays the plan the manager's own cache
// kept (a default NegotiationConfig caches): each negotiate() of the request
// shows a plan-cache span with hit=true, and none runs Steps 1-4.
TEST(Preemption, RenegotiationAfterAVictimIsAPlanCacheHit) {
  ServiceSystem sys = congested_system(20'000'000);
  PreemptionPolicy policy;
  policy.enabled = true;
  PolicyEngine engine(*sys.manager, *sys.sessions, policy);
  const std::vector<SessionClass> mix = {SessionClass::kBestEffort};
  std::uint64_t next_id = 1;
  fill_until_shed(sys, engine, mix, next_id);
  const PlanCacheStats before = sys.manager->plan_cache()->stats();

  std::size_t victims = 0;
  engine.set_victim_observer([&](const VictimEvent&) { ++victims; });
  NegotiationTrace trace(next_id);
  NegotiationRequest request =
      class_request(sys.clients[0], "article", SessionClass::kPremium, next_id++);
  request.trace = TraceContext(&trace);
  NegotiationResult result = engine.negotiate(request);
  ASSERT_TRUE(result.has_commitment());
  ASSERT_GE(victims, 1u);

  EXPECT_EQ(trace.count(Stage::kPreemption), 1u);
  EXPECT_EQ(trace.count(Stage::kPlanCache), 1 + victims);
  for (const Span& span : trace.spans()) {
    if (span.stage == Stage::kPlanCache) {
      EXPECT_EQ(span.attr("hit"), "true");
    }
  }
  EXPECT_EQ(trace.count(Stage::kLocalCheck), 0u);
  EXPECT_EQ(trace.count(Stage::kCompatibility), 0u);
  EXPECT_EQ(trace.count(Stage::kEnumeration), 0u);
  const PlanCacheStats after = sys.manager->plan_cache()->stats();
  EXPECT_EQ(after.hits - before.hits, 1 + victims);
  EXPECT_EQ(after.misses, before.misses);

  result.commitment.release();
  engine.set_victim_observer(nullptr);
  drain_all(sys);
  EXPECT_TRUE(sys.drained());
}

// ---------------------------------------------------------------------------
// Upgrades: once capacity frees, the scanner promotes degraded sessions to a
// strictly earlier (better) entry of their own offer list.
TEST(Upgrade, ScannerPromotesToStrictlyBetterOffersWhenCapacityFrees) {
  ServiceSystem sys = congested_system(30'000'000);
  PreemptionPolicy policy;
  policy.enabled = true;
  PolicyEngine engine(*sys.manager, *sys.sessions, policy);
  const std::vector<SessionClass> mix = {SessionClass::kStandard};
  std::uint64_t next_id = 1;
  fill_until_shed(sys, engine, mix, next_id);

  // The late admissions of the fill hold degraded offers (index > 0).
  std::vector<PlayingSession> degraded;
  for (const PlayingSession& p : sys.sessions->playing_sessions_with_class()) {
    if (p.current_offer != 0 && p.current_offer != SIZE_MAX) degraded.push_back(p);
  }
  ASSERT_FALSE(degraded.empty()) << "fill produced no degraded sessions to upgrade";

  // Nothing has freed yet: a scan may promote at most into slack the fill
  // left behind; record state, then free every prime-offer session.
  for (const PlayingSession& p : sys.sessions->playing_sessions_with_class()) {
    if (p.current_offer == 0) sys.sessions->complete(p.id);
  }

  std::vector<UpgradeEvent> events;
  engine.set_upgrade_observer([&](const UpgradeEvent& e) { events.push_back(e); });
  const std::size_t promoted = engine.run_upgrades();
  EXPECT_GT(promoted, 0u) << "freed capacity promoted nothing";
  EXPECT_EQ(promoted, events.size());
  for (const UpgradeEvent& e : events) {
    EXPECT_LT(e.new_offer, e.old_offer) << "an upgrade moved a session to a non-better offer";
    const auto view = sys.sessions->snapshot(e.session);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->state, SessionState::kPlaying);
    EXPECT_EQ(view->current_offer, e.new_offer);
    EXPECT_GE(view->stats.upgrades, 1);
  }
  drain_all(sys);
  EXPECT_TRUE(sys.drained());
}

// ---------------------------------------------------------------------------
// Headroom-differentiated admission on the farm and transport paths.
TEST(Headroom, ServerAdmissionHoldsBackLowerClasses) {
  MediaServerConfig config;
  config.id = "s";
  config.node = "n";
  config.disk_bandwidth_bps = 100'000'000;
  config.headroom.fraction = {0.5, 0.25, 0.0};  // best_effort, standard, premium
  MediaServer server(config);

  StreamRequirements req;
  req.max_bit_rate_bps = 80'000'000;
  req.avg_bit_rate_bps = 80'000'000;
  req.guarantee = GuaranteeClass::kGuaranteed;

  req.session_class = SessionClass::kBestEffort;  // usable: 50M
  auto refused = server.admit(req);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.error().transient);

  req.session_class = SessionClass::kStandard;  // usable: 75M
  ASSERT_FALSE(server.admit(req).ok());

  req.session_class = SessionClass::kPremium;  // usable: all 100M
  auto admitted = server.admit(req);
  ASSERT_TRUE(admitted.ok());
  EXPECT_TRUE(server.release(admitted.value()));

  req.max_bit_rate_bps = req.avg_bit_rate_bps = 60'000'000;
  req.session_class = SessionClass::kBestEffort;
  EXPECT_FALSE(server.admit(req).ok());
  req.session_class = SessionClass::kStandard;  // 60M fits under 75M
  auto standard_ok = server.admit(req);
  ASSERT_TRUE(standard_ok.ok());
  EXPECT_TRUE(server.release(standard_ok.value()));
}

TEST(Headroom, TransportReservationHoldsBackLowerClasses) {
  TransportService transport(Topology::dumbbell(1, 1, /*access_bps=*/100'000'000,
                                                /*backbone_bps=*/1'000'000'000));
  ClassHeadroom headroom;
  headroom.fraction = {0.5, 0.0, 0.0};
  transport.set_class_headroom(headroom);

  StreamRequirements req;
  req.max_bit_rate_bps = 80'000'000;
  req.avg_bit_rate_bps = 80'000'000;
  req.guarantee = GuaranteeClass::kGuaranteed;

  req.session_class = SessionClass::kBestEffort;  // access usable: 50M
  EXPECT_FALSE(transport.reserve("server-node-0", "client-0", req).ok());

  req.session_class = SessionClass::kPremium;
  auto flow = transport.reserve("server-node-0", "client-0", req);
  ASSERT_TRUE(flow.ok());
  EXPECT_TRUE(transport.release(flow.value()));
  EXPECT_TRUE(transport.accounting_consistent());
  EXPECT_EQ(transport.total_reserved_bps(), 0);
}

TEST(Headroom, InvalidConfigurationsThrow) {
  ClassHeadroom out_of_range;
  out_of_range.fraction = {1.0, 0.0, 0.0};
  EXPECT_THROW(ClassHeadroom::validated(out_of_range), std::invalid_argument);

  ClassHeadroom negative;
  negative.fraction = {-0.1, 0.0, 0.0};
  EXPECT_THROW(ClassHeadroom::validated(negative), std::invalid_argument);

  // Headroom must not *increase* with class rank: a premium request may
  // never see less of the resource than a best-effort one.
  ClassHeadroom inverted;
  inverted.fraction = {0.1, 0.2, 0.0};
  EXPECT_THROW(ClassHeadroom::validated(inverted), std::invalid_argument);

  MediaServerConfig config;
  config.id = "s";
  config.node = "n";
  config.headroom = inverted;
  EXPECT_THROW(MediaServer{config}, std::invalid_argument);

  TransportService transport(Topology::dumbbell(1, 1, 1'000'000, 1'000'000));
  EXPECT_THROW(transport.set_class_headroom(inverted), std::invalid_argument);

  PreemptionPolicy bad;
  bad.max_victims = 0;
  EXPECT_THROW(PreemptionPolicy::validated(bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Per-class conservation laws with the policy inside the population
// lifecycle: overloaded mixed-class populations, preemption and upgrade
// scans on, every replicate conserved and fully drained.
TEST(PolicyPopulation, PerClassConservationUnderOverload) {
  ClassCounts combined_best_effort;
  ClassCounts combined_premium;
  std::uint64_t policy_actions = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ServiceSystem sys(3, /*access_bps=*/600'000'000, /*backbone_bps=*/300'000'000,
                      /*server_bps=*/40'000'000, /*server_sessions=*/64);
    PreemptionPolicy policy;
    policy.enabled = true;
    PolicyEngine engine(*sys.manager, *sys.sessions, policy);
    LocalClient client(*sys.manager, *sys.sessions);
    client.set_policy(&engine);

    PopulationConfig config;
    config.classes = standard_population();
    for (std::size_t i = 0; i < config.classes.size(); ++i) {
      config.classes[i].machine.node = "client-" + std::to_string(i);
      config.classes[i].arrival_rate_per_s *= 8.0;  // well past sustainable
      config.classes[i].violation_rate_per_s = 0.02;
    }
    config.duration_s = 40.0;
    config.seed = seed;
    config.upgrade_scan_interval_s = 5.0;

    Population population(config, client, sys.catalog.list());
    const PopulationMetrics metrics = population.run();
    EXPECT_TRUE(metrics.conserved()) << "seed " << seed << '\n' << metrics.signature();
    EXPECT_EQ(sys.sessions->opened_total(), sys.sessions->released_total()) << "seed " << seed;
    EXPECT_TRUE(sys.drained()) << "seed " << seed;

    ASSERT_EQ(metrics.by_class.size(), 3u);
    combined_best_effort.add(metrics.by_class[0]);  // cheap-mobile
    combined_premium.add(metrics.by_class[2]);
    const ClassCounts totals = metrics.totals();
    policy_actions += totals.policy_preempted + totals.policy_degraded + totals.upgrades;
  }
  // The overloaded replicates must actually exercise the policy, and the
  // policy must differentiate: combined premium shed rate strictly below
  // combined best-effort shed rate.
  EXPECT_GT(policy_actions, 0u);
  ASSERT_GT(combined_best_effort.arrivals, 0u);
  ASSERT_GT(combined_premium.arrivals, 0u);
  const double best_effort_shed = static_cast<double>(combined_best_effort.shed) /
                                  static_cast<double>(combined_best_effort.arrivals);
  const double premium_shed = static_cast<double>(combined_premium.shed) /
                              static_cast<double>(combined_premium.arrivals);
  EXPECT_LT(premium_shed, best_effort_shed);
}

}  // namespace
}  // namespace qosnp
