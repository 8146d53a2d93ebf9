// Step 6 (confirmation within choicePeriod) and the adaptation procedure.
#include "session/session.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "test_system.hpp"

namespace qosnp {
namespace {

using testing::TestSystem;

struct SessionFixture : public ::testing::Test {
  SessionFixture()
      : manager(sys.catalog, sys.farm, *sys.transport),
        sessions(manager) {}

  SessionId negotiate_and_open(double now_s = 0.0,
                               std::optional<UserProfile> profile_in = std::nullopt) {
    UserProfile profile = profile_in.value_or(TestSystem::tolerant_profile());
    NegotiationResult outcome = manager.negotiate(make_negotiation_request(sys.client, "article", profile));
    EXPECT_TRUE(outcome.has_commitment());
    auto opened = sessions.open(sys.client, profile, std::move(outcome), now_s);
    EXPECT_TRUE(opened.ok());
    return opened.value();
  }

  std::int64_t total_reserved() {
    std::int64_t total = 0;
    for (const auto& id : sys.farm.list()) total += sys.farm.find(id)->usage().reserved_bps;
    return total;
  }

  TestSystem sys;
  QoSManager manager;
  SessionManager sessions;
};

TEST_F(SessionFixture, OpenStartsPendingWithDeadline) {
  const SessionId id = negotiate_and_open(10.0);
  auto view = sessions.snapshot(id);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->state, SessionState::kPendingConfirmation);
  EXPECT_DOUBLE_EQ(view->confirm_deadline_s,
                   10.0 + TestSystem::tolerant_profile().mm.time.choice_period_s);
  EXPECT_GT(view->offer_count, 1u);
  ASSERT_TRUE(view->user_offer.has_value());
}

TEST_F(SessionFixture, ConfirmWithinPeriodStartsPlaying) {
  const SessionId id = negotiate_and_open(0.0);
  auto ok = sessions.confirm(id, 5.0);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(sessions.snapshot(id)->state, SessionState::kPlaying);
}

TEST_F(SessionFixture, ConfirmAfterDeadlineAbortsAndReleases) {
  const SessionId id = negotiate_and_open(0.0);
  EXPECT_GT(total_reserved(), 0);
  auto late = sessions.confirm(id, 1'000.0);  // way past choicePeriod (30s)
  EXPECT_FALSE(late.ok());
  EXPECT_EQ(sessions.snapshot(id)->state, SessionState::kAborted);
  EXPECT_EQ(total_reserved(), 0);
  EXPECT_EQ(sys.transport->active_flows(), 0u);
}

TEST_F(SessionFixture, RejectReleasesResources) {
  const SessionId id = negotiate_and_open();
  EXPECT_TRUE(sessions.reject(id));
  EXPECT_FALSE(sessions.reject(id));  // already finished
  EXPECT_EQ(total_reserved(), 0);
  EXPECT_EQ(sessions.snapshot(id)->state, SessionState::kAborted);
}

TEST_F(SessionFixture, DoubleConfirmFails) {
  const SessionId id = negotiate_and_open();
  ASSERT_TRUE(sessions.confirm(id, 1.0).ok());
  EXPECT_FALSE(sessions.confirm(id, 2.0).ok());
}

TEST_F(SessionFixture, AdvanceCompletesAtDuration) {
  const SessionId id = negotiate_and_open();
  sessions.confirm(id, 1.0);
  sessions.advance(id, 60.0);
  EXPECT_EQ(sessions.snapshot(id)->state, SessionState::kPlaying);
  EXPECT_DOUBLE_EQ(sessions.snapshot(id)->position_s, 60.0);
  sessions.advance(id, 60.0);  // document lasts 120 s
  EXPECT_EQ(sessions.snapshot(id)->state, SessionState::kCompleted);
  EXPECT_EQ(total_reserved(), 0);
}

TEST_F(SessionFixture, AdaptSwitchesToAlternateOffer) {
  const SessionId id = negotiate_and_open();
  sessions.confirm(id, 1.0);
  const std::size_t before = sessions.snapshot(id)->current_offer;
  TransitionResult result = sessions.adapt(id, 10.0);
  EXPECT_TRUE(result.moved);
  EXPECT_NE(result.new_offer, before);
  EXPECT_EQ(sessions.snapshot(id)->state, SessionState::kPlaying);
  EXPECT_EQ(sessions.snapshot(id)->stats.transitions, 1);
  EXPECT_GT(sessions.snapshot(id)->stats.interrupted_s, 0.0);
}

TEST_F(SessionFixture, AdaptNeverSelectsTheFailedConfiguration) {
  const SessionId id = negotiate_and_open();
  sessions.confirm(id, 1.0);
  for (int i = 0; i < 5; ++i) {
    const std::size_t current = sessions.snapshot(id)->current_offer;
    TransitionResult result = sessions.adapt(id, 10.0 + i);
    if (!result.moved) break;
    EXPECT_NE(result.new_offer, current);
  }
}

TEST_F(SessionFixture, AdaptFailsWhenNoAlternativeFits) {
  const SessionId id = negotiate_and_open();
  sessions.confirm(id, 1.0);
  // Both servers down: no alternate configuration can be committed (the
  // stop-then-restart transition frees the old reservation, but a failed
  // server admits nothing).
  sys.farm.find("server-a")->fail();
  sys.farm.find("server-b")->fail();
  TransitionResult result = sessions.adapt(id, 10.0);
  EXPECT_FALSE(result.moved);
  EXPECT_EQ(sessions.snapshot(id)->state, SessionState::kAborted);
  EXPECT_EQ(sessions.snapshot(id)->stats.failed_adaptations, 1);
  // Everything released despite the failure.
  EXPECT_EQ(sys.transport->active_flows(), 0u);
}

TEST_F(SessionFixture, MakeBeforeBreakAdaptationWorks) {
  SessionManager bbm(manager, AdaptationPolicy{.make_before_break = true,
                                               .exclude_all_tried = false});
  UserProfile profile = TestSystem::tolerant_profile();
  NegotiationResult outcome = manager.negotiate(make_negotiation_request(sys.client, "article", profile));
  ASSERT_TRUE(outcome.has_commitment());
  auto opened = bbm.open(sys.client, profile, std::move(outcome), 0.0);
  ASSERT_TRUE(opened.ok());
  bbm.confirm(opened.value(), 1.0);
  TransitionResult result = bbm.adapt(opened.value(), 5.0);
  EXPECT_TRUE(result.moved);
  EXPECT_DOUBLE_EQ(result.interruption_s, kTransitionLatencyS);
}

TEST_F(SessionFixture, ExcludeAllTriedPolicyExhaustsLadder) {
  SessionManager strict(manager, AdaptationPolicy{.make_before_break = true,
                                                  .exclude_all_tried = true});
  UserProfile profile = TestSystem::tolerant_profile();
  NegotiationResult outcome = manager.negotiate(make_negotiation_request(sys.client, "article", profile));
  ASSERT_TRUE(outcome.has_commitment());
  const std::size_t ladder = outcome.offers.known_count();
  auto opened = strict.open(sys.client, profile, std::move(outcome), 0.0);
  ASSERT_TRUE(opened.ok());
  strict.confirm(opened.value(), 1.0);
  // Adapting more times than there are offers must eventually abort.
  std::size_t adapted = 0;
  for (std::size_t i = 0; i < ladder + 2; ++i) {
    if (!strict.adapt(opened.value(), 5.0 + static_cast<double>(i)).moved) break;
    ++adapted;
  }
  EXPECT_LT(adapted, ladder);
  EXPECT_EQ(strict.snapshot(opened.value())->state, SessionState::kAborted);
}

TEST_F(SessionFixture, FlowIndexRoutesViolations) {
  const SessionId id = negotiate_and_open();
  sessions.confirm(id, 1.0);
  // Degrade the backbone so the committed flows are victims.
  const auto victims = sys.transport->degrade_link(0, 0.999);
  ASSERT_FALSE(victims.empty());
  bool routed = false;
  for (FlowId flow : victims) {
    for (SessionId sid : sessions.sessions_using_flow(flow)) {
      routed = true;
      EXPECT_EQ(sid, id);
    }
  }
  EXPECT_TRUE(routed);
}

TEST_F(SessionFixture, FlowIndexUpdatedAfterAdaptation) {
  const SessionId id = negotiate_and_open();
  sessions.confirm(id, 1.0);
  auto before = sessions.snapshot(id);
  TransitionResult result = sessions.adapt(id, 5.0);
  ASSERT_TRUE(result.moved);
  // All currently held flows route back to the session.
  std::size_t routed = 0;
  for (std::size_t link = 0; link < sys.transport->topology().link_count(); ++link) {
    const auto usage = sys.transport->link_usage(link);
    (void)usage;
  }
  // Trigger violations on the new configuration.
  const auto victims = sys.transport->degrade_link(0, 0.999);
  for (FlowId flow : victims) {
    for (SessionId sid : sessions.sessions_using_flow(flow)) {
      EXPECT_EQ(sid, id);
      ++routed;
    }
  }
  EXPECT_GT(routed, 0u);
  (void)before;
}

TEST_F(SessionFixture, SessionsOnServerFindsHolders) {
  const SessionId id = negotiate_and_open();
  sessions.confirm(id, 1.0);
  const auto view = sessions.snapshot(id);
  ASSERT_TRUE(view.has_value());
  // The session uses at least one of the two servers.
  const auto on_a = sessions.sessions_on_server("server-a");
  const auto on_b = sessions.sessions_on_server("server-b");
  EXPECT_TRUE(!on_a.empty() || !on_b.empty());
  EXPECT_TRUE(sessions.sessions_on_server("server-zzz").empty());
}

TEST_F(SessionFixture, AbortReleasesAndRecordsReason) {
  const SessionId id = negotiate_and_open();
  sessions.confirm(id, 1.0);
  sessions.abort(id, "operator shutdown");
  auto view = sessions.snapshot(id);
  EXPECT_EQ(view->state, SessionState::kAborted);
  EXPECT_EQ(view->abort_reason, "operator shutdown");
  EXPECT_EQ(total_reserved(), 0);
}

TEST_F(SessionFixture, RenegotiateUpgradesLiveSession) {
  // Start with the thrifty floor, then renegotiate up to the tolerant
  // profile: the session switches configuration without being torn down.
  UserProfile modest = TestSystem::tolerant_profile();
  modest.mm.video->desired = VideoQoS{ColorDepth::kBlackWhite, 10, 320};
  modest.mm.audio->desired = AudioQoS{AudioQuality::kTelephone};
  const SessionId id = negotiate_and_open(0.0, modest);
  sessions.confirm(id, 1.0);
  sessions.advance(id, 20.0);

  RenegotiationResult result =
      sessions.renegotiate(id, TestSystem::tolerant_profile(), 21.0);
  EXPECT_TRUE(result.switched);
  EXPECT_EQ(result.status, NegotiationStatus::kSucceeded);
  ASSERT_TRUE(result.offer.has_value());
  EXPECT_EQ(result.offer->video->color, ColorDepth::kColor);
  const auto view = sessions.snapshot(id);
  EXPECT_EQ(view->state, SessionState::kPlaying);
  EXPECT_DOUBLE_EQ(view->position_s, 20.0);  // playout position preserved
  EXPECT_EQ(view->stats.renegotiations, 1);
}

TEST_F(SessionFixture, RenegotiateFailureKeepsCurrentConfiguration) {
  const SessionId id = negotiate_and_open();
  sessions.confirm(id, 1.0);
  const auto before = sessions.snapshot(id);
  // A profile no variant can decode into: demand MJPEG-class super quality
  // the servers can't admit (both failed).
  sys.farm.find("server-a")->fail();
  sys.farm.find("server-b")->fail();
  RenegotiationResult result =
      sessions.renegotiate(id, TestSystem::tolerant_profile(), 10.0);
  EXPECT_FALSE(result.switched);
  EXPECT_EQ(result.status, NegotiationStatus::kFailedTryLater);
  const auto after = sessions.snapshot(id);
  EXPECT_EQ(after->state, SessionState::kPlaying);
  EXPECT_EQ(after->current_offer, before->current_offer);
  EXPECT_EQ(after->stats.renegotiations, 0);
  sys.farm.find("server-a")->recover();
  sys.farm.find("server-b")->recover();
}

TEST_F(SessionFixture, RenegotiateRejectedOnFinishedSession) {
  const SessionId id = negotiate_and_open();
  sessions.reject(id);
  RenegotiationResult result =
      sessions.renegotiate(id, TestSystem::tolerant_profile(), 5.0);
  EXPECT_FALSE(result.switched);
  EXPECT_FALSE(result.problems.empty());
}

TEST_F(SessionFixture, RenegotiateThenAdaptUsesNewLadder) {
  const SessionId id = negotiate_and_open();
  sessions.confirm(id, 1.0);
  RenegotiationResult renego =
      sessions.renegotiate(id, TestSystem::tolerant_profile(), 5.0);
  ASSERT_TRUE(renego.switched);
  TransitionResult adapted = sessions.adapt(id, 10.0);
  EXPECT_TRUE(adapted.moved);
  EXPECT_EQ(sessions.snapshot(id)->stats.transitions, 1);
  EXPECT_EQ(sessions.snapshot(id)->stats.renegotiations, 1);
}

TEST_F(SessionFixture, OpenWithoutCommitmentFails) {
  NegotiationResult empty;
  auto opened = sessions.open(sys.client, TestSystem::tolerant_profile(), std::move(empty), 0.0);
  EXPECT_FALSE(opened.ok());
}

TEST_F(SessionFixture, ActiveCountTracksLifecycle) {
  EXPECT_EQ(sessions.active_count(), 0u);
  const SessionId id = negotiate_and_open();
  EXPECT_EQ(sessions.active_count(), 1u);
  sessions.confirm(id, 1.0);
  EXPECT_EQ(sessions.active_count(), 1u);
  sessions.advance(id, 1'000.0);
  EXPECT_EQ(sessions.active_count(), 0u);
}

TEST_F(SessionFixture, ChargedCostTracksCommittedOffer) {
  const SessionId id = negotiate_and_open();
  sessions.confirm(id, 1.0);
  const Money before = sessions.snapshot(id)->stats.charged;
  EXPECT_FALSE(before.is_zero());
  TransitionResult result = sessions.adapt(id, 5.0);
  ASSERT_TRUE(result.moved);
  // The charge follows the new configuration (it may differ).
  EXPECT_FALSE(sessions.snapshot(id)->stats.charged.is_zero());
}

// ---------------------------------------------------------------------------
// The finished-record contract: a finished session leaves the live table
// (its offer list, stream and plan seed are freed) and only its SessionView
// remains until prune_finished().

// Compares the record a finished session left with the snapshot taken right
// before the finishing call; `expected_stats` is that snapshot's stats with
// whatever the finishing call itself legitimately added.
void expect_record(const SessionView& before, const SessionView& after,
                   const SessionStats& expected_stats, SessionState state,
                   const std::string& reason, bool walked) {
  EXPECT_EQ(after.id, before.id);
  EXPECT_EQ(after.state, state);
  EXPECT_EQ(after.abort_reason, reason);
  EXPECT_EQ(after.session_class, before.session_class);
  EXPECT_EQ(after.current_offer, before.current_offer);
  EXPECT_DOUBLE_EQ(after.duration_s, before.duration_s);
  EXPECT_DOUBLE_EQ(after.confirm_deadline_s, before.confirm_deadline_s);
  // A failed walk may have materialised more of the lazy ladder first.
  if (walked) {
    EXPECT_GE(after.offer_count, before.offer_count);
  } else {
    EXPECT_EQ(after.offer_count, before.offer_count);
  }
  ASSERT_TRUE(before.user_offer.has_value());
  ASSERT_TRUE(after.user_offer.has_value());
  EXPECT_EQ(after.user_offer->describe(), before.user_offer->describe());
  EXPECT_EQ(after.user_offer->cost, before.user_offer->cost);
  EXPECT_EQ(after.stats.transitions, expected_stats.transitions);
  EXPECT_EQ(after.stats.failed_adaptations, expected_stats.failed_adaptations);
  EXPECT_EQ(after.stats.renegotiations, expected_stats.renegotiations);
  EXPECT_EQ(after.stats.preempt_degrades, expected_stats.preempt_degrades);
  EXPECT_EQ(after.stats.upgrades, expected_stats.upgrades);
  EXPECT_DOUBLE_EQ(after.stats.interrupted_s, expected_stats.interrupted_s);
  EXPECT_EQ(after.stats.charged, expected_stats.charged);
  if (walked) {
    EXPECT_GT(after.stats.commit.attempts, before.stats.commit.attempts);
  } else {
    EXPECT_EQ(after.stats.commit.attempts, expected_stats.commit.attempts);
  }
}

struct Ending {
  const char* name;
  bool confirm;  ///< confirm before ending (playing), else end while pending
  std::function<void(SessionManager&, TestSystem&, SessionId)> end;
  SessionState state;
  std::string reason;
  double position_s;  ///< where the record should leave the playout
  bool walked;        ///< the ending ran a (failed) Step-5 walk first
  int failed_adaptations;
};

std::vector<Ending> all_endings() {
  auto fail_servers = [](TestSystem& sys) {
    sys.farm.find("server-a")->fail();
    sys.farm.find("server-b")->fail();
  };
  return {
      {"complete", true, [](SessionManager& m, TestSystem&, SessionId id) { m.complete(id); },
       SessionState::kCompleted, "", 10.0, false, 0},
      {"abort", true,
       [](SessionManager& m, TestSystem&, SessionId id) { m.abort(id, "operator shutdown"); },
       SessionState::kAborted, "operator shutdown", 10.0, false, 0},
      {"reject", false,
       [](SessionManager& m, TestSystem&, SessionId id) { EXPECT_TRUE(m.reject(id)); },
       SessionState::kAborted, "offer rejected by the user", 0.0, false, 0},
      {"confirm-after-choice-period", false,
       [](SessionManager& m, TestSystem&, SessionId id) {
         EXPECT_FALSE(m.confirm(id, 1'000.0).ok());
       },
       SessionState::kAborted, "choice period expired", 0.0, false, 0},
      {"failed-adapt", true,
       [fail_servers](SessionManager& m, TestSystem& sys, SessionId id) {
         fail_servers(sys);
         EXPECT_FALSE(m.adapt(id, 20.0).moved);
       },
       SessionState::kAborted, "no alternate configuration available", 10.0, true, 1},
      {"preempt-release", true,
       [fail_servers](SessionManager& m, TestSystem& sys, SessionId id) {
         fail_servers(sys);
         EXPECT_TRUE(m.preempt_degrade(id).released);
       },
       SessionState::kAborted, std::string(kPreemptedAbortReason), 10.0, true, 0},
      {"advance-to-end", true,
       [](SessionManager& m, TestSystem&, SessionId id) { m.advance(id, 1'000.0); },
       SessionState::kCompleted, "", 120.0, false, 0},
  };
}

TEST(SessionFinishedRecord, EveryEndingKeepsTheViewAndFreesTheSession) {
  for (const Ending& ending : all_endings()) {
    SCOPED_TRACE(ending.name);
    TestSystem sys;
    QoSManager manager(sys.catalog, sys.farm, *sys.transport);
    SessionManager sessions(manager);
    const UserProfile profile = TestSystem::tolerant_profile();
    NegotiationResult outcome =
        manager.negotiate(make_negotiation_request(sys.client, "article", profile));
    ASSERT_TRUE(outcome.has_commitment());
    ASSERT_NE(outcome.offers.stream(), nullptr);
    const std::weak_ptr<OfferStream> stream = outcome.offers.stream();
    auto opened = sessions.open(sys.client, profile, std::move(outcome), 0.0);
    ASSERT_TRUE(opened.ok());
    const SessionId id = opened.value();
    if (ending.confirm) {
      ASSERT_TRUE(sessions.confirm(id, 1.0).ok());
      sessions.advance(id, 10.0);
    }
    EXPECT_FALSE(stream.expired());  // the live session holds its stream

    const SessionView before = sessions.snapshot(id).value();
    ending.end(sessions, sys, id);
    const auto after = sessions.snapshot(id);
    ASSERT_TRUE(after.has_value());
    SessionStats expected = before.stats;
    expected.failed_adaptations += ending.failed_adaptations;
    expect_record(before, *after, expected, ending.state, ending.reason, ending.walked);
    EXPECT_DOUBLE_EQ(after->position_s, ending.position_s);

    // The Session itself is gone: its offer stream (and the plan seed it
    // pins) is freed, and nothing stays reserved.
    EXPECT_TRUE(stream.expired());
    EXPECT_EQ(sessions.active_count(), 0u);
    EXPECT_EQ(sys.transport->active_flows(), 0u);

    // Finishing again is a no-op.
    EXPECT_EQ(sessions.released_total(), 1u);
    sessions.complete(id);
    sessions.abort(id, "again");
    EXPECT_EQ(sessions.released_total(), 1u);
    EXPECT_EQ(sessions.snapshot(id)->state, ending.state);
    EXPECT_EQ(sessions.snapshot(id)->abort_reason, ending.reason);

    EXPECT_EQ(sessions.prune_finished(), 1u);
    EXPECT_FALSE(sessions.snapshot(id).has_value());
    EXPECT_EQ(sessions.prune_finished(), 0u);
    EXPECT_EQ(sessions.opened_total(), 1u);
    EXPECT_EQ(sessions.released_total(), 1u);
  }
}

TEST_F(SessionFixture, PruneDropsOnlyFinishedRecords) {
  const SessionId done_a = negotiate_and_open();
  const SessionId done_b = negotiate_and_open();
  const SessionId live = negotiate_and_open();
  sessions.complete(done_a);
  sessions.abort(done_b, "gone");
  EXPECT_EQ(sessions.prune_finished(), 2u);
  EXPECT_FALSE(sessions.snapshot(done_a).has_value());
  EXPECT_FALSE(sessions.snapshot(done_b).has_value());
  ASSERT_TRUE(sessions.snapshot(live).has_value());
  EXPECT_EQ(sessions.snapshot(live)->state, SessionState::kPendingConfirmation);
  EXPECT_EQ(sessions.active_count(), 1u);
  // A finished id reports its end state until pruned, then is unknown.
  auto again = sessions.confirm(done_a, 1.0);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error(), "unknown session");
  sessions.reject(live);
  auto late = sessions.confirm(live, 1.0);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.error(), "session is aborted");
}

// Run under the tsan preset (session_test carries the concurrency label):
// racing completes of the same ids, snapshots and prunes must release every
// session exactly once and leave nothing reserved.
TEST_F(SessionFixture, ConcurrentCompleteSnapshotAndPrune) {
  // The test farm holds only a handful of sessions at once, so race them in
  // rounds: open what fits, then finish and prune them concurrently.
  constexpr int kRounds = 50;
  std::size_t opened_sessions = 0;
  std::size_t pruned_total = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<SessionId> ids;
    for (;;) {
      const UserProfile profile = TestSystem::tolerant_profile();
      NegotiationResult outcome =
          manager.negotiate(make_negotiation_request(sys.client, "article", profile));
      if (!outcome.has_commitment()) break;
      auto opened = sessions.open(sys.client, profile, std::move(outcome), 0.0);
      ASSERT_TRUE(opened.ok());
      sessions.confirm(opened.value(), 1.0);
      ids.push_back(opened.value());
    }
    ASSERT_GE(ids.size(), 2u);
    opened_sessions += ids.size();

    std::atomic<bool> completing{true};
    std::atomic<std::size_t> pruned{0};
    auto completer = [&] {
      for (SessionId id : ids) sessions.complete(id);
    };
    std::thread a(completer);
    std::thread b(completer);
    std::thread snapshotter([&] {
      while (completing.load()) {
        for (SessionId id : ids) {
          const auto view = sessions.snapshot(id);
          if (view) {
            EXPECT_NE(view->state, SessionState::kAborted);
          }
        }
      }
    });
    std::thread pruner([&] {
      while (completing.load()) pruned.fetch_add(sessions.prune_finished());
    });
    a.join();
    b.join();
    completing.store(false);
    snapshotter.join();
    pruner.join();
    pruned_total += pruned.load() + sessions.prune_finished();
    for (SessionId id : ids) EXPECT_FALSE(sessions.snapshot(id).has_value());
  }

  EXPECT_EQ(sessions.opened_total(), opened_sessions);
  EXPECT_EQ(sessions.released_total(), opened_sessions);
  EXPECT_EQ(pruned_total, opened_sessions);
  EXPECT_EQ(sessions.active_count(), 0u);
  EXPECT_EQ(total_reserved(), 0);
  EXPECT_EQ(sys.transport->active_flows(), 0u);
}

// ---------------------------------------------------------------------------
// Every kind of transition re-indexes the session's flows, so violation
// routing follows the new commitment and forgets the old one.

/// The flows the transport holds, ascending (ids are handed out from 1).
std::vector<FlowId> held_flows(const TransportService& transport) {
  std::vector<FlowId> held;
  for (FlowId id = 1; held.size() < transport.active_flows(); ++id) {
    if (transport.flow(id)) held.push_back(id);
  }
  return held;
}

using Move = std::function<bool(SessionManager&, SessionId)>;

struct TransitionKind {
  const char* name;
  bool make_before_break;  ///< the adaptation policy's commit order
  Move prepare;            ///< puts the session where `run` can move it, or null
  Move run;                ///< the transition under test; true when it moved
  int SessionStats::*counter;
};

std::vector<TransitionKind> all_transition_kinds() {
  const Move adapt = [](SessionManager& m, SessionId id) { return m.adapt(id, 5.0).moved; };
  const Move degrade = [](SessionManager& m, SessionId id) {
    return m.preempt_degrade(id).moved;
  };
  return {
      {"adapt break-before-make", false, nullptr, adapt, &SessionStats::transitions},
      {"adapt make-before-break", true, nullptr, adapt, &SessionStats::transitions},
      {"preempt_degrade", false, nullptr, degrade, &SessionStats::preempt_degrades},
      {"try_upgrade", false, degrade,
       [](SessionManager& m, SessionId id) { return m.try_upgrade(id).moved; },
       &SessionStats::upgrades},
      {"renegotiate", false, nullptr,
       [](SessionManager& m, SessionId id) {
         return m.renegotiate(id, TestSystem::tolerant_profile(), 5.0).switched;
       },
       &SessionStats::renegotiations},
  };
}

TEST(SessionTransitions, FlowIndexFollowsEveryTransitionKind) {
  for (const TransitionKind& kind : all_transition_kinds()) {
    SCOPED_TRACE(kind.name);
    TestSystem sys;
    QoSManager manager(sys.catalog, sys.farm, *sys.transport);
    SessionManager sessions(manager, AdaptationPolicy{.make_before_break = kind.make_before_break,
                                                      .exclude_all_tried = false});
    const UserProfile profile = TestSystem::tolerant_profile();
    NegotiationResult outcome =
        manager.negotiate(make_negotiation_request(sys.client, "article", profile));
    ASSERT_TRUE(outcome.has_commitment());
    const auto opened = sessions.open(sys.client, profile, std::move(outcome), 0.0);
    ASSERT_TRUE(opened.ok());
    const SessionId id = opened.value();
    ASSERT_TRUE(sessions.confirm(id, 1.0).ok());
    if (kind.prepare) {
      ASSERT_TRUE(kind.prepare(sessions, id));
    }

    // The session is alone, so the transport's flows are its commitment.
    const std::vector<FlowId> old_flows = held_flows(*sys.transport);
    ASSERT_FALSE(old_flows.empty());
    const SessionStats before = sessions.snapshot(id)->stats;

    ASSERT_TRUE(kind.run(sessions, id));

    const std::vector<FlowId> new_flows = held_flows(*sys.transport);
    ASSERT_FALSE(new_flows.empty());
    for (FlowId flow : new_flows) {
      EXPECT_EQ(sessions.sessions_using_flow(flow), std::vector<SessionId>{id}) << "flow " << flow;
    }
    for (FlowId flow : old_flows) {
      EXPECT_TRUE(sessions.sessions_using_flow(flow).empty()) << "flow " << flow;
    }
    const SessionStats after = sessions.snapshot(id)->stats;
    EXPECT_EQ(after.*kind.counter, before.*kind.counter + 1);
    EXPECT_DOUBLE_EQ(after.interrupted_s, before.interrupted_s + kTransitionLatencyS);
  }
}

}  // namespace
}  // namespace qosnp
