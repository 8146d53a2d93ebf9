// Integration tests of the full negotiation procedure: all five negotiation
// statuses of paper Sec. 4 are reachable, and the procedure picks optimal
// configurations.
#include "core/qos_manager.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <iomanip>
#include <memory>
#include <sstream>

#include "document/corpus.hpp"
#include "fault/fault_injector.hpp"
#include "obs/trace.hpp"
#include "policy/preemption.hpp"
#include "result_signature.hpp"
#include "sim/population.hpp"
#include "test_system.hpp"

namespace qosnp {
namespace {

using testing::result_signature;
using testing::TestSystem;

TEST(QoSManager, SucceedsOnSatisfiableRequest) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  const UserProfile profile = TestSystem::tolerant_profile();
  NegotiationResult outcome = manager.negotiate(make_negotiation_request(sys.client, "article", profile));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kSucceeded);
  ASSERT_TRUE(outcome.user_offer.has_value());
  ASSERT_TRUE(outcome.has_commitment());
  // The committed offer satisfies the requested QoS and budget.
  EXPECT_TRUE(satisfies_user(outcome.offers.offers[outcome.committed_index], profile.mm));
  // The user offer reports the desired video quality (the catalog has it).
  EXPECT_EQ(outcome.user_offer->video->color, ColorDepth::kColor);
  EXPECT_EQ(outcome.user_offer->video->frame_rate_fps, 25);
  EXPECT_LE(outcome.user_offer->cost, profile.mm.cost.max_cost);
}

TEST(QoSManager, CommitsTheTopClassifiedOffer) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  const UserProfile profile = TestSystem::tolerant_profile();
  NegotiationResult outcome = manager.negotiate(make_negotiation_request(sys.client, "article", profile));
  ASSERT_TRUE(outcome.has_commitment());
  // With ample resources the very first (best) offer must be the one
  // committed.
  EXPECT_EQ(outcome.committed_index, 0u);
  EXPECT_EQ(outcome.offers.offers[0].sns, Sns::kDesirable);
}

TEST(QoSManager, UnknownDocumentFailsWithoutOffer) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, "no-such-doc", TestSystem::tolerant_profile()));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kFailedWithoutOffer);
  EXPECT_FALSE(outcome.has_commitment());
}

TEST(QoSManager, LocalFailureReturnsLocalOffer) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  ClientMachine bw = sys.client;
  bw.screen = ScreenSpec{640, 480, ColorDepth::kBlackWhite};
  UserProfile profile = TestSystem::tolerant_profile();
  profile.mm.video->worst = VideoQoS{ColorDepth::kColor, 10, 320};  // colour floor
  NegotiationResult outcome = manager.negotiate(make_negotiation_request(bw, "article", profile));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kFailedWithLocalOffer);
  ASSERT_TRUE(outcome.user_offer.has_value());
  // The local offer is clipped to the black&white screen.
  EXPECT_EQ(outcome.user_offer->video->color, ColorDepth::kBlackWhite);
  EXPECT_FALSE(outcome.has_commitment());
}

TEST(QoSManager, UndecodableDocumentFailsWithoutOffer) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  ClientMachine odd = sys.client;
  odd.decoders = {CodingFormat::kH261, CodingFormat::kPCM, CodingFormat::kPlainText};
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(odd, "article", TestSystem::tolerant_profile()));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kFailedWithoutOffer);
  EXPECT_FALSE(outcome.user_offer.has_value());
}

TEST(QoSManager, ResourceShortageFailsTryLater) {
  TestSystem sys(/*access_bps=*/50'000);  // not even the cheapest offer fits
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile()));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kFailedTryLater);
  EXPECT_FALSE(outcome.has_commitment());
  EXPECT_FALSE(outcome.problems.empty());
}

TEST(QoSManager, UnsatisfiableQosYieldsFailedWithOffer) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  UserProfile greedy = TestSystem::tolerant_profile();
  // Nothing in the catalog offers HDTV rate; the floor is above every variant.
  greedy.mm.video->desired = VideoQoS{ColorDepth::kSuperColor, 60, 1920};
  greedy.mm.video->worst = VideoQoS{ColorDepth::kSuperColor, 60, 1920};
  NegotiationResult outcome = manager.negotiate(make_negotiation_request(sys.client, "article", greedy));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kFailedWithOffer);
  ASSERT_TRUE(outcome.user_offer.has_value());
  ASSERT_TRUE(outcome.has_commitment());
  // The best the system can do is offered, even though it violates the floor.
  EXPECT_EQ(outcome.offers.offers[outcome.committed_index].sns, Sns::kConstraint);
}

TEST(QoSManager, TightBudgetPrefersCheaperSatisfyingOffer) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  UserProfile profile = TestSystem::tolerant_profile();
  profile.importance.cost_per_dollar = 10.0;  // cost-sensitive user
  NegotiationResult outcome = manager.negotiate(make_negotiation_request(sys.client, "article", profile));
  ASSERT_TRUE(outcome.has_commitment());
  const SystemOffer& committed = outcome.offers.offers[outcome.committed_index];
  // Every satisfying offer with a higher OIF would have been committed
  // instead; verify nothing satisfying is ranked above the committed one.
  for (std::size_t i = 0; i < outcome.committed_index; ++i) {
    EXPECT_FALSE(satisfies_user(outcome.offers.offers[i], profile.mm) &&
                 outcome.offers.offers[i].oif > committed.oif);
  }
}

TEST(QoSManager, ClassificationOrderIsBestToWorst) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile()));
  const auto& offers = outcome.offers.offers;
  for (std::size_t i = 1; i < offers.size(); ++i) {
    // SNS non-decreasing; OIF non-increasing within an SNS class.
    EXPECT_LE(offers[i - 1].sns, offers[i].sns);
    if (offers[i - 1].sns == offers[i].sns) {
      EXPECT_GE(offers[i - 1].oif, offers[i].oif);
    }
  }
}

TEST(QoSManager, FallsBackToNextOfferWhenBestIsFull) {
  // Server-a hosts the best variants; saturate it so that negotiation must
  // fall back to server-b configurations.
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  MediaServer* a = sys.farm.find("server-a");
  a->degrade(0.999);  // effectively no disk bandwidth left
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile()));
  ASSERT_TRUE(outcome.has_commitment()) << outcome.problems.empty();
  // The continuous (guaranteed) streams no longer fit on server-a; only a
  // tiny best-effort text delivery may still land there.
  for (const auto& c : outcome.offers.offers[outcome.committed_index].components) {
    if (c.requirements.guarantee == GuaranteeClass::kGuaranteed) {
      EXPECT_EQ(c.variant->server, "server-b") << c.variant->id;
    }
  }
}

TEST(QoSManager, CommitFirstHonoursExclusions) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile()));
  ASSERT_TRUE(outcome.has_commitment());
  const std::size_t first = outcome.committed_index;
  outcome.commitment.release();
  const std::vector<std::size_t> exclude = {first};
  CommitAttempt attempt = manager.commit_first(sys.client, outcome.offers,
                                               TestSystem::tolerant_profile().mm, exclude);
  ASSERT_TRUE(attempt.ok());
  EXPECT_NE(attempt.index, first);
}

TEST(QoSManager, NegotiationLeavesNoResidueOnFailure) {
  TestSystem sys(/*access_bps=*/50'000);
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  manager.negotiate(make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile()));
  EXPECT_EQ(sys.transport->active_flows(), 0u);
  for (const auto& id : sys.farm.list()) {
    EXPECT_EQ(sys.farm.find(id)->usage().reserved_bps, 0);
  }
}

TEST(QoSManager, RepeatedNegotiationsConsumeCapacity) {
  // Each SUCCEEDED negotiation holds resources; eventually requests are
  // refused (FAILEDTRYLATER) or degraded — never wrongly SUCCEEDED.
  TestSystem sys(/*access_bps=*/200'000'000, /*backbone_bps=*/20'000'000,
                 /*server_bps=*/200'000'000);
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  const UserProfile profile = TestSystem::tolerant_profile();
  std::vector<NegotiationResult> held;
  int succeeded = 0;
  int degraded_or_refused = 0;
  for (int i = 0; i < 40; ++i) {
    NegotiationResult outcome = manager.negotiate(make_negotiation_request(sys.client, "article", profile));
    if (outcome.verdict == NegotiationStatus::kSucceeded) {
      ++succeeded;
    } else {
      ++degraded_or_refused;
    }
    if (outcome.has_commitment()) held.push_back(std::move(outcome));
  }
  EXPECT_GT(succeeded, 0);
  EXPECT_GT(degraded_or_refused, 0);
  // Backbone is never oversubscribed.
  EXPECT_LE(sys.transport->link_usage(0).reserved_bps, 20'000'000);
}

TEST(QoSManager, TruncationIsReportedAsProblem) {
  TestSystem sys;
  NegotiationConfig config;
  config.enumeration.max_offers = 3;  // the article yields 20 combinations
  QoSManager manager(sys.catalog, sys.farm, *sys.transport, CostModel{}, config);
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile()));
  ASSERT_TRUE(outcome.offers.truncated);
  bool mentioned = false;
  for (const auto& p : outcome.problems) {
    mentioned |= p.find("truncated") != std::string::npos;
  }
  EXPECT_TRUE(mentioned);
}

TEST(QoSManager, NegotiateDocumentRejectsNull) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, std::shared_ptr<const MultimediaDocument>{},
                                                TestSystem::tolerant_profile()));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kFailedWithoutOffer);
}

TEST(QoSManager, NegotiateDocumentWorksWithoutCatalogEntry) {
  // Renegotiation path: the document may have been dropped from the catalog
  // while a session still holds it.
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  auto doc = sys.catalog.find("article");
  sys.catalog.remove("article");
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, doc, TestSystem::tolerant_profile()));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kSucceeded);
}

TEST(QoSManager, ParallelClassificationPathProducesSameOutcome) {
  TestSystem sys;
  NegotiationConfig serial_config;
  serial_config.parallel_threshold = 0;
  NegotiationConfig parallel_config;
  parallel_config.parallel_threshold = 1;
  QoSManager serial(sys.catalog, sys.farm, *sys.transport, CostModel{}, serial_config);
  NegotiationResult a = serial.negotiate(make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile()));
  a.commitment.release();
  QoSManager parallel(sys.catalog, sys.farm, *sys.transport, CostModel{}, parallel_config);
  NegotiationResult b =
      parallel.negotiate(make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile()));
  ASSERT_EQ(a.offers.offers.size(), b.offers.offers.size());
  for (std::size_t i = 0; i < a.offers.offers.size(); ++i) {
    EXPECT_EQ(a.offers.offers[i].components[0].variant->id,
              b.offers.offers[i].components[0].variant->id);
  }
  EXPECT_EQ(a.committed_index, b.committed_index);
}

// --- CommitAttempt::errors: filled only when the walk fails. --------------

NegotiationConfig eager_config() {
  NegotiationConfig config;
  config.enumeration.strategy = EnumerationStrategy::kEager;  // whole list up front
  return config;
}

/// A plan whose servers refuse every admission: each offer is refused at its
/// first component's server, with a fixed message.
FaultPlan refuse_every_admission() {
  FaultPlan plan;
  plan.server_defaults.transient_failure_p = 1.0;
  return plan;
}

/// The walk's problem lines built straight from the offer list: satisfying
/// offers first, then the rest, each "offer <i>: <component>: <message>".
std::vector<std::string> expected_refusal_lines(const OfferList& offers, const MMProfile& mm) {
  std::vector<std::string> lines;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < offers.offers.size(); ++i) {
      if (satisfies_user(offers.offers[i], mm) != (pass == 0)) continue;
      const ServerId& server = offers.offers[i].components.front().variant->server;
      lines.push_back("offer " + std::to_string(i) + ": fault:" + server + ": server '" +
                      server + "' transiently refused (injected fault)");
    }
  }
  return lines;
}

TEST(QoSManagerCommitErrors, FailedWalkListsEveryRefusalInWalkOrder) {
  TestSystem sys;
  FaultyServerFarm farm(sys.farm, refuse_every_admission());
  QoSManager manager(sys.catalog, farm, *sys.transport, CostModel{}, eager_config());
  const UserProfile profile = TestSystem::tolerant_profile();
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, "article", profile));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kFailedTryLater);
  const std::vector<std::string> expected = expected_refusal_lines(outcome.offers, profile.mm);
  ASSERT_EQ(expected.size(), outcome.offers.offers.size());
  EXPECT_EQ(outcome.problems, expected);

  CommitAttempt attempt = manager.commit_first(sys.client, outcome.offers, profile.mm);
  EXPECT_FALSE(attempt.ok());
  EXPECT_TRUE(attempt.saw_transient);
  EXPECT_EQ(attempt.errors, expected);
}

TEST(QoSManagerCommitErrors, WalkThatCommitsAfterRefusalsLeavesErrorsEmpty) {
  TestSystem sys;
  FaultPlan plan;
  plan.server_defaults.outage_after_events = 0;  // each server refuses its first 3 admissions
  plan.server_defaults.outage_length_events = 3;
  FaultyServerFarm farm(sys.farm, plan);
  QoSManager manager(sys.catalog, farm, *sys.transport, CostModel{}, eager_config());
  const UserProfile profile = TestSystem::tolerant_profile();
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, "article", profile));
  outcome.commitment.release();

  FaultyServerFarm fresh(sys.farm, plan);
  QoSManager walker(sys.catalog, fresh, *sys.transport, CostModel{}, eager_config());
  CommitAttempt attempt = walker.commit_first(sys.client, outcome.offers, profile.mm);
  ASSERT_TRUE(attempt.ok());
  EXPECT_GT(attempt.stats.transient_failures, 0);
  EXPECT_GT(attempt.index, 0u);
  EXPECT_TRUE(attempt.errors.empty());
}

TEST(QoSManagerCommitErrors, TracedRefusedAttemptsCarryTheRefusal) {
  TestSystem sys;
  FaultyServerFarm farm(sys.farm, refuse_every_admission());
  QoSManager manager(sys.catalog, farm, *sys.transport, CostModel{}, eager_config());
  const UserProfile profile = TestSystem::tolerant_profile();
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, "article", profile));

  NegotiationTrace trace(1);
  CommitAttempt attempt =
      manager.commit_first(sys.client, outcome.offers, profile.mm, {}, TraceContext(&trace));
  ASSERT_FALSE(attempt.ok());
  std::vector<std::string> from_spans;
  for (const Span& span : trace.spans()) {
    if (span.stage != Stage::kCommitAttempt) continue;
    const std::string refusal(span.attr("refusal"));
    const std::string suffix = " [transient]";
    ASSERT_TRUE(refusal.ends_with(suffix)) << refusal;
    from_spans.push_back("offer " + std::string(span.attr("offer")) + ": " +
                         refusal.substr(0, refusal.size() - suffix.size()));
  }
  EXPECT_EQ(from_spans, attempt.errors);
}

// --- Step 5's nogood memo: a walk that answers repeated refusals from its
// memo is byte-identical to one that asks the servers and the transport. ---

/// Forwards to a real ServerFarm without being one, so a manager over it
/// must bypass the memo.
class ForwardingFarm final : public ServerProvider {
 public:
  explicit ForwardingFarm(ServerProvider& inner) : inner_(&inner) {}
  StreamServer* find_server(const ServerId& id) override { return inner_->find_server(id); }

 private:
  ServerProvider* inner_;
};

/// Forwards to a real TransportService without being one.
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

std::string stats_image(const CommitStats& s) {
  std::ostringstream os;
  os << std::setprecision(17) << "attempts=" << s.attempts << " retries=" << s.retries
     << " transient=" << s.transient_failures << " permanent=" << s.permanent_failures
     << " released=" << s.released_on_failure << " backoff_ms=" << s.backoff_ms;
  return os.str();
}

/// Every annotation of the trace's commit-attempt spans, in begin order.
std::string attempt_spans_image(const NegotiationTrace& trace) {
  std::string image;
  for (const Span& span : trace.spans()) {
    if (span.stage != Stage::kCommitAttempt) continue;
    image += "span";
    for (const SpanAttr& a : span.attrs) image += " " + std::string(a.key) + "=" + a.value;
    image += '\n';
  }
  return image;
}

/// nogood_hits summed over the trace's commit-walk spans.
std::uint64_t nogood_hits(const NegotiationTrace& trace) {
  std::uint64_t hits = 0;
  for (const Span& span : trace.spans()) {
    if (span.stage == Stage::kCommitWalk) hits += std::stoull(std::string(span.attr("nogood_hits")));
  }
  return hits;
}

/// The shared fixture, scarce enough that walks refuse at servers and links
/// alike, with one manager over it that either answers from the memo or,
/// through the forwarding wrappers, is forced to bypass it.
struct MemoStack {
  explicit MemoStack(bool bypass, NegotiationConfig config = {})
      : sys(20'000'000, 200'000'000, 14'000'000, 6), farm(sys.farm), transport(*sys.transport),
        manager(sys.catalog, bypass ? static_cast<ServerProvider&>(farm) : sys.farm,
                bypass ? static_cast<TransportProvider&>(transport) : *sys.transport,
                CostModel{}, std::move(config)) {}

  TestSystem sys;
  ForwardingFarm farm;
  ForwardingTransport transport;
  QoSManager manager;
};

/// Everything a walk sequence exposes — results, CommitAttempts and the
/// commit-attempt spans — for a congesting run of requests that keeps most
/// commitments held.
struct WalkLog {
  std::vector<std::string> lines;
  std::uint64_t nogood_hits = 0;
  int failed_walks = 0;
};

WalkLog run_congesting_sequence(MemoStack& stack) {
  WalkLog log;
  UserProfile tolerant = TestSystem::tolerant_profile();
  UserProfile cheap = tolerant;
  cheap.mm.cost.max_cost = Money::dollars(2);
  std::deque<NegotiationResult> held;
  for (int step = 0; step < 24; ++step) {
    const UserProfile& profile = step % 3 == 2 ? cheap : tolerant;
    NegotiationTrace trace(static_cast<std::uint64_t>(step));
    NegotiationRequest request = make_negotiation_request(stack.sys.client, "article", profile);
    request.trace = TraceContext(&trace);
    NegotiationResult result = stack.manager.negotiate(request);
    log.lines.push_back(result_signature(result) + stats_image(result.commit_stats) + "\n" +
                        attempt_spans_image(trace));
    log.nogood_hits += nogood_hits(trace);

    // Walk the same list again, directly, past the committed offer.
    NegotiationTrace again(100 + static_cast<std::uint64_t>(step));
    std::vector<std::size_t> exclude;
    if (result.has_commitment()) exclude.push_back(result.committed_index);
    CommitAttempt attempt = stack.manager.commit_first(stack.sys.client, result.offers, profile.mm,
                                                       exclude, TraceContext(&again));
    std::string line = "index=" + std::to_string(attempt.index) +
                       " transient=" + std::to_string(attempt.saw_transient) + " " +
                       stats_image(attempt.stats) + "\n";
    for (const std::string& e : attempt.errors) line += e + "\n";
    log.lines.push_back(line + attempt_spans_image(again));
    log.nogood_hits += nogood_hits(again);
    if (!attempt.ok()) ++log.failed_walks;

    held.push_back(std::move(result));
    if (step % 4 == 3) held.pop_front();  // free some capacity again
  }
  return log;
}

TEST(QoSManagerNogoodMemo, MemoWalkIsByteIdenticalToBypassedWalk) {
  MemoStack memo(/*bypass=*/false);
  MemoStack bypass(/*bypass=*/true);
  const WalkLog with_memo = run_congesting_sequence(memo);
  const WalkLog without = run_congesting_sequence(bypass);
  ASSERT_EQ(with_memo.lines.size(), without.lines.size());
  for (std::size_t i = 0; i < with_memo.lines.size(); ++i) {
    EXPECT_EQ(with_memo.lines[i], without.lines[i]) << "walk " << i;
  }
  // Not vacuous: the memo answered offers, and walks both failed and committed.
  EXPECT_GT(with_memo.nogood_hits, 0u);
  EXPECT_EQ(without.nogood_hits, 0u);
  EXPECT_GT(with_memo.failed_walks, 0);
  EXPECT_LT(with_memo.failed_walks, 24);
}

/// NegotiationClient decorator tracing every negotiate call and summing the
/// walks' nogood hits.
class HitCountingClient final : public NegotiationClient {
 public:
  explicit HitCountingClient(NegotiationClient& inner) : inner_(&inner) {}
  NegotiationResult negotiate(NegotiationRequest request, double sim_now_s) override {
    NegotiationTrace trace(request.id);
    request.trace = TraceContext(&trace);
    NegotiationResult result = inner_->negotiate(std::move(request), sim_now_s);
    hits += nogood_hits(trace);
    return result;
  }
  SessionManager& sessions() override { return inner_->sessions(); }
  double session_now_s(double sim_now_s) const override {
    return inner_->session_now_s(sim_now_s);
  }
  PolicyEngine* policy() override { return inner_->policy(); }

  std::uint64_t hits = 0;

 private:
  NegotiationClient* inner_;
};

/// A small congested mixed-class population with preemption and upgrade
/// scans, so the walks of negotiate, adapt, preempt_degrade and try_upgrade
/// all run. Returns the signature; `hits` receives the memo's answers.
std::string congested_population_signature(std::uint64_t seed, bool bypass,
                                           std::uint64_t& hits) {
  Catalog catalog;
  CorpusConfig corpus;
  corpus.seed = 7;
  corpus.num_documents = 4;
  corpus.min_duration_s = 30.0;
  corpus.max_duration_s = 90.0;
  corpus.replication_probability = 0.5;
  for (MultimediaDocument& doc : generate_corpus(corpus)) catalog.add(std::move(doc));
  ClassHeadroom headroom;
  headroom.fraction = {0.30, 0.15, 0.0};
  TransportService transport(Topology::dumbbell(3, 2, 300'000'000, 150'000'000));
  transport.set_class_headroom(headroom);
  ServerFarm farm;
  for (int i = 0; i < 2; ++i) {
    MediaServerConfig server;
    server.id = i == 0 ? "server-a" : "server-b";
    server.node = "server-node-" + std::to_string(i);
    server.disk_bandwidth_bps = 60'000'000;
    server.max_sessions = 24;
    server.headroom = headroom;
    farm.add(std::move(server));
  }
  ForwardingFarm forwarding_farm(farm);
  ForwardingTransport forwarding_transport(transport);
  QoSManager manager(catalog, bypass ? static_cast<ServerProvider&>(forwarding_farm) : farm,
                     bypass ? static_cast<TransportProvider&>(forwarding_transport) : transport);
  SessionManager sessions(manager);
  PreemptionPolicy preemption;
  preemption.enabled = true;
  PolicyEngine policy(manager, sessions, preemption);
  LocalClient client(manager, sessions);
  client.set_policy(&policy);
  HitCountingClient counting(client);

  PopulationConfig config;
  config.classes = standard_population();
  for (std::size_t i = 0; i < config.classes.size(); ++i) {
    config.classes[i].machine.node = "client-" + std::to_string(i);
    config.classes[i].arrival_rate_per_s *= 2.6;
    config.classes[i].violation_rate_per_s = 0.05;
  }
  config.duration_s = 120.0;
  config.seed = seed;
  config.upgrade_scan_interval_s = 5.0;
  const PopulationMetrics metrics = Population(config, counting, catalog.list()).run();
  EXPECT_TRUE(metrics.conserved()) << metrics.signature();
  hits = counting.hits;
  return metrics.signature();
}

TEST(QoSManagerNogoodMemo, CongestedPopulationSignatureIsUnchangedByTheMemo) {
  for (std::uint64_t seed : {3u, 11u}) {
    std::uint64_t memo_hits = 0;
    std::uint64_t bypass_hits = 0;
    const std::string with_memo = congested_population_signature(seed, false, memo_hits);
    const std::string without = congested_population_signature(seed, true, bypass_hits);
    EXPECT_EQ(with_memo, without) << "seed " << seed;
    EXPECT_GT(memo_hits, 0u) << "seed " << seed;
    EXPECT_EQ(bypass_hits, 0u) << "seed " << seed;
  }
}

// --- The memo is bypassed wherever a refusal is not a pure function of the
// ledger state and the refused prefix. ---

TEST(QoSManagerNogoodMemo, FaultInjectedWalkRetriesARefusedPrefix) {
  TestSystem sys;
  QoSManager lister(sys.catalog, sys.farm, *sys.transport, CostModel{}, eager_config());
  const UserProfile profile = TestSystem::tolerant_profile();
  NegotiationResult listed =
      lister.negotiate(make_negotiation_request(sys.client, "article", profile));
  ASSERT_TRUE(listed.has_commitment());
  listed.commitment.release();
  const std::vector<SystemOffer>& offers = listed.offers.offers;
  ASSERT_EQ(listed.committed_index, 0u);
  // The next offer sharing offer 0's first variant; every other offer is
  // excluded, so the walk tries exactly these two.
  std::size_t twin = 1;
  while (twin < offers.size() &&
         offers[twin].components.front().variant != offers[0].components.front().variant) {
    ++twin;
  }
  ASSERT_LT(twin, offers.size());
  std::vector<std::size_t> exclude;
  for (std::size_t i = 1; i < offers.size(); ++i) {
    if (i != twin) exclude.push_back(i);
  }

  // One-shot fault: the first admission at offer 0's first server refuses.
  FaultPlan plan;
  FaultSpec once;
  once.outage_after_events = 0;
  once.outage_length_events = 1;
  plan.per_server[offers[0].components.front().variant->server] = once;
  FaultyServerFarm faulty(sys.farm, plan);
  QoSManager manager(sys.catalog, faulty, *sys.transport, CostModel{}, eager_config());
  NegotiationTrace trace(1);
  CommitAttempt attempt = manager.commit_first(sys.client, listed.offers, profile.mm, exclude,
                                               TraceContext(&trace));
  ASSERT_TRUE(attempt.ok());
  EXPECT_EQ(attempt.index, twin);
  EXPECT_EQ(attempt.stats.attempts, 2);
  EXPECT_EQ(attempt.stats.transient_failures, 1);
  EXPECT_EQ(nogood_hits(trace), 0u);
}

/// A walk with no memo in it at all: a fresh committer over the offers in
/// the procedure's walk order (satisfying offers first, then the rest).
CommitStats unmemoised_walk(TestSystem& sys, const OfferList& offers, const MMProfile& mm,
                            RetryPolicy retry) {
  ResourceCommitter committer(sys.farm, *sys.transport, retry);
  for (int pass = 0; pass < 2; ++pass) {
    for (const SystemOffer& offer : offers.offers) {
      if (satisfies_user(offer, mm) != (pass == 0)) continue;
      EXPECT_FALSE(committer.commit(sys.client, offer).ok());
    }
  }
  return committer.stats();
}

TEST(QoSManagerNogoodMemo, RetriedWalkDrawsEveryJitteredBackoff) {
  TestSystem sys(50'000'000, 200'000'000, 100'000'000, /*server_sessions=*/0);
  NegotiationConfig config = eager_config();
  config.retry.max_attempts = 3;
  config.retry.jitter = 0.5;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport, CostModel{}, config);
  const UserProfile profile = TestSystem::tolerant_profile();
  NegotiationTrace trace(1);
  NegotiationRequest request = make_negotiation_request(sys.client, "article", profile);
  request.trace = TraceContext(&trace);
  NegotiationResult result = manager.negotiate(request);
  ASSERT_EQ(result.verdict, NegotiationStatus::kFailedTryLater);
  EXPECT_EQ(nogood_hits(trace), 0u);

  const CommitStats expected = unmemoised_walk(sys, result.offers, profile.mm, config.retry);
  EXPECT_EQ(stats_image(result.commit_stats), stats_image(expected));
  EXPECT_EQ(result.commit_stats.attempts,
            3 * static_cast<int>(result.offers.offers.size()));
  EXPECT_GT(result.commit_stats.backoff_ms, 0.0);
}

/// Counts commit_once calls, otherwise the base committer.
class CountingCommitter final : public ResourceCommitter {
 public:
  CountingCommitter(ServerProvider& farm, TransportProvider& transport, RetryPolicy retry,
                    SessionClass cls, int& calls)
      : ResourceCommitter(farm, transport, retry, cls), calls_(&calls) {}

 protected:
  Result<Commitment, Refusal> commit_once(const ClientMachine& client, const SystemOffer& offer,
                                          CommitStats& stats) override {
    ++*calls_;
    return ResourceCommitter::commit_once(client, offer, stats);
  }

 private:
  int* calls_;
};

TEST(QoSManagerNogoodMemo, CustomCommitterSeesEveryExaminedOffer) {
  TestSystem sys(50'000'000, 200'000'000, 100'000'000, /*server_sessions=*/0);
  int calls = 0;
  NegotiationConfig config = eager_config();
  config.committer_factory = [&](const RetryPolicy& retry, SessionClass cls) {
    return std::make_unique<CountingCommitter>(sys.farm, *sys.transport, retry, cls, calls);
  };
  QoSManager manager(sys.catalog, sys.farm, *sys.transport, CostModel{}, config);
  const UserProfile profile = TestSystem::tolerant_profile();
  NegotiationTrace trace(1);
  NegotiationRequest request = make_negotiation_request(sys.client, "article", profile);
  request.trace = TraceContext(&trace);
  NegotiationResult result = manager.negotiate(request);
  ASSERT_EQ(result.verdict, NegotiationStatus::kFailedTryLater);
  EXPECT_EQ(calls, static_cast<int>(result.offers.offers.size()));
  EXPECT_EQ(result.commit_stats.attempts, calls);
  EXPECT_EQ(nogood_hits(trace), 0u);
}

}  // namespace
}  // namespace qosnp
