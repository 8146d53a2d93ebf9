#include "sim/population.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <utility>

#include "util/log.hpp"
#include "util/validate.hpp"

namespace qosnp {

double DiurnalCurve::factor(double t_s) const {
  if (amplitude <= 0.0) return 1.0;
  constexpr double kTau = 6.283185307179586476925287;
  return 1.0 + amplitude * std::cos(kTau * (t_s - peak_at_s) / period_s);
}

std::vector<ClientClass> standard_population() {
  std::vector<ClientClass> classes;

  ClientClass mobile;
  mobile.name = "cheap-mobile";
  mobile.machine.name = "mobile";
  mobile.machine.screen = ScreenSpec{640, 360, ColorDepth::kGray};
  mobile.machine.decoders = {CodingFormat::kMPEG1, CodingFormat::kPCM, CodingFormat::kPlainText,
                             CodingFormat::kJPEG};
  mobile.machine.max_audio = AudioQuality::kRadio;
  mobile.profile = thrifty_user_profile();
  mobile.session_class = SessionClass::kBestEffort;
  mobile.arrival_rate_per_s = 0.5;
  mobile.mean_think_s = 3.0;
  mobile.abandon_rate_per_s = 1.0 / 20.0;  // impatient: mean 20s to walk away
  mobile.accept_degraded_p = 0.9;
  mobile.watch_fraction = 0.35;
  classes.push_back(std::move(mobile));

  ClientClass desktop;
  desktop.name = "standard-desktop";
  desktop.machine.name = "desktop";
  desktop.machine.screen = ScreenSpec{1280, 720, ColorDepth::kColor};
  desktop.machine.decoders = {CodingFormat::kMPEG1,     CodingFormat::kMPEG2,
                              CodingFormat::kMJPEG,     CodingFormat::kPCM,
                              CodingFormat::kADPCM,     CodingFormat::kMPEGAudio,
                              CodingFormat::kPlainText, CodingFormat::kJPEG,
                              CodingFormat::kGIF};
  desktop.machine.max_audio = AudioQuality::kCD;
  desktop.profile = typical_user_profile();
  desktop.session_class = SessionClass::kStandard;
  desktop.arrival_rate_per_s = 0.35;
  desktop.mean_think_s = 5.0;
  desktop.abandon_rate_per_s = 1.0 / 60.0;
  desktop.accept_degraded_p = 0.7;
  desktop.watch_fraction = 0.7;
  classes.push_back(std::move(desktop));

  ClientClass premium;
  premium.name = "premium";
  premium.machine.name = "premium";
  premium.machine.screen = ScreenSpec{1920, 1080, ColorDepth::kSuperColor};
  premium.machine.decoders = {CodingFormat::kMPEG1,     CodingFormat::kMPEG2,
                              CodingFormat::kMJPEG,     CodingFormat::kH261,
                              CodingFormat::kPCM,       CodingFormat::kADPCM,
                              CodingFormat::kMPEGAudio, CodingFormat::kPlainText,
                              CodingFormat::kHTML,      CodingFormat::kJPEG,
                              CodingFormat::kGIF,       CodingFormat::kTIFF};
  premium.machine.max_audio = AudioQuality::kCD;
  premium.profile = demanding_user_profile();
  premium.session_class = SessionClass::kPremium;
  premium.arrival_rate_per_s = 0.15;
  premium.mean_think_s = 8.0;
  premium.abandon_rate_per_s = 0.0;  // patient, but...
  premium.accept_degraded_p = 0.3;   // ...walks away from degraded offers
  premium.watch_fraction = 0.9;
  classes.push_back(std::move(premium));

  return classes;
}

void ClassCounts::add(const ClassCounts& other) {
  arrivals += other.arrivals;
  admitted += other.admitted;
  shed += other.shed;
  refused += other.refused;
  abandoned += other.abandoned;
  confirm_timeouts += other.confirm_timeouts;
  completed += other.completed;
  preempt_released += other.preempt_released;
  policy_preempted += other.policy_preempted;
  policy_degraded += other.policy_degraded;
  upgrades += other.upgrades;
  violations += other.violations;
  adaptations += other.adaptations;
  failed_adaptations += other.failed_adaptations;
  interruption_s += other.interruption_s;
}

ClassCounts PopulationMetrics::totals() const {
  ClassCounts total;
  for (const ClassCounts& c : by_class) total.add(c);
  return total;
}

bool PopulationMetrics::conserved() const {
  for (const ClassCounts& c : by_class) {
    if (!c.conserved()) return false;
  }
  return true;
}

std::string PopulationMetrics::signature() const {
  std::ostringstream os;
  os << std::setprecision(17);
  for (std::size_t i = 0; i < by_class.size(); ++i) {
    const ClassCounts& c = by_class[i];
    os << (i < class_names.size() ? class_names[i] : "?") << ": arrivals=" << c.arrivals
       << " admitted=" << c.admitted << " shed=" << c.shed << " refused=" << c.refused
       << " abandoned=" << c.abandoned << " confirm_timeouts=" << c.confirm_timeouts
       << " completed=" << c.completed << " preempt_released=" << c.preempt_released
       << " policy_preempted=" << c.policy_preempted
       << " policy_degraded=" << c.policy_degraded << " upgrades=" << c.upgrades
       << " violations=" << c.violations << " adaptations=" << c.adaptations
       << " failed_adaptations=" << c.failed_adaptations
       << " interruption_s=" << c.interruption_s << '\n';
  }
  return os.str();
}

double PopulationMetrics::shed_rate() const {
  const ClassCounts t = totals();
  return t.arrivals == 0 ? 0.0
                         : static_cast<double>(t.shed) / static_cast<double>(t.arrivals);
}

double PopulationMetrics::admission_rate() const {
  const ClassCounts t = totals();
  return t.arrivals == 0 ? 0.0
                         : static_cast<double>(t.admitted) / static_cast<double>(t.arrivals);
}

double PopulationMetrics::adaptation_success_rate() const {
  const ClassCounts t = totals();
  const std::uint64_t attempts = t.adaptations + t.failed_adaptations;
  return attempts == 0 ? 1.0
                       : static_cast<double>(t.adaptations) / static_cast<double>(attempts);
}

UserDraws draw_user(const ClientClass& cls, Rng& rng, std::span<const DocumentId> documents) {
  UserDraws draws;
  draws.document = documents[rng.below(documents.size())];
  draws.accept_degraded = rng.chance(cls.accept_degraded_p);
  draws.think_s = rng.exponential(1.0 / std::max(cls.mean_think_s, 1e-9));
  draws.abandon_s = cls.abandon_rate_per_s > 0.0
                        ? rng.exponential(cls.abandon_rate_per_s)
                        : std::numeric_limits<double>::infinity();
  return draws;
}

PopulationConfig PopulationConfig::validated(PopulationConfig config) {
  require_config(!config.classes.empty(), "PopulationConfig", "no client classes");
  require_config(config.duration_s > 0.0, "PopulationConfig", "non-positive duration");
  require_config(config.prune_interval_s >= 0.0, "PopulationConfig",
                 "negative prune interval");
  require_config(config.upgrade_scan_interval_s >= 0.0, "PopulationConfig",
                 "negative upgrade scan interval");
  for (const ClientClass& cls : config.classes) {
    const std::string who = "class '" + cls.name + "'";
    require_config(cls.arrival_rate_per_s >= 0.0, "PopulationConfig",
                   who + ": negative arrival rate");
    require_config(cls.mean_think_s > 0.0, "PopulationConfig",
                   who + ": non-positive mean think time");
    require_config(cls.abandon_rate_per_s >= 0.0, "PopulationConfig",
                   who + ": negative abandonment rate");
    require_config(cls.accept_degraded_p >= 0.0 && cls.accept_degraded_p <= 1.0,
                   "PopulationConfig", who + ": accept-degraded outside [0, 1]");
    require_config(cls.watch_fraction > 0.0 && cls.watch_fraction <= 1.0, "PopulationConfig",
                   who + ": watch fraction outside (0, 1]");
    require_config(cls.violation_rate_per_s >= 0.0, "PopulationConfig",
                   who + ": negative violation rate");
    require_config(cls.diurnal.amplitude >= 0.0 && cls.diurnal.amplitude <= 1.0,
                   "PopulationConfig", who + ": diurnal amplitude outside [0, 1]");
    require_config(cls.diurnal.period_s > 0.0, "PopulationConfig",
                   who + ": non-positive diurnal period");
  }
  return config;
}

Population::Population(PopulationConfig config, NegotiationClient& client,
                       std::vector<DocumentId> documents)
    : config_(PopulationConfig::validated(std::move(config))),
      client_(&client),
      documents_(std::move(documents)) {
  require_config(!documents_.empty(), "Population", "no documents to request");
}

PopulationMetrics Population::run() {
  queue_ = EventQueue{};
  metrics_ = PopulationMetrics{};
  next_arrival_index_ = 0;
  metrics_.by_class.resize(config_.classes.size());
  arrival_rngs_.clear();
  class_of_session_.clear();
  housekeeping_pending_ = 0;
  // Policy-enabled client: attribute victim/upgrade events to the owning
  // class. A released victim leaves the system outside the population's own
  // lifecycle events, so without this hook the conservation law
  // admitted == completed + preempt_released + policy_preempted would break.
  PolicyEngine* policy = client_->policy();
  if (policy != nullptr) {
    policy->set_victim_observer([this](const VictimEvent& event) {
      auto it = class_of_session_.find(event.session);
      if (it == class_of_session_.end()) return;
      ClassCounts& counts = metrics_.by_class[it->second];
      if (event.action == VictimAction::kReleased) {
        counts.policy_preempted += 1;
        class_of_session_.erase(it);
      } else {
        counts.policy_degraded += 1;
      }
    });
    policy->set_upgrade_observer([this](const UpgradeEvent& event) {
      auto it = class_of_session_.find(event.session);
      if (it == class_of_session_.end()) return;
      metrics_.by_class[it->second].upgrades += 1;
    });
  }
  for (std::size_t i = 0; i < config_.classes.size(); ++i) {
    metrics_.class_names.push_back(config_.classes[i].name);
    // Per-class arrival stream, independent of the per-user streams.
    arrival_rngs_.emplace_back(config_.seed ^ (0xc2b2ae3d27d4eb4fULL * (i + 1)));
    schedule_next_arrival(i);
  }
  schedule_prune();
  if (policy != nullptr) schedule_upgrade_scan();
  queue_.run_all();
  if (policy != nullptr) {
    policy->set_victim_observer({});
    policy->set_upgrade_observer({});
  }
  return metrics_;
}

void Population::schedule_next_arrival(std::size_t class_index) {
  const ClientClass& cls = config_.classes[class_index];
  if (cls.arrival_rate_per_s <= 0.0) return;
  Rng& rng = arrival_rngs_[class_index];
  // Non-homogeneous Poisson by thinning: candidate gaps at the diurnal peak
  // rate, accepted with probability factor(t)/peak_factor.
  const double peak_rate = cls.arrival_rate_per_s * cls.diurnal.peak_factor();
  double t = queue_.now();
  while (true) {
    t += rng.exponential(peak_rate);
    if (t > config_.duration_s) return;
    if (rng.uniform() * cls.diurnal.peak_factor() <= cls.diurnal.factor(t)) break;
  }
  queue_.schedule_at(t, [this, class_index] {
    schedule_next_arrival(class_index);
    arrive(class_index);
  });
}

void Population::arrive(std::size_t class_index) {
  const ClientClass& cls = config_.classes[class_index];
  ClassCounts& counts = metrics_.by_class[class_index];
  counts.arrivals += 1;
  if (config_.arrival_observer) config_.arrival_observer(class_index, queue_.now());

  const std::uint64_t index = next_arrival_index_++;
  Rng rng = user_rng(config_.seed, index);
  const UserDraws draws = draw_user(cls, rng, documents_);

  NegotiationRequest request = make_negotiation_request(cls.machine, draws.document, cls.profile);
  request.id = index + 1;
  request.session_class = cls.session_class;
  request.accept_degraded = draws.accept_degraded;
  request.cache = config_.cache;
  const NegotiationResult result = client_->negotiate(std::move(request), queue_.now());

  switch (result.verdict) {
    case NegotiationStatus::kFailedTryLater:
      counts.shed += 1;  // overload shedding or transient resource refusal
      return;
    case NegotiationStatus::kFailedWithoutOffer:
    case NegotiationStatus::kFailedWithLocalOffer:
      counts.refused += 1;
      return;
    case NegotiationStatus::kSucceeded:
    case NegotiationStatus::kFailedWithOffer:
      break;
  }
  if (result.session_id == 0) {
    // A degraded offer the user declined (or, defensively, an admission
    // failure): the client already released the commitment.
    counts.refused += 1;
    return;
  }

  // Step 6: think time races the abandonment timer and the choicePeriod.
  const SessionId session = result.session_id;
  const double choice_s = cls.profile.mm.time.choice_period_s;
  if (draws.abandon_s < std::min(draws.think_s, choice_s)) {
    queue_.schedule_in(draws.abandon_s, [this, class_index, session] {
      client_->sessions().reject(session);
      metrics_.by_class[class_index].abandoned += 1;
    });
    return;
  }
  if (draws.think_s > choice_s) {
    // The user answers too late: the choicePeriod expires and the resources
    // de-allocate at the deadline (paper Step 6).
    queue_.schedule_in(choice_s, [this, class_index, session] {
      client_->sessions().reject(session);
      ClassCounts& late = metrics_.by_class[class_index];
      late.abandoned += 1;
      late.confirm_timeouts += 1;
    });
    return;
  }
  queue_.schedule_in(draws.think_s, [this, class_index, session, rng] {
    auto confirmed =
        client_->sessions().confirm(session, client_->session_now_s(queue_.now()));
    ClassCounts& c = metrics_.by_class[class_index];
    if (!confirmed.ok()) {
      c.abandoned += 1;
      c.confirm_timeouts += 1;
      return;
    }
    c.admitted += 1;
    class_of_session_[session] = class_index;
    begin_playout(class_index, session, rng);
  });
}

void Population::begin_playout(std::size_t class_index, SessionId session, Rng rng) {
  const ClientClass& cls = config_.classes[class_index];
  const auto view = client_->sessions().snapshot(session);
  const double duration_s = view ? view->duration_s : 0.0;
  const double watched_s = std::max(1.0, duration_s * cls.watch_fraction);
  const double end_at = queue_.now() + watched_s;
  schedule_next_violation(class_index, session, rng, end_at);
  queue_.schedule_at(end_at, [this, class_index, session, watched_s] {
    finish_playout(class_index, session, watched_s);
  });
}

void Population::schedule_next_violation(std::size_t class_index, SessionId session, Rng rng,
                                         double end_at_s) {
  const ClientClass& cls = config_.classes[class_index];
  if (cls.violation_rate_per_s <= 0.0) return;
  const double at = queue_.now() + rng.exponential(cls.violation_rate_per_s);
  if (at >= end_at_s) return;
  queue_.schedule_at(at, [this, class_index, session, rng, end_at_s] {
    const auto view = client_->sessions().snapshot(session);
    if (!view || view->state != SessionState::kPlaying) return;  // already released
    ClassCounts& counts = metrics_.by_class[class_index];
    counts.violations += 1;
    const AdaptationResult adapted =
        client_->sessions().adapt(session, client_->session_now_s(queue_.now()));
    if (adapted.adapted) {
      counts.adaptations += 1;
      counts.interruption_s += adapted.interruption_s;
      schedule_next_violation(class_index, session, rng, end_at_s);
    } else {
      // adapt() aborted the session: no alternate configuration could be
      // committed, the resources are already released.
      counts.failed_adaptations += 1;
      counts.preempt_released += 1;
      class_of_session_.erase(session);
    }
  });
}

void Population::finish_playout(std::size_t class_index, SessionId session, double watched_s) {
  SessionManager& sessions = client_->sessions();
  const auto view = sessions.snapshot(session);
  if (!view || view->state != SessionState::kPlaying) {
    // Released earlier (failed adaptation, or preempted by the policy —
    // both already counted at the releasing event).
    class_of_session_.erase(session);
    return;
  }
  sessions.advance(session, watched_s);
  const auto done = sessions.snapshot(session);
  if (done && done->state == SessionState::kPlaying) sessions.complete(session);
  metrics_.by_class[class_index].completed += 1;
  class_of_session_.erase(session);
}

// Re-schedule condition for the periodic housekeeping events (prune and
// upgrade scan): keep going while arrivals continue or *lifecycle* events
// remain. Pending housekeeping events do not count as lifecycle work — two
// periodic events must not keep each other (or themselves) alive past the
// drain, or run() would never return.
bool Population::keep_housekeeping() const {
  return queue_.now() < config_.duration_s || queue_.pending() > housekeeping_pending_;
}

void Population::schedule_prune() {
  if (config_.prune_interval_s <= 0.0) return;
  housekeeping_pending_ += 1;
  queue_.schedule_in(config_.prune_interval_s, [this] {
    housekeeping_pending_ -= 1;
    client_->sessions().prune_finished();
    if (keep_housekeeping()) schedule_prune();
  });
}

void Population::schedule_upgrade_scan() {
  if (config_.upgrade_scan_interval_s <= 0.0) return;
  housekeeping_pending_ += 1;
  queue_.schedule_in(config_.upgrade_scan_interval_s, [this] {
    housekeeping_pending_ -= 1;
    // On the event loop, not a wall-clock thread: same-seed runs promote
    // the same sessions at the same simulated instants.
    if (PolicyEngine* policy = client_->policy()) policy->run_upgrades();
    if (keep_housekeeping()) schedule_upgrade_scan();
  });
}

}  // namespace qosnp
