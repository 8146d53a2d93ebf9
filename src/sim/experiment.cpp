#include "sim/experiment.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>

#include "baseline/negotiators.hpp"
#include "fault/fault_injector.hpp"
#include "sim/event_queue.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace qosnp {

std::string_view to_string(Strategy strategy) {
  switch (strategy) {
    case Strategy::kSmart: return "smart";
    case Strategy::kBasic: return "basic";
    case Strategy::kCostOnly: return "cost-only";
    case Strategy::kQoSOnly: return "qos-only";
  }
  return "?";
}

std::string SimMetrics::summary() const {
  std::ostringstream os;
  os << "arrivals=" << arrivals << " succeeded=" << count(NegotiationStatus::kSucceeded)
     << " with-offer=" << count(NegotiationStatus::kFailedWithOffer)
     << " try-later=" << count(NegotiationStatus::kFailedTryLater)
     << " without-offer=" << count(NegotiationStatus::kFailedWithoutOffer)
     << " local-offer=" << count(NegotiationStatus::kFailedWithLocalOffer)
     << " completed=" << completed << " aborted=" << aborted << " adaptations=" << adaptations
     << "/" << (adaptations + failed_adaptations) << " commit-attempts=" << commit_attempts
     << " retries=" << commit_retries << " transient-failures=" << transient_failures
     << " revenue=" << revenue.to_string();
  return os.str();
}

std::vector<UserProfile> standard_profile_mix() {
  return {demanding_user_profile(), typical_user_profile(), thrifty_user_profile()};
}

namespace {

ClientMachine make_client(int index, bool limited) {
  ClientMachine c;
  c.name = "client-" + std::to_string(index);
  c.node = c.name;
  if (limited) {
    c.screen = ScreenSpec{640, 480, ColorDepth::kGray};
    c.decoders = {CodingFormat::kMPEG1, CodingFormat::kPCM, CodingFormat::kPlainText,
                  CodingFormat::kJPEG};
    c.max_audio = AudioQuality::kRadio;
  } else {
    c.screen = ScreenSpec{1920, 1080, ColorDepth::kSuperColor};
    c.decoders = {CodingFormat::kMPEG1, CodingFormat::kMPEG2,     CodingFormat::kMJPEG,
                  CodingFormat::kH261,  CodingFormat::kPCM,       CodingFormat::kADPCM,
                  CodingFormat::kMPEGAudio, CodingFormat::kPlainText, CodingFormat::kHTML,
                  CodingFormat::kJPEG,  CodingFormat::kGIF,       CodingFormat::kTIFF};
    c.max_audio = AudioQuality::kCD;
  }
  return c;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  Rng rng(config.seed);
  SimMetrics metrics;

  // --- Assemble the system. ---------------------------------------------
  Catalog catalog;
  const auto docs = generate_corpus(config.corpus);
  for (const auto& doc : docs) {
    const auto problems = catalog.add(doc);
    if (!problems.empty()) {
      QOSNP_LOG_ERROR("experiment", "generated document rejected: ", problems.front());
    }
  }
  std::vector<DocumentId> doc_ids = catalog.list();

  const int num_servers = static_cast<int>(config.corpus.servers.size());
  Topology topology =
      config.dual_backbone
          ? Topology::dual_backbone(config.num_clients, num_servers, config.access_bps,
                                    config.backbone_bps)
          : Topology::dumbbell(config.num_clients, num_servers, config.access_bps,
                               config.backbone_bps);
  TransportService transport(std::move(topology));

  ServerFarm farm;
  for (int i = 0; i < num_servers; ++i) {
    MediaServerConfig server;
    server.id = config.corpus.servers[static_cast<std::size_t>(i)];
    server.node = "server-node-" + std::to_string(i);
    server.disk_bandwidth_bps = config.server_disk_bps;
    farm.add(std::move(server));
  }

  std::vector<ClientMachine> clients;
  clients.reserve(static_cast<std::size_t>(config.num_clients));
  for (int i = 0; i < config.num_clients; ++i) {
    const bool limited =
        rng.uniform() < config.limited_client_fraction;
    clients.push_back(make_client(i, limited));
  }

  // Optionally interpose the fault-injecting decorators; the negotiation
  // stack only ever sees the abstract provider surfaces.
  std::optional<FaultyServerFarm> faulty_farm;
  std::optional<FaultyTransportProvider> faulty_transport;
  ServerProvider* server_provider = &farm;
  TransportProvider* transport_provider = &transport;
  if (config.fault_injection) {
    faulty_farm.emplace(farm, config.faults);
    faulty_transport.emplace(transport, config.faults);
    server_provider = &*faulty_farm;
    transport_provider = &*faulty_transport;
  }

  NegotiationConfig nego_config;
  nego_config.retry = config.retry;
  auto qos_manager = std::make_unique<QoSManager>(catalog, *server_provider,
                                                  *transport_provider, CostModel{}, nego_config);

  std::unique_ptr<Negotiator> negotiator;
  switch (config.strategy) {
    case Strategy::kSmart:
      negotiator = std::make_unique<SmartNegotiator>(*qos_manager);
      break;
    case Strategy::kBasic:
      negotiator = std::make_unique<BasicNegotiator>(catalog, *server_provider,
                                                     *transport_provider, CostModel{},
                                                     config.retry);
      break;
    case Strategy::kCostOnly:
      negotiator = std::make_unique<CostOnlyNegotiator>(catalog, *server_provider,
                                                        *transport_provider, CostModel{},
                                                        config.retry);
      break;
    case Strategy::kQoSOnly:
      negotiator = std::make_unique<QoSOnlyNegotiator>(catalog, *server_provider,
                                                       *transport_provider, CostModel{},
                                                       config.retry);
      break;
  }

  SessionManager sessions(*qos_manager, config.adaptation);
  EventQueue queue;

  const std::vector<UserProfile> profiles =
      config.profiles.empty() ? standard_profile_mix() : config.profiles;

  // --- Event handlers. ----------------------------------------------------
  auto handle_violation = [&](SessionId session_id) {
    metrics.violations += 1;
    if (!config.adaptation_enabled) {
      sessions.abort(session_id, "QoS violation (adaptation disabled)");
      metrics.aborted += 1;
      return;
    }
    TransitionResult result = sessions.adapt(session_id, queue.now());
    if (result.moved) {
      metrics.adaptations += 1;
      metrics.total_interruption_s += result.interruption_s;
    } else {
      metrics.failed_adaptations += 1;
      metrics.aborted += 1;
    }
  };

  std::function<void()> schedule_next_arrival = [&] {
    const double gap = rng.exponential(config.arrival_rate_per_s);
    const double at = queue.now() + gap;
    if (at > config.sim_duration_s) return;
    queue.schedule_at(at, [&] {
      schedule_next_arrival();
      metrics.arrivals += 1;
      const ClientMachine& client = clients[rng.below(clients.size())];
      const DocumentId& doc_id = doc_ids[rng.below(doc_ids.size())];
      const UserProfile& profile = profiles[rng.below(profiles.size())];

      NegotiationResult outcome =
          negotiator->negotiate(make_negotiation_request(client, doc_id, profile));
      metrics.record(outcome.verdict);
      metrics.commit_attempts += static_cast<std::size_t>(outcome.commit_stats.attempts);
      metrics.commit_retries += static_cast<std::size_t>(outcome.commit_stats.retries);
      metrics.transient_failures +=
          static_cast<std::size_t>(outcome.commit_stats.transient_failures);
      metrics.released_on_failure +=
          static_cast<std::size_t>(outcome.commit_stats.released_on_failure);

      if (!outcome.has_commitment()) return;

      const bool accept = rng.chance(config.confirm_probability);
      auto opened = sessions.open(client, profile, std::move(outcome), queue.now());
      if (!opened.ok()) return;
      const SessionId session_id = opened.value();

      queue.schedule_in(config.confirm_delay_s, [&, session_id, accept] {
        if (!accept) {
          if (sessions.reject(session_id)) metrics.rejected_by_user += 1;
          return;
        }
        auto confirmed = sessions.confirm(session_id, queue.now());
        if (!confirmed.ok()) {
          metrics.confirm_timeouts += 1;
          return;
        }
        metrics.confirmed += 1;
        const auto view = sessions.snapshot(session_id);
        // The user watches the whole document.
        const double watched = std::max(1.0, view ? view->duration_s : 0.0);
        queue.schedule_in(watched, [&, session_id, watched] {
          auto v = sessions.snapshot(session_id);
          if (!v || v->state != SessionState::kPlaying) return;  // adapted away or aborted
          sessions.advance(session_id, watched);
          auto done = sessions.snapshot(session_id);
          if (done && done->state == SessionState::kPlaying) sessions.complete(session_id);
          metrics.completed += 1;
          metrics.revenue += done ? done->stats.charged : Money{};
        });
      });
    });
  };
  schedule_next_arrival();

  // Congestion episodes on random links. (The recursive std::functions must
  // outlive the event queue's run, hence function scope.)
  std::function<void()> schedule_congestion;
  std::function<void()> schedule_failure;
  if (config.congestion_rate_per_s > 0.0) {
    schedule_congestion = [&] {
      const double at = queue.now() + rng.exponential(config.congestion_rate_per_s);
      if (at > config.sim_duration_s) return;
      queue.schedule_at(at, [&] {
        schedule_congestion();
        const std::size_t link = rng.below(transport.topology().link_count());
        const auto victims = transport.degrade_link(link, config.congestion_severity);
        for (FlowId flow : victims) {
          for (SessionId sid : sessions.sessions_using_flow(flow)) handle_violation(sid);
        }
        queue.schedule_in(config.congestion_duration_s, [&, link] {
          transport.restore_link(link);
        });
      });
    };
    schedule_congestion();
  }

  // Server failures.
  if (config.server_failure_rate_per_s > 0.0) {
    schedule_failure = [&] {
      const double at = queue.now() + rng.exponential(config.server_failure_rate_per_s);
      if (at > config.sim_duration_s) return;
      queue.schedule_at(at, [&] {
        schedule_failure();
        const ServerId victim =
            config.corpus.servers[rng.below(config.corpus.servers.size())];
        MediaServer* server = farm.find(victim);
        if (server == nullptr || server->failed()) return;
        const auto affected = sessions.sessions_on_server(victim);
        server->fail();
        for (SessionId sid : affected) handle_violation(sid);
        queue.schedule_in(config.server_repair_s, [&, victim] {
          if (MediaServer* s = farm.find(victim)) s->recover();
        });
      });
    };
    schedule_failure();
  }

  // Utilisation sampling.
  std::function<void()> sample_utilization = [&] {
    if (queue.now() >= config.sim_duration_s) return;
    queue.schedule_in(25.0, [&] {
      metrics.utilization_sum += transport.mean_utilization();
      metrics.utilization_samples += 1;
      sample_utilization();
    });
  };
  sample_utilization();

  queue.run_all();

  ExperimentResult result;
  result.metrics = metrics;
  result.duration_s = queue.now();
  result.strategy = std::string(to_string(config.strategy));
  return result;
}

}  // namespace qosnp
