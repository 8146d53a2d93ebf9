// qosnpd: the negotiation service as a standalone network daemon. Stands up
// the full stack — synthetic news corpus, media-server farm behind a
// dumbbell network, QoSManager -> SessionManager -> NegotiationService —
// and serves the qosnp wire protocol (docs/WIRE.md) on a TCP port until
// SIGINT/SIGTERM, then prints the Prometheus-style metrics text.
//
// Run:  ./examples/qosnpd [--port N] [--workers N] [--documents N]
//                         [--rtt-ms X] [--max-connections N] [--seed N]
// Talk to it with WireClient (src/netio/client.hpp), e.g. from
// bench_e19_wire or the loopback tests.
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "core/qos_manager.hpp"
#include "document/catalog.hpp"
#include "document/corpus.hpp"
#include "netio/server.hpp"
#include "server/media_server.hpp"
#include "service/negotiation_service.hpp"
#include "session/session.hpp"

using namespace qosnp;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--port N] [--workers N] [--documents N] [--rtt-ms X]"
               " [--max-connections N] [--idle-timeout-ms X] [--seed N]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 4747;
  std::size_t workers = 8;
  int documents = 24;
  double rtt_ms = 0.0;
  std::size_t max_connections = 256;
  double idle_timeout_ms = 0.0;
  std::uint64_t seed = 42;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--port") port = static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 10));
    else if (arg == "--workers") workers = std::strtoul(next(), nullptr, 10);
    else if (arg == "--documents") documents = static_cast<int>(std::strtol(next(), nullptr, 10));
    else if (arg == "--rtt-ms") rtt_ms = std::strtod(next(), nullptr);
    else if (arg == "--max-connections") max_connections = std::strtoul(next(), nullptr, 10);
    else if (arg == "--idle-timeout-ms") idle_timeout_ms = std::strtod(next(), nullptr);
    else if (arg == "--seed") seed = std::strtoull(next(), nullptr, 10);
    else usage(argv[0]);
  }

  // Content + infrastructure: the news-on-demand deployment in one process.
  CorpusConfig corpus;
  corpus.num_documents = documents;
  corpus.seed = seed;
  corpus.servers = {"server-a", "server-b"};
  Catalog catalog;
  for (auto& doc : generate_corpus(corpus)) catalog.add(std::move(doc));

  TransportService transport(
      Topology::dumbbell(/*clients=*/64, /*servers=*/2, 100'000'000, 1'000'000'000));
  ServerFarm farm;
  for (int i = 0; i < 2; ++i) {
    MediaServerConfig server;
    server.id = i == 0 ? "server-a" : "server-b";
    server.node = "server-node-" + std::to_string(i);
    server.disk_bandwidth_bps = 1'000'000'000;
    server.max_sessions = 4096;
    farm.add(std::move(server));
  }

  QoSManager manager(catalog, farm, transport);
  SessionManager sessions(manager);

  ServiceConfig service_config;
  service_config.workers = workers;
  service_config.simulated_rtt_ms = rtt_ms;
  NegotiationService service(manager, sessions, service_config);
  service.start();

  WireServerConfig net_config;
  net_config.port = port;
  net_config.max_connections = max_connections;
  net_config.idle_timeout_ms = idle_timeout_ms;
  WireServer server(service, net_config);
  server.start();

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  std::cout << "qosnpd listening on " << net_config.bind_address << ':' << server.port()
            << "  (" << catalog.size() << " documents, " << workers
            << " event loops; Ctrl-C to stop)\n";
  std::cout.flush();

  while (!g_stop) {
    timespec nap{0, 100'000'000};  // 100ms; signals interrupt the sleep
    nanosleep(&nap, nullptr);
    // Finished sessions leave a small record each; drop them so a
    // long-running node's memory tracks its live sessions.
    sessions.prune_finished();
  }

  std::cout << "\nshutting down...\n";
  server.stop();
  service.stop();

  std::cout << "\n--- qosnp_net_* / service metrics at shutdown ---\n"
            << service.metrics().expose()
            << "net accounting " << (server.net().balanced() ? "balanced" : "IMBALANCED")
            << '\n';
  return server.net().balanced() ? 0 : 1;
}
