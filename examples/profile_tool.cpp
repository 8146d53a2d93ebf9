// profile_tool — the command-line stand-in for the prototype's QoS GUI
// (paper Sec. 8, Figures 3-6). The Motif windows' operations map to
// subcommands operating on a profiles file:
//   main window            -> list, set-default
//   profile windows        -> show, create, edit ("Save"), delete
//   "show example" button  -> try  (negotiates the profile against a
//                             synthetic article and prints the offer the
//                             information window would display)
//
// Usage:
//   profile_tool [-f profiles.txt] list
//   profile_tool [-f profiles.txt] show <name>
//   profile_tool [-f profiles.txt] create <name>
//   profile_tool [-f profiles.txt] edit <name> <key> <value>   (serialize.hpp keys)
//   profile_tool [-f profiles.txt] delete <name>
//   profile_tool [-f profiles.txt] try <name>
#include <iostream>
#include <string>
#include <vector>

#include "core/qos_manager.hpp"
#include "document/corpus.hpp"
#include "profile/profile_manager.hpp"
#include "profile/serialize.hpp"
#include "server/media_server.hpp"

using namespace qosnp;

namespace {

int usage() {
  std::cerr << "usage: profile_tool [-f file] {list|show|create|edit|delete|try} [args]\n";
  return 2;
}

int cmd_try(const UserProfile& profile) {
  // Negotiate against a small synthetic system, as the GUI's "show example"
  // played a stored example matching the current profile.
  CorpusConfig corpus;
  corpus.num_documents = 6;
  corpus.seed = 7;
  Catalog catalog;
  for (auto& doc : generate_corpus(corpus)) catalog.add(std::move(doc));
  TransportService transport(Topology::dumbbell(1, 2, 30'000'000, 100'000'000));
  ServerFarm farm;
  farm.add(MediaServerConfig{"server-a", "server-node-0", 80'000'000, 16, {}});
  farm.add(MediaServerConfig{"server-b", "server-node-1", 80'000'000, 16, {}});
  ClientMachine client;
  client.name = "example-client";
  client.node = "client-0";
  client.decoders = {CodingFormat::kMPEG1,     CodingFormat::kMPEG2, CodingFormat::kMJPEG,
                     CodingFormat::kPCM,       CodingFormat::kADPCM, CodingFormat::kMPEGAudio,
                     CodingFormat::kPlainText, CodingFormat::kJPEG,  CodingFormat::kGIF};
  QoSManager manager(catalog, farm, transport);

  for (const DocumentId& id : catalog.list()) {
    NegotiationResult outcome = manager.negotiate(make_negotiation_request(client, id, profile));
    std::cout << id << ": " << to_string(outcome.verdict);
    if (outcome.user_offer) std::cout << "\n    " << outcome.user_offer->describe();
    std::cout << '\n';
    outcome.commitment.release();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string file = "profiles.txt";
  if (args.size() >= 2 && args[0] == "-f") {
    file = args[1];
    args.erase(args.begin(), args.begin() + 2);
  }
  if (args.empty()) return usage();

  ProfileManager manager;
  (void)manager.load_from_file(file);  // absent file = start fresh

  const std::string& cmd = args[0];
  if (cmd == "list") {
    for (const auto& name : manager.list()) {
      std::cout << name << (name == manager.default_profile().name ? "  (default)" : "")
                << '\n';
    }
    return 0;
  }
  if (args.size() < 2) return usage();
  const std::string& name = args[1];

  if (cmd == "show") {
    auto p = manager.find(name);
    if (!p) {
      std::cerr << "no profile '" << name << "'\n";
      return 1;
    }
    std::cout << to_text(*p);
    return 0;
  }
  if (cmd == "create") {
    UserProfile p = default_user_profile();
    p.name = name;
    if (auto saved = manager.save(p); !saved.ok()) {
      std::cerr << saved.error() << '\n';
      return 1;
    }
    if (auto persisted = manager.save_to_file(file); !persisted.ok()) {
      std::cerr << persisted.error() << '\n';
      return 1;
    }
    std::cout << "created '" << name << "' in " << file << '\n';
    return 0;
  }
  if (cmd == "edit") {
    if (args.size() < 4) return usage();
    auto p = manager.find(name);
    if (!p) {
      std::cerr << "no profile '" << name << "'\n";
      return 1;
    }
    // Re-use the serialiser: append the patched key to the profile's text
    // and parse the result (later keys win).
    auto merged = parse_profiles(to_text(*p) + args[2] + " = " + args[3] + "\n");
    if (!merged.ok()) {
      std::cerr << merged.error() << '\n';
      return 1;
    }
    if (auto saved = manager.save(merged.value()[0]); !saved.ok()) {
      std::cerr << saved.error() << '\n';
      return 1;
    }
    if (auto persisted = manager.save_to_file(file); !persisted.ok()) {
      std::cerr << persisted.error() << '\n';
      return 1;
    }
    std::cout << "updated '" << name << "': " << args[2] << " = " << args[3] << '\n';
    return 0;
  }
  if (cmd == "delete") {
    if (!manager.remove(name)) {
      std::cerr << "cannot delete '" << name << "'\n";
      return 1;
    }
    (void)manager.save_to_file(file);
    std::cout << "deleted '" << name << "'\n";
    return 0;
  }
  if (cmd == "try") {
    auto p = manager.find(name);
    if (!p) {
      std::cerr << "no profile '" << name << "'\n";
      return 1;
    }
    return cmd_try(*p);
  }
  return usage();
}
