// dvv_shell — an interactive (or scripted) shell over the replicated
// store, for exploring causality behaviour by hand.  Reads commands
// from stdin; run it interactively, or pipe a script:
//
//   $ printf 'put alice k v1\nsiblings k\nquit\n' | ./dvv_shell
//
// Commands:
//   put <client> <key> <value>     read-modify-write-free PUT with the
//                                  client's remembered context
//   get <client> <key>             GET (remembers the context)
//   blind <client> <key> <value>   PUT ignoring any remembered context
//   siblings <key>                 show values + clocks at every
//                                  preference replica
//   context <client> <key>         show the client's remembered context
//   fail <server> / recover <server>
//   sync                           one anti-entropy round
//   handoff                        deliver parked hints
//   stats                          cluster metadata footprint
//   help / quit
//
// The demo runs the DVV mechanism; every clock printed is a dot plus a
// (server-only) version vector, exactly as in the paper's Figure 1c.
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "kv/client.hpp"
#include "kv/cluster.hpp"
#include "kv/mechanism.hpp"

namespace {

using dvv::kv::ClientSession;
using dvv::kv::Cluster;
using dvv::kv::ClusterConfig;
using dvv::kv::DvvMechanism;
using dvv::kv::ReplicaId;

class Shell {
 public:
  Shell() : cluster_(make_config(), DvvMechanism{}) {}

  int run() {
    std::printf("dvv shell: 5 servers (A-E), R=3, dotted version vectors.\n");
    std::printf("type 'help' for commands.\n");
    std::string line;
    while (std::printf("> "), std::fflush(stdout), std::getline(std::cin, line)) {
      if (!dispatch(line)) break;
    }
    return 0;
  }

 private:
  static ClusterConfig make_config() {
    ClusterConfig config;
    config.servers = 5;
    config.replication = 3;
    return config;
  }

  ClientSession<DvvMechanism>& session(const std::string& name) {
    auto it = sessions_.find(name);
    if (it == sessions_.end()) {
      const auto id = dvv::kv::client_actor(next_client_++);
      it = sessions_.emplace(name, ClientSession<DvvMechanism>(id, cluster_)).first;
      std::printf("(new client '%s')\n", name.c_str());
    }
    return it->second;
  }

  /// Returns false on quit.
  bool dispatch(const std::string& line) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd[0] == '#') return true;

    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") {
      std::printf(
          "put <client> <key> <value> | get <client> <key> | "
          "blind <client> <key> <value>\nsiblings <key> | context <client> <key> | "
          "fail <A-E> | recover <A-E>\nsync | handoff | stats | quit\n");
      return true;
    }
    if (cmd == "put" || cmd == "blind") {
      std::string client, key, value;
      if (!(in >> client >> key >> value)) return usage(cmd);
      auto& s = session(client);
      if (cmd == "blind") s.forget(key);
      const auto coordinator = cluster_.default_coordinator(key);
      if (!coordinator.has_value()) {
        std::printf("unavailable: every replica for %s is down\n", key.c_str());
        return true;
      }
      const auto receipt = s.put_with_handoff(key, *coordinator, value);
      std::printf("stored via server %s (replicated to %zu)\n",
                  dvv::kv::actor_name(receipt.coordinator).c_str(),
                  receipt.replicated_to);
      return true;
    }
    if (cmd == "get") {
      std::string client, key;
      if (!(in >> client >> key)) return usage(cmd);
      const auto result = session(client).get(key);
      if (!result.found) {
        std::printf("(not found)\n");
      } else {
        for (const auto& v : result.values) std::printf("  %s\n", v.c_str());
        std::printf("context: %s\n",
                    result.context.to_string(dvv::kv::actor_name).c_str());
      }
      return true;
    }
    if (cmd == "siblings") {
      std::string key;
      if (!(in >> key)) return usage(cmd);
      for (const ReplicaId r : cluster_.preference_list(key)) {
        std::printf("server %s%s:\n", dvv::kv::actor_name(r).c_str(),
                    cluster_.replica(r).alive() ? "" : " (DOWN)");
        const auto* stored = cluster_.replica(r).find(key);
        if (stored == nullptr || stored->sibling_count() == 0) {
          std::printf("  (empty)\n");
          continue;
        }
        for (const auto& v : stored->versions()) {
          std::printf("  %-16s %s\n", v.value.c_str(),
                      v.clock.to_string(dvv::kv::actor_name).c_str());
        }
      }
      return true;
    }
    if (cmd == "context") {
      std::string client, key;
      if (!(in >> client >> key)) return usage(cmd);
      std::printf("%s\n",
                  session(client).context_for(key).to_string(dvv::kv::actor_name).c_str());
      return true;
    }
    if (cmd == "fail" || cmd == "recover") {
      std::string server;
      if (!(in >> server) || server.size() != 1 || server[0] < 'A' || server[0] > 'E') {
        return usage(cmd);
      }
      const auto id = static_cast<ReplicaId>(server[0] - 'A');
      cluster_.replica(id).set_alive(cmd == "recover");
      if (cmd == "recover") {
        const auto delivered = cluster_.deliver_hints();
        std::printf("server %s back; %zu hint(s) delivered\n", server.c_str(),
                    delivered);
      } else {
        std::printf("server %s down\n", server.c_str());
      }
      return true;
    }
    if (cmd == "sync") {
      const auto report = cluster_.anti_entropy_digest();
      std::printf("anti-entropy shipped %zu key(s) in %zu session(s)\n",
                  report.stats.keys_shipped, report.sessions);
      return true;
    }
    if (cmd == "handoff") {
      std::printf("%zu hint(s) delivered (%zu still parked)\n",
                  cluster_.deliver_hints(), cluster_.hinted_count());
      return true;
    }
    if (cmd == "stats") {
      const auto fp = cluster_.footprint();
      std::printf("keys(x replicas)=%zu siblings=%zu clock-entries=%zu "
                  "metadata=%zuB total=%zuB hints=%zu\n",
                  fp.keys, fp.siblings, fp.clock_entries, fp.metadata_bytes,
                  fp.total_bytes, cluster_.hinted_count());
      return true;
    }
    std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
    return true;
  }

  bool usage(const std::string& cmd) {
    std::printf("usage error for '%s' (try 'help')\n", cmd.c_str());
    return true;
  }

  Cluster<DvvMechanism> cluster_;
  std::map<std::string, ClientSession<DvvMechanism>> sessions_;
  std::uint64_t next_client_ = 0;
};

}  // namespace

int main() { return Shell().run(); }
