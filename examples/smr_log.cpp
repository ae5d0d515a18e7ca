// Replicated log using the SMR module (src/smr): a single long-lived
// fleet of SmrReplicas over one network — a window of slots runs
// concurrently, commands ride in batches, and slots only open when there
// is demand (no no-op filler).
//
//   $ ./examples/smr_log [n] [commands]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "smr/smr_replica.hpp"

int main(int argc, char** argv) {
  using namespace probft;

  const std::uint32_t n =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 8;
  const std::uint64_t commands =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 6;

  net::Simulator sim;
  net::LatencyConfig latency;
  latency.min_delay = 1'000;
  latency.max_delay_post = 6'000;
  net::Network network(sim, n, /*seed=*/2024, latency);
  const auto suite = crypto::make_sim_suite();

  std::vector<crypto::KeyPair> keys(n + 1);
  std::vector<Bytes> key_table(n + 1);
  for (ReplicaId id = 1; id <= n; ++id) {
    keys[id] = suite->keygen(mix64(2024, id));
    key_table[id] = keys[id].public_key;
  }
  const crypto::PublicKeyDir public_keys(std::move(key_table));

  std::vector<std::unique_ptr<smr::SmrReplica>> replicas(n + 1);
  for (ReplicaId id = 1; id <= n; ++id) {
    smr::SmrConfig cfg;
    cfg.id = id;
    cfg.n = n;
    cfg.f = 0;
    cfg.pipeline.window = 4;
    cfg.pipeline.batch_max_commands = 2;
    cfg.suite = suite.get();
    cfg.secret_key = keys[id].secret_key;
    cfg.public_keys = public_keys;
    core::ProtocolHost hooks;
    hooks.send = [&network, id](ReplicaId to, std::uint8_t tag,
                                const Bytes& m) {
      network.send(id, to, tag, m);
    };
    hooks.broadcast = [&network, id](std::uint8_t tag, const Bytes& m) {
      network.broadcast(id, tag, m);
    };
    hooks.set_timer = [&sim](Duration d, std::function<void()> fn) {
      sim.schedule_after(d, std::move(fn));
    };
    hooks.on_commit = [id](std::uint64_t index, const Bytes& command) {
      if (id == 1) {  // narrate once
        std::printf("  command %2llu executed: %s\n",
                    static_cast<unsigned long long>(index),
                    std::string(command.begin(), command.end()).c_str());
      }
    };
    replicas[id] = std::make_unique<smr::SmrReplica>(std::move(cfg), hooks);
    network.register_handler(
        id, [&replicas, id](ReplicaId from, std::uint8_t tag, const Bytes& m) {
          replicas[id]->on_message(from, tag, m);
        });
  }

  // All commands are submitted at replica 1 (the round-robin leader of
  // every slot's first view), like a client talking to the current leader.
  std::printf("submitting %llu commands to an %u-replica ProBFT-SMR fleet\n",
              static_cast<unsigned long long>(commands), n);
  for (std::uint64_t i = 0; i < commands; ++i) {
    replicas[1]->submit(to_bytes("op-" + std::to_string(i)));
  }
  for (ReplicaId id = 1; id <= n; ++id) replicas[id]->start();

  // Run until every replica executed every submitted command.
  while (sim.now() < 120'000'000) {
    bool all_done = true;
    for (ReplicaId id = 1; id <= n; ++id) {
      if (replicas[id]->executed_commands() < commands) {
        all_done = false;
        break;
      }
    }
    if (all_done || !sim.step()) break;
  }

  std::printf("\nlogs after %.1f ms of simulated time:\n",
              static_cast<double>(sim.now()) / 1000.0);
  bool identical = true;
  for (ReplicaId id = 1; id <= n; ++id) {
    std::printf("  replica %2u: %llu commands in %llu slots\n", id,
                static_cast<unsigned long long>(
                    replicas[id]->executed_commands()),
                static_cast<unsigned long long>(
                    replicas[id]->committed_slots()));
    if (replicas[id]->log() != replicas[1]->log()) identical = false;
  }
  std::printf("\nall logs identical: %s\n", identical ? "yes" : "NO (BUG)");
  std::printf("total wire messages for %llu slots: %llu\n",
              static_cast<unsigned long long>(replicas[1]->committed_slots()),
              static_cast<unsigned long long>(network.stats().sends));
  return identical ? 0 : 1;
}
