#include "sim/smr_fleet.hpp"

#include <utility>

#include "sim/node_factory.hpp"

namespace probft::sim {

SmrFleet::SmrFleet(SmrFleetConfig config)
    : cfg_(std::move(config)),
      network_(std::make_unique<net::Network>(sim_, cfg_.n, cfg_.seed,
                                              cfg_.latency)),
      nodes_(cfg_.n + 1),
      epochs_(cfg_.n + 1, 0) {
  if (cfg_.suite == nullptr) {
    owned_suite_ = crypto::make_sim_suite();
    cfg_.suite = owned_suite_.get();
  }
  keys_ = derive_keys(*cfg_.suite, cfg_.n, cfg_.seed);
  for (ReplicaId id = 1; id <= cfg_.n; ++id) {
    build(id, id < cfg_.wals.size() ? cfg_.wals[id]
                                    : std::vector<store::Wal*>{});
    network_->register_handler(
        id, [this, id](ReplicaId from, std::uint8_t tag, const Bytes& m) {
          if (nodes_[id]) nodes_[id]->on_message(from, tag, m);
        });
  }
}

void SmrFleet::build(ReplicaId id, std::vector<store::Wal*> wals) {
  NodeParams params;
  params.id = id;
  params.n = cfg_.n;
  params.f = cfg_.f;
  params.o = cfg_.o;
  params.l = cfg_.l;
  params.smr = cfg_.options;
  params.suite = cfg_.suite;
  params.secret_key = keys_.pairs[id].secret_key;
  params.public_keys = keys_.public_keys;
  shard::ShardedSmrConfig sc;
  sc.base = smr_config(params);
  sc.map.shard_count = cfg_.shards;
  sc.wals = std::move(wals);
  sc.on_execute = [this, id](shard::ShardId s,
                             const smr::ExecutedCommand& cmd) {
    if (on_execute_) on_execute_(id, s, cmd);
  };
  // Timers carry the epoch of the node that armed them, so a killed
  // node's callbacks never fire into freed memory.
  core::ProtocolHost host = transport_host(
      *network_, id, [this, id](Duration d, std::function<void()> fn) {
        sim_.schedule_after(d, [this, id, epoch = epochs_[id],
                                fn = std::move(fn)] {
          if (epochs_[id] == epoch) fn();
        });
      });
  nodes_[id] =
      std::make_unique<shard::ShardedSmr>(std::move(sc), std::move(host));
}

void SmrFleet::start() {
  for (ReplicaId id = 1; id <= cfg_.n; ++id) nodes_[id]->start();
}

bool SmrFleet::run_until(const std::function<bool()>& done,
                         TimePoint deadline) {
  while (sim_.now() < deadline) {
    if (done()) return true;
    if (!sim_.step()) break;
  }
  return done();
}

bool SmrFleet::all_executed(std::uint64_t commands) const {
  for (ReplicaId id = 1; id <= cfg_.n; ++id) {
    if (nodes_[id]->executed_commands() < commands) return false;
  }
  return true;
}

bool SmrFleet::run_until_executed(std::uint64_t commands,
                                  TimePoint deadline) {
  return run_until([this, commands] { return all_executed(commands); },
                   deadline);
}

bool SmrFleet::logs_agree() const {
  for (shard::ShardId s = 0; s < cfg_.shards; ++s) {
    const std::string want = nodes_[1]->group(s).log_digest();
    for (ReplicaId id = 2; id <= cfg_.n; ++id) {
      if (nodes_[id]->group(s).log_digest() != want) return false;
    }
  }
  return true;
}

void SmrFleet::kill(ReplicaId id) {
  ++epochs_[id];
  nodes_[id].reset();
}

void SmrFleet::restart(ReplicaId id, std::vector<store::Wal*> wals) {
  build(id, std::move(wals));
  nodes_[id]->start();
}

}  // namespace probft::sim
