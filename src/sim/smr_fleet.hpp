// SmrFleet: the one simulated SMR deployment — n shard::ShardedSmr nodes
// (S = 1 is the plain log, on the wire exactly bare smr::SmrReplicas)
// over one deterministic simulator network, keyed by derive_keys like
// sim::Cluster and built through sim::smr_config and
// sim::transport_host, as the node binary builds its service. What one
// caller alone needs (an inbound tap, a verify pool in front of a node,
// fault filters) goes through network().
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "crypto/suite.hpp"
#include "net/network.hpp"
#include "shard/sharded_smr.hpp"
#include "sim/node_factory.hpp"

namespace probft::sim {

struct SmrFleetConfig {
  std::uint32_t n = 4;
  std::uint32_t f = 0;
  double o = 1.7;  // ProBFT sample factor
  double l = 2.0;  // ProBFT quorum factor
  std::uint64_t seed = 1;
  net::LatencyConfig latency;
  /// Crypto suite; nullptr selects the fast SimSuite.
  const crypto::CryptoSuite* suite = nullptr;
  /// Consensus groups per node; 1 = the plain single-group log.
  std::uint32_t shards = 1;
  smr::SmrOptions options;
  /// Optional WALs, indexed by replica id, one per shard (non-owning).
  std::vector<std::vector<store::Wal*>> wals;
};

class SmrFleet {
 public:
  explicit SmrFleet(SmrFleetConfig config);

  SmrFleet(const SmrFleet&) = delete;
  SmrFleet& operator=(const SmrFleet&) = delete;

  using ExecuteFn = std::function<void(ReplicaId, shard::ShardId,
                                       const smr::ExecutedCommand&)>;
  /// Called once per request executed at any node, tagged with the
  /// executing replica and its group. Set before start(): construction
  /// (WAL recovery included) executes nothing.
  void set_on_execute(ExecuteFn fn) { on_execute_ = std::move(fn); }

  void start();

  [[nodiscard]] shard::ShardedSmr& node(ReplicaId id) { return *nodes_[id]; }
  /// False between kill(id) and restart(id).
  [[nodiscard]] bool alive(ReplicaId id) const { return nodes_[id] != nullptr; }

  /// Steps the simulation until `done()`, virtual time `deadline`, or an
  /// empty event queue (lease and catch-up timers re-arm forever).
  bool run_until(const std::function<bool()>& done,
                 TimePoint deadline = 300'000'000);
  /// Every node executed at least `commands` requests (all groups).
  [[nodiscard]] bool all_executed(std::uint64_t commands) const;
  /// run_until(all_executed(commands), deadline).
  bool run_until_executed(std::uint64_t commands,
                          TimePoint deadline = 300'000'000);

  /// Every node's per-shard log digest equals node 1's.
  [[nodiscard]] bool logs_agree() const;

  /// Crash: destroys node `id` (what a kill -9 looks like to its peers);
  /// timers it scheduled never fire.
  void kill(ReplicaId id);
  /// Rebuilds node `id` over `wals` (recovering from them) and starts it.
  void restart(ReplicaId id, std::vector<store::Wal*> wals);

  [[nodiscard]] net::Simulator& simulator() { return sim_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] const crypto::CryptoSuite& suite() const { return *cfg_.suite; }
  [[nodiscard]] const std::vector<crypto::KeyPair>& keys() const {
    return keys_.pairs;
  }
  [[nodiscard]] const crypto::PublicKeyDir& public_keys() const {
    return keys_.public_keys;
  }

 private:
  void build(ReplicaId id, std::vector<store::Wal*> wals);

  SmrFleetConfig cfg_;
  std::unique_ptr<crypto::CryptoSuite> owned_suite_;  // if cfg_.suite null
  net::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  DerivedKeys keys_;
  std::vector<std::unique_ptr<shard::ShardedSmr>> nodes_;  // 1-based
  std::vector<std::uint64_t> epochs_;  // per node, bumped by kill()
  ExecuteFn on_execute_;
};

}  // namespace probft::sim
