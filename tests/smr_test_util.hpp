// The SMR tests' fleet: a single-group sim::SmrFleet on fast 0.5–4 ms
// links, with each node addressed through its one consensus group.
#pragma once

#include <cstdint>

#include "sim/smr_fleet.hpp"
#include "smr/smr_replica.hpp"

namespace probft::smr {

struct Fleet : sim::SmrFleet {
  explicit Fleet(std::uint32_t n, std::uint32_t f = 0, double l = 2.0,
                 SmrOptions options = {}, std::uint64_t seed = 1)
      : sim::SmrFleet(make_config(n, f, l, options, seed)) {}

  /// Replica `id`'s consensus group (the fleet runs S = 1).
  SmrReplica& replica(ReplicaId id) { return node(id).group(0); }

 private:
  static sim::SmrFleetConfig make_config(std::uint32_t n, std::uint32_t f,
                                         double l, const SmrOptions& options,
                                         std::uint64_t seed) {
    sim::SmrFleetConfig cfg;
    cfg.n = n;
    cfg.f = f;
    cfg.l = l;
    cfg.seed = seed;
    cfg.latency.min_delay = 500;
    cfg.latency.max_delay_post = 4'000;
    cfg.options = options;
    return cfg;
  }
};

}  // namespace probft::smr
