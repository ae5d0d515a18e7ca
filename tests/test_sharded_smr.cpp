// Sharded SMR service (src/shard): S consensus groups multiplexed over
// one simulated connection per node must (1) route every request to the
// group owning its payload bytes and agree per shard across the fleet,
// (2) produce per-shard logs bit-identical to an S = 1-equivalent plain
// SmrReplica fleet run with the same leader offset — multiplexing is
// scheduling, never content — and at S = 1 send exactly the plain
// fleet's frames, (3) commit cross-shard transactions atomically,
// reconstruct dtx state from the per-shard WALs after a crash, and tell
// dtx bookkeeping entries from client writes, (4) keep sibling shards
// committing while shard 0's leader goes silent (the view change is per
// group, not fleet-wide).
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "shard/dtx.hpp"
#include "shard/sharded_smr.hpp"
#include "sim/node_factory.hpp"
#include "sim/scenario.hpp"
#include "sim/smr_fleet.hpp"
#include "smr/reads.hpp"
#include "smr/smr_replica.hpp"
#include "store/wal.hpp"

namespace probft::shard {
namespace {

/// A sim::SmrFleet of n ShardedSmr nodes (each S groups) with a
/// DtxCoordinator per node driving off its execution stream — the same
/// wiring the node binary uses, minus sockets.
struct ShardedFleet : sim::SmrFleet {
  std::vector<std::unique_ptr<DtxCoordinator>> dtx;  // 1-based
  /// Replica 1's executed entries, each with whether its dtx tracker
  /// took it as a dtx entry (the node binary's no-reply rule).
  std::vector<std::pair<Bytes, bool>> entries_at_1;

  ShardedFleet(std::uint32_t n, std::uint32_t shards,
               const smr::SmrOptions& options = {},
               const net::LatencyConfig& latency = {},
               std::vector<std::vector<store::Wal*>> wals = {})
      : sim::SmrFleet(make_config(n, shards, options, latency,
                                  std::move(wals))),
        dtx(n + 1) {
    for (ReplicaId id = 1; id <= n; ++id) {
      dtx[id] = std::make_unique<DtxCoordinator>(
          node(id), [this](Duration d, std::function<void()> fn) {
            simulator().schedule_after(d, std::move(fn));
          });
    }
    set_on_execute([this](ReplicaId id, ShardId s,
                          const smr::ExecutedCommand& cmd) {
      const bool dtx_entry = dtx[id]->on_execute(s, cmd);
      if (id == 1) entries_at_1.emplace_back(cmd.payload, dtx_entry);
    });
  }

  /// The sharded workloads' liveness bound: 120 s of simulated time.
  bool run_until_executed(std::uint64_t expect,
                          TimePoint deadline = 120'000'000) {
    return sim::SmrFleet::run_until_executed(expect, deadline);
  }

 private:
  static sim::SmrFleetConfig make_config(
      std::uint32_t n, std::uint32_t shards, const smr::SmrOptions& options,
      const net::LatencyConfig& latency,
      std::vector<std::vector<store::Wal*>> wals) {
    sim::SmrFleetConfig cfg;
    cfg.n = n;
    cfg.latency = latency;
    cfg.shards = shards;
    cfg.options = options;
    cfg.wals = std::move(wals);
    return cfg;
  }
};

/// n bare smr::SmrReplicas — the unsharded engine — wired like
/// sim::SmrFleet minus the service layer, with every group's leader offset
/// set to `leader_offset`.
struct PlainFleet {
  net::Simulator sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<crypto::CryptoSuite> suite;
  std::vector<std::unique_ptr<smr::SmrReplica>> replicas;  // 1-based

  PlainFleet(std::uint32_t n, const smr::SmrOptions& options,
             View leader_offset, std::uint64_t seed,
             const net::LatencyConfig& latency) {
    net = std::make_unique<net::Network>(sim, n, seed, latency);
    suite = crypto::make_sim_suite();
    const sim::DerivedKeys keys = sim::derive_keys(*suite, n, seed);
    replicas.resize(n + 1);
    for (ReplicaId id = 1; id <= n; ++id) {
      smr::SmrConfig cfg;
      cfg.id = id;
      cfg.n = n;
      cfg.f = 0;
      cfg.pipeline = options;
      cfg.leader_offset = leader_offset;
      cfg.suite = suite.get();
      cfg.secret_key = keys.pairs[id].secret_key;
      cfg.public_keys = keys.public_keys;
      cfg.sync.base_timeout = 100'000;
      core::ProtocolHost host;
      host.send = [this, id](ReplicaId to, std::uint8_t tag,
                             const Bytes& m) {
        net->send(id, to, tag, m);
      };
      host.broadcast = [this, id](std::uint8_t tag, const Bytes& m) {
        net->broadcast(id, tag, m);
      };
      host.set_timer = [this](Duration d, std::function<void()> fn) {
        sim.schedule_after(d, std::move(fn));
      };
      replicas[id] = std::make_unique<smr::SmrReplica>(std::move(cfg), host);
      net->register_handler(
          id, [this, id](ReplicaId from, std::uint8_t tag, const Bytes& m) {
            replicas[id]->on_message(from, tag, m);
          });
    }
  }

  void start_all() {
    for (std::size_t id = 1; id < replicas.size(); ++id) {
      replicas[id]->start();
    }
  }
};

/// Steps `sim` until virtual time `until` (or until it idles).
void run_to(net::Simulator& sim, TimePoint until) {
  while (sim.now() < until && sim.step()) {
  }
}

Bytes dtx_payload(const ShardMap& map, std::uint32_t shards,
                  const std::string& stem) {
  std::vector<Bytes> keys;
  for (ShardId s = 0; s < shards; ++s) {
    for (std::uint64_t nonce = 0;; ++nonce) {
      Bytes key = to_bytes(stem + "-" + std::to_string(nonce));
      if (shard_of(map, ByteSpan(key.data(), key.size())) == s) {
        keys.push_back(std::move(key));
        break;
      }
    }
  }
  Writer w;
  w.raw(ByteSpan(reinterpret_cast<const std::uint8_t*>("DTX1"), 4));
  w.vec(keys, [](Writer& wr, const Bytes& key) {
    wr.bytes(ByteSpan(key.data(), key.size()));
  });
  return std::move(w).take();
}

// Requests submitted at ONE node must land in the group owning their
// payload bytes — on every node — and sibling groups' logs must agree
// fleet-wide.
TEST(ShardedSmr, DemuxRoutesEveryRequestToItsOwningGroup) {
  const std::uint32_t n = 4, shards = 4;
  const std::uint64_t commands = 24;
  ShardedFleet fleet(n, shards);
  const Placement& placement = fleet.node(1).placement();
  std::map<ShardId, std::uint64_t> owned;
  for (std::uint64_t i = 1; i <= commands; ++i) {
    Bytes payload = to_bytes("op-" + std::to_string(i));
    ++owned[placement.shard_of(ByteSpan(payload.data(), payload.size()))];
    ASSERT_TRUE(
        fleet.node(1).submit_request(9000 + i, 1, std::move(payload)));
  }
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(commands));
  for (ShardId s = 0; s < shards; ++s) {
    for (ReplicaId id = 1; id <= n; ++id) {
      EXPECT_EQ(fleet.node(id).group(s).executed_commands(), owned[s])
          << "replica " << id << " shard " << s;
    }
  }
  EXPECT_TRUE(fleet.logs_agree());
}

// The acceptance-bar bit-identity property: each shard's log under the
// multiplexed service equals the log of a plain single-group SmrReplica
// fleet run with the same leader offset and the shard's slice of the
// workload. Zero-jitter latency (min == max, no reorder/duplicate) makes
// every link FIFO, so arrival order — and therefore log content — is
// submission order in both runs; the multiplexer may interleave
// scheduling but must never perturb content.
//
// At S = 1 the service IS the plain engine on the wire, so the claim is
// stronger: on the same seed both fleets send the same frames, tag for
// tag and byte for byte. That case enters at a non-leader (the engine's
// own kSmrForwardTag path) with the read path on, so lease renewals and
// a read-index round from a follower's linearizable read are covered.
TEST(ShardedSmr, PerShardLogsBitIdenticalToPlainSingleGroupFleet) {
  struct Case {
    std::uint32_t shards;
    ReplicaId entry;
    bool serve_reads;
  };
  const std::uint32_t n = 4;
  const std::uint64_t commands = 16;
  const TimePoint horizon = 3'000'000;  // S = 1: both fleets, past the reads
  net::LatencyConfig fifo;
  fifo.min_delay = 1'000;
  fifo.max_delay_post = 1'000;  // zero jitter: per-link FIFO delivery

  for (const Case c : {Case{2, 1, false}, Case{1, 2, true}}) {
    SCOPED_TRACE("shards=" + std::to_string(c.shards));
    smr::SmrOptions options;
    options.batch_max_commands = 1;  // one slot per command: log = arrivals
    options.serve_reads = c.serve_reads;
    options.lease_duration = 100'000;  // scaled to the 100 ms view timer
    options.lease_skew = 25'000;
    const Bytes read_key = to_bytes("op-1");

    ShardedFleet fleet(n, c.shards, options, fifo);
    const ShardMap map = fleet.node(1).placement().map();
    std::vector<std::vector<std::pair<std::uint64_t, Bytes>>> slice(
        c.shards);
    for (std::uint64_t i = 1; i <= commands; ++i) {
      Bytes payload = to_bytes("op-" + std::to_string(i));
      const ShardId s =
          shard_of(map, ByteSpan(payload.data(), payload.size()));
      slice[s].emplace_back(9000 + i, payload);
      ASSERT_TRUE(fleet.node(c.entry).submit_request(9000 + i, 1,
                                                       std::move(payload)));
    }
    net::ReplyStatus sharded_read = net::ReplyStatus::kRejected;
    if (c.serve_reads) {
      fleet.simulator().schedule_after(1'000'000, [&fleet, &read_key,
                                           &sharded_read] {
        fleet.node(3).submit_read(
            read_key, net::ReadConsistency::kLinearizable, 0,
            [&sharded_read](const smr::SmrReplica::ReadResult& r) {
              sharded_read = r.status;
            });
      });
    }
    fleet.start();
    ASSERT_TRUE(fleet.run_until_executed(commands));
    if (c.shards == 1) run_to(fleet.simulator(), horizon);
    EXPECT_TRUE(fleet.logs_agree());

    for (ShardId s = 0; s < c.shards; ++s) {
      // S = 1-equivalent: a plain fleet with this group's leader offset,
      // fed only this shard's commands in the same relative order.
      PlainFleet plain(n, options, /*leader_offset=*/s, /*seed=*/1, fifo);
      for (const auto& [client, payload] : slice[s]) {
        ASSERT_TRUE(
            plain.replicas[c.entry]->submit_request(client, 1, payload));
      }
      net::ReplyStatus plain_read = net::ReplyStatus::kRejected;
      if (c.serve_reads) {
        plain.sim.schedule_after(1'000'000, [&plain, &read_key,
                                             &plain_read] {
          plain.replicas[3]->submit_read(
              read_key, net::ReadConsistency::kLinearizable, 0,
              [&plain_read](const smr::SmrReplica::ReadResult& r) {
                plain_read = r.status;
              });
        });
      }
      plain.start_all();
      if (c.shards == 1) {
        run_to(plain.sim, horizon);
      } else {
        while (plain.sim.now() < 120'000'000 &&
               plain.replicas[1]->executed_commands() < slice[s].size()) {
          if (!plain.sim.step()) break;
        }
      }
      ASSERT_GE(plain.replicas[1]->executed_commands(), slice[s].size())
          << "plain fleet for shard " << s << " did not finish";
      EXPECT_EQ(fleet.node(1).group(s).log_digest(),
                plain.replicas[1]->log_digest())
          << "shard " << s
          << ": multiplexed log diverged from the single-group fleet";
      if (c.shards > 1) continue;

      const net::TransportStats& got = fleet.network().stats();
      const net::TransportStats& want = plain.net->stats();
      EXPECT_EQ(got.sends_by_tag, want.sends_by_tag);
      EXPECT_EQ(got.bytes_by_tag, want.bytes_by_tag);
      EXPECT_EQ(got.sends_for(kShardTag) + got.sends_for(kShardForwardTag),
                0u);
      // The paths this case exists for really ran.
      EXPECT_GT(want.sends_for(smr::kSmrForwardTag), 0u);
      EXPECT_GT(want.sends_for(smr::kSmrLeaseTag), 0u);
      EXPECT_GT(want.sends_for(smr::kSmrReadIndexTag), 0u);
      EXPECT_EQ(sharded_read, net::ReplyStatus::kExecuted);
      EXPECT_EQ(plain_read, net::ReplyStatus::kExecuted);
    }
  }
}

// Cross-shard transactions: every participant group commits the APPLY
// entry (2 + 2S entries per tx, fleet-wide agreement), and a replica
// rebuilt from its per-shard WALs reconstructs both the logs and the
// coordinator's view of every finished transaction.
TEST(ShardedSmr, DtxCommitsAtomicallyAndSurvivesWalRecovery) {
  const std::uint32_t n = 4, shards = 2;
  const std::uint64_t commands = 8, dtx_count = 2;
  const auto root = std::filesystem::temp_directory_path() /
                    ("probft-shard-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);

  // Replica 1 runs durable; everyone else is memory-only.
  std::vector<std::unique_ptr<store::Wal>> wal_store;
  std::vector<std::vector<store::Wal*>> wals(2);
  for (ShardId s = 0; s < shards; ++s) {
    wal_store.push_back(std::make_unique<store::Wal>(store::WalOptions{
        .dir = (root / ("shard-" + std::to_string(s))).string(),
        .fsync = false}));
    wals[1].push_back(wal_store.back().get());
  }

  std::uint64_t committed_cb = 0;
  {
    ShardedFleet fleet(n, shards, {}, {}, wals);
    const ShardMap map = fleet.node(1).placement().map();
    fleet.dtx[1]->set_on_complete(
        [&committed_cb](std::uint64_t, bool committed, std::uint64_t,
                        std::uint64_t) {
          if (committed) ++committed_cb;
        });
    for (std::uint64_t i = 1; i <= commands; ++i) {
      ASSERT_TRUE(fleet.node(1).submit_request(
          9000 + i, 1, to_bytes("op-" + std::to_string(i))));
    }
    fleet.start();
    for (std::uint64_t j = 0; j < dtx_count; ++j) {
      ASSERT_TRUE(fleet.dtx[1]->submit(
          88'000 + j, 1,
          dtx_payload(map, shards, "dtx-" + std::to_string(j))));
    }
    const std::uint64_t expect = commands + dtx_count * (2 + 2 * shards);
    ASSERT_TRUE(fleet.run_until_executed(expect));
    EXPECT_TRUE(fleet.logs_agree());
    for (ReplicaId id = 1; id <= n; ++id) {
      EXPECT_EQ(fleet.dtx[id]->committed(), dtx_count) << "replica " << id;
      EXPECT_EQ(fleet.dtx[id]->aborted(), 0u) << "replica " << id;
      EXPECT_EQ(fleet.dtx[id]->in_flight(), 0u) << "replica " << id;
    }
    EXPECT_EQ(committed_cb, dtx_count);

    // Crash-equivalent: record the digests, then drop the fleet (the
    // WALs keep replica 1's history).
    std::vector<std::string> digests(shards);
    for (ShardId s = 0; s < shards; ++s) {
      digests[s] = fleet.node(1).group(s).log_digest();
    }
    for (auto& wal : wal_store) wal.reset();
    wal_store.clear();

    // Restart: fresh WAL handles over the same directories, a fresh
    // service recovered from them, dtx state rebuilt from the logs.
    std::vector<std::unique_ptr<store::Wal>> reopened;
    ShardedSmrConfig cfg;
    cfg.base.id = 1;
    cfg.base.n = n;
    cfg.base.f = 0;
    cfg.base.suite = &fleet.suite();
    cfg.base.secret_key = fleet.keys()[1].secret_key;
    cfg.base.public_keys = fleet.public_keys();
    cfg.map.shard_count = shards;
    for (ShardId s = 0; s < shards; ++s) {
      reopened.push_back(std::make_unique<store::Wal>(store::WalOptions{
          .dir = (root / ("shard-" + std::to_string(s))).string(),
          .fsync = false}));
      cfg.wals.push_back(reopened.back().get());
    }
    core::ProtocolHost host;  // offline: no peers, no timers needed
    host.send = [](ReplicaId, std::uint8_t, const Bytes&) {};
    host.broadcast = [](std::uint8_t, const Bytes&) {};
    host.set_timer = [](Duration, std::function<void()>) {};
    ShardedSmr revived(std::move(cfg), host);
    for (ShardId s = 0; s < shards; ++s) {
      EXPECT_EQ(revived.group(s).log_digest(), digests[s])
          << "shard " << s << " recovered a different history";
    }
    DtxCoordinator revived_dtx(
        revived, [](Duration, std::function<void()>) {});
    revived_dtx.rebuild_from_logs();
    EXPECT_EQ(revived_dtx.committed(), dtx_count);
    EXPECT_EQ(revived_dtx.aborted(), 0u);
    EXPECT_EQ(revived_dtx.in_flight(), 0u);
  }
  std::filesystem::remove_all(root);
}

// Only real BEGIN/PREPARE/DECIDE/APPLY entries are dtx bookkeeping. The
// node binary skips the client reply for exactly those, so an ordinary
// write that happens to start with "DX" must not be classified as one
// (it used to be matched by its 2-byte prefix and never answered). At
// S = 1 a "DTX1" request is a one-participant transaction: 2 + 2 entries.
TEST(ShardedSmr, DtxOnExecuteClassifiesOnlyRealDtxEntries) {
  ShardedFleet fleet(/*n=*/4, /*shards=*/1);
  ASSERT_TRUE(fleet.node(1).submit_request(9001, 1, to_bytes("DXfoo=1")));
  fleet.start();
  ASSERT_TRUE(fleet.dtx[1]->submit(
      88'000, 1, dtx_payload(fleet.node(1).placement().map(), 1, "dtx")));
  ASSERT_TRUE(fleet.run_until_executed(1 + 4));
  EXPECT_EQ(fleet.dtx[1]->committed(), 1u);

  std::map<std::string, int> dtx_entries;
  for (const auto& [payload, dtx_entry] : fleet.entries_at_1) {
    const std::string text(payload.begin(), payload.end());
    if (text == "DXfoo=1") {
      EXPECT_FALSE(dtx_entry) << "a client write was taken for a dtx entry";
      continue;
    }
    EXPECT_TRUE(dtx_entry) << "unclassified entry " << text.substr(0, 4);
    ++dtx_entries[text.substr(0, 4)];
  }
  EXPECT_EQ(dtx_entries, (std::map<std::string, int>{
                             {"DXA1", 1}, {"DXB1", 1}, {"DXD1", 1},
                             {"DXP1", 1}}));
}

// Regression for the silent shard-0 leader: dropping every shard-0 frame
// from that group's view-1 leader must stall only group 0 (until its view
// change passes the leader by) — sibling shards share the node's
// connection but must keep committing throughout.
TEST(ShardedSmr, SilentShardZeroLeaderDoesNotStallSiblingShards) {
  sim::ScenarioSpec spec;
  spec.protocol = sim::Protocol::kProbft;
  spec.workload = sim::Workload::kSmr;
  spec.fault = sim::Fault::kShardSilentLeader;
  spec.n = 4;
  spec.f = 1;
  // l = 1.5 makes the ProBFT quorum 3-of-4 (the spec default 2.0 needs
  // all four replicas at n = 4, which tolerates no silent leader at all
  // — the same shape run_tcp_cluster.sh uses for its kill-restart mode).
  spec.l = 1.5;
  spec.shards = 4;
  spec.smr_commands = 12;
  const auto outcome = sim::run_scenario_smr(spec, /*seed=*/1);
  EXPECT_TRUE(outcome.terminated)
      << "sibling shards stalled behind shard 0's silent leader: decided="
      << outcome.decided << "/" << outcome.correct << "\n"
      << outcome.transcript;
  EXPECT_TRUE(outcome.agreement);
}

}  // namespace
}  // namespace probft::shard
