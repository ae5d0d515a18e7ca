// Cross-shard transactions: a two-phase, log-driven dtx coordinator.
//
// A dtx writes a set of keys that placement scatters across several
// consensus groups, atomically: either every owning group's log commits
// the transaction's APPLY entry, or none does. There is no coordinator
// *process* to lose — the coordinator role is a SHARD (a replicated
// group), and every replica runs the same deterministic tracker off its
// own execution stream, so progress survives any f crash faults including
// kill -9 of the replica a client happened to talk to.
//
// Phases, all of them ordinary log entries under synthetic per-tx client
// ids (the engine's per-client exactly-once dedup turns N replicas
// redundantly driving the same transition into one committed entry):
//
//   BEGIN   (coordinator shard, coord-client seq 1): tx id, origin
//           client/seq, the full key set.
//   PREPARE (each participant shard, part-client seq 1): the tx id and
//           that shard's key slice — the paper-trail lock entry.
//   DECIDE  (coordinator shard, coord-client seq 2): commit or abort.
//           A commit DECIDE is submitted once every participant's
//           PREPARE has executed; an abort DECIDE races it on the SAME
//           (client, seq) after the abort timeout, so the coordinator
//           log's total order picks exactly one outcome and dedup
//           silently drops the loser.
//   APPLY   (each participant shard, part-client seq 2): the actual
//           write, submitted only after DECIDE(commit) executed. If
//           DECIDE(abort) wins, no honest replica ever submits APPLY —
//           that is the all-or-nothing edge.
//
// Idempotent recovery: a restarted replica replays its per-shard WALs
// (rebuilding each group's log), then rebuild_from_logs() re-reads every
// executed entry to reconstruct in-flight tx state and resumes driving.
// Re-submitted transitions are deduplicated by the engine, so replay is
// harmless by construction.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "shard/sharded_smr.hpp"
#include "sync/synchronizer.hpp"

namespace probft::shard {

struct DtxOptions {
  /// Pump period (µs): incomplete transactions re-drive their pending
  /// transitions at this cadence (covers lost forwards and restarts).
  Duration retry_period = 100'000;
  /// Auto-abort: a tx still undecided after this many pump ticks gets a
  /// DECIDE(abort) raced against the commit path. 0 = never.
  std::uint32_t abort_after_ticks = 0;
};

class DtxCoordinator {
 public:
  /// Fired exactly once per transaction on THIS replica when its outcome
  /// is final (committed: every participant applied; aborted: the abort
  /// DECIDE executed). origin_* identify the client request that started
  /// it — the serving node uses them to send the client reply.
  using OnComplete =
      std::function<void(std::uint64_t txid, bool committed,
                         std::uint64_t origin_client,
                         std::uint64_t origin_seq)>;

  DtxCoordinator(ShardedSmr& service,
                 sync::Synchronizer::TimerSetter set_timer,
                 DtxOptions opts = {});

  /// A client payload is a dtx request iff it starts with "DTX1".
  [[nodiscard]] static bool is_dtx_request(const Bytes& payload);
  /// Deterministic tx id: first 8 bytes of SHA-256 over (client, seq,
  /// payload) — a client retry maps to the same tx and is absorbed by
  /// the engine's dedup.
  [[nodiscard]] static std::uint64_t txid_of(std::uint64_t client,
                                             std::uint64_t seq,
                                             const Bytes& payload);

  /// Entry point for a client's "DTX1" request: parses the key set,
  /// starts (or re-joins) the transaction and submits BEGIN to the
  /// coordinator shard. Returns false on a malformed request (not a
  /// dtx, no keys, oversized).
  bool submit(std::uint64_t client, std::uint64_t seq, const Bytes& payload);

  /// Wire this into ShardedSmrConfig::on_execute — the tracker advances
  /// purely from executed entries. Returns whether the entry was taken as
  /// a BEGIN/PREPARE/DECIDE/APPLY entry: those are protocol bookkeeping,
  /// not client commands, and get no client reply. Anything else —
  /// including an ordinary write that merely starts with "DX" — is
  /// application data.
  bool on_execute(ShardId shard, const smr::ExecutedCommand& cmd);

  /// Post-recovery: reconstructs tx state from every group's executed
  /// log, then resumes driving whatever is still in flight.
  void rebuild_from_logs();

  void set_on_complete(OnComplete cb) { on_complete_ = std::move(cb); }

  /// nullopt while in flight / unknown; otherwise true = committed.
  /// Lets a node answer a client retry of an already-finished tx.
  [[nodiscard]] std::optional<bool> completed_status(
      std::uint64_t txid) const;

  // ---- inspection ----
  [[nodiscard]] std::uint64_t committed() const { return committed_; }
  [[nodiscard]] std::uint64_t aborted() const { return aborted_; }
  [[nodiscard]] std::uint64_t in_flight() const;

 private:
  struct Tx {
    std::uint64_t txid = 0;
    std::uint64_t origin_client = 0;
    std::uint64_t origin_seq = 0;
    std::vector<Bytes> keys;
    ShardId coord = 0;
    std::map<ShardId, std::vector<Bytes>> by_shard;  // participants
    bool begun = false;        // BEGIN executed in the coordinator log
    int decision = -1;         // -1 undecided, 0 abort, 1 commit
    std::set<ShardId> prepared;
    std::set<ShardId> applied;
    std::uint32_t ticks = 0;   // pump ticks while undecided
    bool completed = false;
  };

  /// Fills keys/coord/by_shard from a key list (placement is pure, so
  /// every replica derives the identical participant set).
  void place(Tx& tx, std::vector<Bytes> keys);
  /// Idempotently submits every transition the tx's state calls for.
  void drive(Tx& tx);
  void complete(Tx& tx, bool committed);
  /// Applies one executed entry to the tracker; returns the touched tx
  /// (nullptr for non-dtx entries). No driving — callers decide.
  Tx* apply_entry(ShardId shard, const Bytes& payload);
  void arm_pump();

  [[nodiscard]] static std::uint64_t coord_client(std::uint64_t txid);
  [[nodiscard]] static std::uint64_t part_client(std::uint64_t txid,
                                                 ShardId shard);

  ShardedSmr& service_;
  sync::Synchronizer::TimerSetter set_timer_;
  DtxOptions opts_;
  OnComplete on_complete_;

  std::map<std::uint64_t, Tx> txs_;
  std::uint64_t committed_ = 0;
  std::uint64_t aborted_ = 0;
  bool pump_armed_ = false;
};

}  // namespace probft::shard
