// Sharded SMR: S independent consensus groups behind one transport. This
// is the one SMR service; the plain replicated log is S = 1.
//
// Each group is a full smr::SmrReplica — its own slot window, batches,
// checkpoints, view state and (optionally) WAL — constructed with
// leader_offset = shard id so the S view-1 leaders spread round-robin
// across the fleet. All groups of one physical replica share the node's
// keypair and network connection: group traffic travels as
//
//   kShardTag (0x28):        u32 shard ‖ u8 inner-tag ‖ inner payload
//
// where the inner frame is any SMR-layer message (kSmrTag envelopes,
// hints, pulls, checkpoint votes, state transfer). Demultiplexing is a
// 5-byte peel on the node's thread.
//
// Request routing: submit_request hashes the payload through the
// Placement layer and enqueues at the owning group. If this replica is
// not that group's view-1 leader, the request is ALSO forwarded as
//
//   kShardForwardTag (0x29): u64 map-version ‖ u32 shard ‖ Request
//
// so it lands in the leader's next batch without waiting for a timeout;
// the local enqueue stays as the liveness fallback (exactly the
// single-group engine's behavior, hoisted one layer up so the frame can
// carry the ShardMap version — a receiver under a different map drops the
// frame instead of committing it to the wrong group's log).
//
// S = 1 is the bare engine on the wire: the single group talks through
// the service's own host (no kShardTag envelope, on_commit passes
// through), forwards its own submissions as kSmrForwardTag, and receives
// every non-shard frame. A one-group fleet therefore sends exactly the
// bytes a fleet of plain smr::SmrReplicas sends.
//
// Thread ownership: ShardedSmr has no locking of its own. Like the
// SmrReplica it wraps, every entry point (on_message, submit_request,
// timers) must run on the node's one protocol thread.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "core/protocol_host.hpp"
#include "core/replica.hpp"
#include "net/tags.hpp"
#include "shard/placement.hpp"
#include "smr/smr_replica.hpp"
#include "store/wal.hpp"

namespace probft::shard {

/// Outer wire tags; values live in the central registry (net/tags.hpp),
/// these are local re-exports.
inline constexpr std::uint8_t kShardTag = net::tags::kShard;
inline constexpr std::uint8_t kShardForwardTag = net::tags::kShardForward;

struct ShardedSmrConfig {
  /// Template for every group: id/n/f/o/l, pipeline shape, crypto, sync,
  /// shared verdict cache. Per-group fields are overridden internally
  /// (leader_offset, forward_submissions, wal, on_execute); base.wal and
  /// base.on_execute themselves are ignored.
  smr::SmrConfig base;

  /// The directory this replica serves under; shard_count = S.
  ShardMap map;

  /// Optional per-shard WALs (index = shard id; empty = no durability,
  /// size must otherwise equal shard_count). Non-owning; must outlive
  /// the service. Each group persists under its own segment namespace —
  /// group_wal_dir() is the directory layout.
  std::vector<store::Wal*> wals;

  /// Called once per executed request of any group, tagged with the
  /// owning shard, in that shard's execution order. This is where the
  /// node replies to clients and the dtx coordinator observes entries.
  std::function<void(ShardId, const smr::ExecutedCommand&)> on_execute;
};

class ShardedSmr : public core::INode {
 public:
  /// Builds the S groups (recovering each from its WAL when provided).
  /// Throws std::invalid_argument on a malformed config (shard_count of
  /// 0 / beyond kMaxShards, wals size mismatch).
  ShardedSmr(ShardedSmrConfig config, core::ProtocolHost host);

  void start() override;
  void on_message(ReplicaId from, std::uint8_t tag,
                  const Bytes& payload) override;

  /// Routes (client, seq, payload) to the group owning the payload bytes
  /// (the request payload IS the placement key) and forwards to that
  /// group's view-1 leader when it is remote. Returns the local enqueue
  /// verdict — false for duplicates and unbatchable payloads, like the
  /// single-group engine.
  bool submit_request(std::uint64_t client, std::uint64_t seq, Bytes payload);

  /// The group that owns a request payload: placement by its
  /// read_view_key (the bytes before the first '='), so a key's writes
  /// and reads meet in one group.
  [[nodiscard]] ShardId owner_of(const Bytes& payload) const;

  /// Same, with the owning shard chosen by the caller (the dtx
  /// coordinator places its own entries).
  bool submit_to_shard(ShardId s, std::uint64_t client, std::uint64_t seq,
                       Bytes payload);

  /// Read-path entry: routes `key` to the group that owns it — writes
  /// place by read_view_key(payload), so key and writes land on the same
  /// group — and answers there at the requested consistency (see
  /// smr::SmrReplica::submit_read).
  void submit_read(Bytes key, net::ReadConsistency consistency,
                   std::uint64_t min_index, smr::SmrReplica::ReadCallback cb);

  // ---- inspection ----
  [[nodiscard]] const Placement& placement() const { return placement_; }
  [[nodiscard]] std::uint32_t shard_count() const {
    return placement_.shard_count();
  }
  [[nodiscard]] smr::SmrReplica& group(ShardId s) { return *groups_.at(s); }
  [[nodiscard]] const smr::SmrReplica& group(ShardId s) const {
    return *groups_.at(s);
  }
  /// Aggregate executed commands across all groups.
  [[nodiscard]] std::uint64_t executed_commands() const;
  /// Aggregate committed (executed) slots across all groups.
  [[nodiscard]] std::uint64_t committed_slots() const;

 private:
  /// Host handed to group `s`: wraps every frame in the shard envelope
  /// (S = 1: the service's own host, unwrapped).
  [[nodiscard]] core::ProtocolHost group_host(ShardId s);
  void handle_forward(ReplicaId from, const Bytes& payload);

  ShardedSmrConfig cfg_;
  core::ProtocolHost host_;
  Placement placement_;
  std::vector<std::unique_ptr<smr::SmrReplica>> groups_;
};

/// Where group `s` of an S-group service keeps its WAL under `root`:
/// `root` itself at S = 1 (the unsharded layout, so an existing log still
/// recovers), `root`/shard-<s> otherwise.
[[nodiscard]] std::string group_wal_dir(const std::string& root, ShardId s,
                                        std::uint32_t shard_count);

}  // namespace probft::shard
