#include "shard/sharded_smr.hpp"

#include <stdexcept>
#include <utility>

#include "common/codec.hpp"
#include "smr/batch.hpp"
#include "smr/read_view.hpp"

namespace probft::shard {

namespace {

[[nodiscard]] ByteSpan span(const Bytes& b) {
  return ByteSpan(b.data(), b.size());
}

}  // namespace

ShardedSmr::ShardedSmr(ShardedSmrConfig config, core::ProtocolHost host)
    : cfg_(std::move(config)), host_(std::move(host)), placement_(cfg_.map) {
  const std::uint32_t shards = cfg_.map.shard_count;
  if (shards == 0 || shards > kMaxShards) {
    throw std::invalid_argument("ShardedSmr: bad shard_count");
  }
  if (!cfg_.wals.empty() && cfg_.wals.size() != shards) {
    throw std::invalid_argument("ShardedSmr: wals size != shard_count");
  }
  groups_.reserve(shards);
  for (ShardId s = 0; s < shards; ++s) {
    smr::SmrConfig gc = cfg_.base;
    gc.leader_offset = s;
    // S > 1: this layer forwards (with the map version); S = 1: the engine
    // forwards itself, as kSmrForwardTag.
    gc.forward_submissions = shards == 1;
    gc.wal = cfg_.wals.empty() ? nullptr : cfg_.wals[s];
    gc.on_execute = [this, s](const smr::ExecutedCommand& cmd) {
      if (cfg_.on_execute) cfg_.on_execute(s, cmd);
    };
    groups_.push_back(
        std::make_unique<smr::SmrReplica>(std::move(gc), group_host(s)));
  }
}

core::ProtocolHost ShardedSmr::group_host(ShardId s) {
  if (shard_count() == 1) return host_;
  core::ProtocolHost gh;
  gh.send = [this, s](ReplicaId to, std::uint8_t tag, const Bytes& m) {
    Writer w;
    w.u32(s);
    w.u8(tag);
    w.raw(span(m));
    host_.send(to, kShardTag, std::move(w).take());
  };
  gh.broadcast = [this, s](std::uint8_t tag, const Bytes& m) {
    Writer w;
    w.u32(s);
    w.u8(tag);
    w.raw(span(m));
    host_.broadcast(kShardTag, std::move(w).take());
  };
  // Groups are never destroyed before the service, so timers pass through
  // unguarded (the SmrReplica already guards its retired slot instances).
  gh.set_timer = host_.set_timer;
  return gh;
}

void ShardedSmr::start() {
  for (auto& group : groups_) group->start();
}

bool ShardedSmr::submit_request(std::uint64_t client, std::uint64_t seq,
                                Bytes payload) {
  // Place by the payload's KEY (the bytes before the first '='), not the
  // raw bytes, so a read of that key routes to the shard that owns its
  // writes. Payloads without '=' key as the whole payload — placement for
  // every historical opaque workload (and its pinned digests) unchanged.
  const ShardId s = owner_of(payload);
  return submit_to_shard(s, client, seq, std::move(payload));
}

ShardId ShardedSmr::owner_of(const Bytes& payload) const {
  return placement_.shard_of(smr::read_view_key(span(payload)));
}

void ShardedSmr::submit_read(Bytes key, net::ReadConsistency consistency,
                             std::uint64_t min_index,
                             smr::SmrReplica::ReadCallback cb) {
  const ShardId s = placement_.shard_of(span(key));
  groups_[s]->submit_read(std::move(key), consistency, min_index,
                          std::move(cb));
}

bool ShardedSmr::submit_to_shard(ShardId s, std::uint64_t client,
                                 std::uint64_t seq, Bytes payload) {
  if (s >= shard_count()) return false;
  const ReplicaId lead = lead_replica(s, cfg_.base.n);
  Bytes forward;
  if (shard_count() > 1 && lead != cfg_.base.id) {
    Writer w;
    w.u64(cfg_.map.version);
    w.u32(s);
    smr::Request{client, seq, payload}.encode(w);
    forward = std::move(w).take();
  }
  // Local enqueue first (liveness fallback: if the remote leader never
  // batches it, a slot this replica opens carries it — at once when no
  // slot is in flight, else on the pacing timer).
  const bool accepted = groups_[s]->submit_request(client, seq,
                                                  std::move(payload));
  if (accepted && !forward.empty()) {
    host_.send(lead, kShardForwardTag, forward);
  }
  return accepted;
}

void ShardedSmr::handle_forward(ReplicaId from, const Bytes& payload) {
  (void)from;  // any replica may forward; dedup makes replays harmless
  Reader r(span(payload));
  const std::uint64_t version = r.u64();
  const ShardId s = r.u32();
  smr::Request req = smr::Request::decode(r);
  r.expect_exhausted();
  // A mis-versioned forward was routed under a different ShardMap: the
  // sender's placement may disagree with ours, so committing it here
  // could write the key to the wrong group's log. Drop; the client
  // retries after refreshing its map.
  if (version != cfg_.map.version) return;
  if (s >= shard_count()) return;
  (void)groups_[s]->submit_request(req.client, req.seq,
                                   std::move(req.payload));
}

void ShardedSmr::on_message(ReplicaId from, std::uint8_t tag,
                            const Bytes& payload) {
  try {
    switch (tag) {
      case kShardTag: {
        Reader r(span(payload));
        const ShardId s = r.u32();
        const std::uint8_t inner_tag = r.u8();
        Bytes inner = r.raw(r.remaining());
        if (s >= shard_count()) return;  // stale map or garbage: drop
        groups_[s]->on_message(from, inner_tag, inner);
        break;
      }
      case kShardForwardTag:
        handle_forward(from, payload);
        break;
      default:
        // Unwrapped SMR traffic: the S = 1 wire.
        groups_[0]->on_message(from, tag, payload);
        break;
    }
  } catch (const CodecError&) {
    // Malformed envelope: drop.
  }
}

std::uint64_t ShardedSmr::executed_commands() const {
  std::uint64_t total = 0;
  for (const auto& group : groups_) total += group->executed_commands();
  return total;
}

std::uint64_t ShardedSmr::committed_slots() const {
  std::uint64_t total = 0;
  for (const auto& group : groups_) total += group->committed_slots();
  return total;
}

std::string group_wal_dir(const std::string& root, ShardId s,
                          std::uint32_t shard_count) {
  if (shard_count == 1) return root;
  return root + "/shard-" + std::to_string(s);
}

}  // namespace probft::shard
