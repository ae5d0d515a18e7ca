#include "shard/preverify.hpp"

#include "common/codec.hpp"
#include "shard/placement.hpp"
#include "shard/sharded_smr.hpp"
#include "smr/preverify.hpp"

namespace probft::shard {

std::vector<core::VerifyTask> preverify_tasks(
    const core::PreverifyContext& ctx, std::uint8_t tag,
    const Bytes& payload) {
  if (tag != kShardTag) return smr::preverify_tasks(ctx, tag, payload);
  try {
    Reader r{ByteSpan(payload.data(), payload.size())};
    const ShardId shard = r.u32();
    const std::uint8_t inner_tag = r.u8();
    const Bytes inner = r.raw(r.remaining());
    if (shard >= kMaxShards) return {};  // garbage: the replica drops it
    core::PreverifyContext group_ctx = ctx;
    group_ctx.leader_offset = shard;
    return smr::preverify_tasks(group_ctx, inner_tag, inner);
  } catch (const CodecError&) {
    return {};  // malformed envelope: the replica drops it
  }
}

}  // namespace probft::shard
