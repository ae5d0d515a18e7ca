// Shard-aware preverification extractor for core::VerifyPool.
//
// Sharded consensus traffic is the SMR wire format wrapped once more:
// kShardTag ‖ u32 shard ‖ inner SMR frame. The extractor peels the shard
// envelope, rewrites the context's leader_offset to the shard id (leader
// signatures verify against leader_of(view + shard, n) — the group's
// rotated schedule), and recurses into smr::preverify_tasks. One pool and
// one verdict cache therefore serve every group: signatures from ALL
// shards land in the same verify_batch MSM. Every other tag is unwrapped
// SMR traffic (the S = 1 wire) and goes straight to smr::preverify_tasks,
// so this one extractor serves a service of any shard count.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "core/verify_pool.hpp"

namespace probft::shard {

/// Drop-in PreverifyFn for a pool sitting in front of a ShardedSmr of any
/// shard count.
[[nodiscard]] std::vector<core::VerifyTask> preverify_tasks(
    const core::PreverifyContext& ctx, std::uint8_t tag,
    const Bytes& payload);

}  // namespace probft::shard
