// Byzantine-certified checkpoints and the catch-up proofs built on them.
//
// The SMR engine used to let a straggler adopt a "decided" value once f+1
// distinct senders vouched for it, with sender identity supplied by the
// channel. That is fine inside the simulator, but over real sockets a
// single Byzantine peer who can forge sender ids forges f+1 vouchers and
// injects an arbitrary undecided value. This header replaces channel trust
// with signatures:
//
//  - A `CheckpointState` is the deterministic digest-able summary of an
//    executed prefix: next-exec slot, executed-command count, the chained
//    log digest at that slot, and the per-client dedup windows. Every correct
//    replica that executed the same prefix produces bit-identical state.
//  - At each checkpoint-interval slot boundary a replica signs the state
//    digest and broadcasts a `CheckpointVote`; 2f+1 matching votes form a
//    `CheckpointCert` — at least f+1 correct replicas attest the prefix,
//    so a verified cert is adoptable by anyone, from anyone.
//  - Decided-value hints now carry a signature over (slot, value digest):
//    f+1 hints only count when they verify against f+1 DISTINCT signers'
//    public keys, so vouchers can no longer be forged by one peer.
//
// The chained log digest (d0 = 0^32, d_{i+1} = SHA-256(d_i ‖ len ‖ batch_i))
// replaces the flat whole-log hash so the digest survives log truncation:
// a replica that discarded slots below its stable checkpoint keeps hashing
// forward from the checkpoint's digest and stays comparable with peers.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/types.hpp"
#include "crypto/suite.hpp"
#include "net/tags.hpp"
#include "smr/replay_window.hpp"

namespace probft::smr {

/// Wire tags for the certified catch-up path; values live in the central
/// registry (net/tags.hpp), these are local re-exports.
inline constexpr std::uint8_t kSmrCkptTag = net::tags::kSmrCkpt;
inline constexpr std::uint8_t kSmrStateTag = net::tags::kSmrState;

/// The chain's genesis digest: 32 zero bytes.
[[nodiscard]] Bytes zero_digest();

/// One chain step: SHA-256(prev ‖ u32 len ‖ value).
[[nodiscard]] Bytes chain_digest(const Bytes& prev, const Bytes& value);

/// Deterministic summary of an executed prefix. Two correct replicas that
/// executed the same slots produce identical encodings (dedup is kept
/// sorted by client id), hence identical digests.
struct CheckpointState {
  std::uint64_t slot = 0;        // next slot to execute (= slots executed)
  std::uint64_t exec_count = 0;  // commands executed so far
  Bytes log_digest;              // 32-byte chained digest at `slot`
  /// Per-client anti-replay windows, ascending by client id.
  std::vector<std::pair<std::uint64_t, ReplayWindow>> dedup;

  void encode(Writer& w) const;
  static CheckpointState decode(Reader& r);
  /// SHA-256 over the encoding — what votes and certs sign.
  [[nodiscard]] Bytes digest() const;
};

/// Domain-separated signing bytes for a checkpoint vote.
[[nodiscard]] Bytes checkpoint_signing_bytes(std::uint64_t slot,
                                             const Bytes& state_digest);

/// Domain-separated signing bytes for a decided-value hint: the signer
/// attests "slot `slot` decided the batch hashing to `value_digest`".
[[nodiscard]] Bytes hint_signing_bytes(std::uint64_t slot,
                                       const Bytes& value_digest);

struct CheckpointVote {
  std::uint64_t slot = 0;
  Bytes state_digest;
  ReplicaId signer = 0;
  Bytes signature;

  void encode(Writer& w) const;
  static CheckpointVote decode(Reader& r);
};

/// 2f+1 matching votes over one state digest.
struct CheckpointCert {
  std::uint64_t slot = 0;
  Bytes state_digest;
  /// (signer, signature), ascending by signer, no duplicates.
  std::vector<std::pair<ReplicaId, Bytes>> signatures;

  void encode(Writer& w) const;
  static CheckpointCert decode(Reader& r);
};

/// True iff `cert` carries >= 2f+1 signatures from distinct in-range
/// signers, each valid over checkpoint_signing_bytes(slot, digest).
[[nodiscard]] bool verify_checkpoint_cert(const CheckpointCert& cert,
                                          std::uint32_t n, std::uint32_t f,
                                          const crypto::CryptoSuite& suite,
                                          const crypto::PublicKeyDir& keys);

}  // namespace probft::smr
