// Signature-verification worker pool (the "multi-core replica" front end).
//
// The protocol loop stays single-threaded and ordered; what moves off it
// is the expensive, order-free part of message admission: decoding a
// message enough to know WHICH signatures/VRF proofs it carries, checking
// them, and memoizing the verdicts in a shared, thread-safe VerdictCache.
// The protocol thread then processes the message exactly as before — its
// verification calls all hit the warmed cache, so the semantics are
// byte-for-byte those of inline verification (verdicts are deterministic
// functions of message content; see verdict_cache.hpp).
//
//   network thread:  pool.submit(from, tag, payload)     (no crypto)
//   worker threads:  decode → preverify_tasks → CryptoSuite::verify_batch
//                    across ALL tasks claimed this round (amortizing the
//                    Straus MSM across concurrent slots, not just within
//                    one justification) → cache.store(verdicts)
//   network thread:  pool.drain(deliver) — re-injects messages into the
//                    ordered protocol loop strictly in submission order,
//                    which trivially preserves per-sender ordering.
//
// A message a worker cannot pre-verify (unknown tag, malformed payload,
// out-of-range sender) produces zero tasks and is delivered as-is: the
// replica's own handlers remain the single source of truth for rejection.
// The pool is an accelerator, never a gatekeeper — it can only ever warm
// the cache with verdicts the replica would have computed itself.
//
// threads == 0 degenerates to inline evaluation on submit(): same code
// path, no worker threads, no cross-thread handoff. The simulator never
// constructs a pool at all.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/bytes.hpp"
#include "common/mutex.hpp"
#include "common/types.hpp"
#include "core/messages.hpp"
#include "core/verdict_cache.hpp"
#include "crypto/suite.hpp"

namespace probft::core {

/// Everything preverification needs to know about the cluster. Mirrors the
/// corresponding ReplicaConfig fields — the derived sample_size MUST equal
/// ReplicaConfig::sample_size() or VRF verdicts will diverge from what the
/// replica computes (they would then disagree forever via the cache).
struct PreverifyContext {
  std::uint32_t n = 0;
  std::uint32_t sample_size = 0;
  /// Must mirror ReplicaConfig::leader_offset or leader-signature ('L')
  /// verdicts would be computed against the wrong key and poison the
  /// shared cache. Sharded SMR rewrites this per shard before recursing.
  View leader_offset = 0;
  const crypto::CryptoSuite* suite = nullptr;
  crypto::PublicKeyDir public_keys;  // 1-based; [0] unused; shared storage
};

/// One cacheable verification unit extracted from an inbound message.
struct VerifyTask {
  enum class Kind : std::uint8_t {
    kSignedBytes,  // one signature over owned signing bytes ('L'/'R'/'N')
    kPhaseFull,    // leader sig && sender sig && VRF for a Prepare/Commit
  };
  Kind kind = Kind::kSignedBytes;
  Bytes key;  // VerdictCache key the verdict is stored under

  // kSignedBytes:
  ReplicaId signer = 0;
  Bytes message;    // owned signing bytes (spans die with the task)
  Bytes signature;  // owned copy

  // kPhaseFull ('P' verdicts; tag selects the prepare/commit VRF domain):
  MsgTag tag = MsgTag::kPrepare;
  PhaseMsgPtr phase;
  /// The proposal's view leader under the extracting context's
  /// leader_offset — per frame, since one pool serves every shard.
  ReplicaId leader = 0;
};

/// Decodes one core-protocol message and lists the verdicts it will need.
/// Stateless; mirrors Replica's verification paths key-for-key.
[[nodiscard]] std::vector<VerifyTask> preverify_tasks(
    const PreverifyContext& ctx, std::uint8_t tag, const Bytes& payload);

/// Custom extractor hook, e.g. smr::preverify_tasks strips the SMR slot
/// envelope and recurses into the core extractor.
using PreverifyFn = std::function<std::vector<VerifyTask>(
    const PreverifyContext&, std::uint8_t, const Bytes&)>;

class VerifyPool {
 public:
  /// `cache` must be thread-safe when threads > 0 (it is shared with the
  /// consuming replica on the protocol thread); passing an unsynchronized
  /// cache with workers throws std::invalid_argument — that combination is
  /// a silent data race, not a configuration. Null extract = core
  /// protocol messages (preverify_tasks above).
  VerifyPool(PreverifyContext ctx, VerdictCachePtr cache, unsigned threads,
             PreverifyFn extract = {});
  ~VerifyPool();

  VerifyPool(const VerifyPool&) = delete;
  VerifyPool& operator=(const VerifyPool&) = delete;

  /// Enqueues one inbound message for preverification. Cheap (no crypto,
  /// no decode) when threads > 0; evaluates inline when threads == 0.
  void submit(ReplicaId from, std::uint8_t tag, Bytes payload)
      PROBFT_EXCLUDES(mu_);

  using Deliver =
      std::function<void(ReplicaId, std::uint8_t, const Bytes&)>;
  /// Delivers every message whose preverification has finished, strictly
  /// in submission order (a finished message behind an unfinished one
  /// waits). Returns the number delivered. Call from the protocol thread.
  std::size_t drain(const Deliver& deliver) PROBFT_EXCLUDES(mu_);

  /// Blocks until drain() would deliver at least one message, or every
  /// submitted message has been delivered already. For benches/tests and
  /// shutdown linger; the node path uses the ready callback instead.
  void wait_ready() PROBFT_EXCLUDES(mu_);

  /// True when every submitted message has been delivered.
  [[nodiscard]] bool idle() const PROBFT_EXCLUDES(mu_);

  /// Invoked FROM A WORKER THREAD whenever the head of the queue becomes
  /// deliverable; wire it to something like TcpTransport::post so the
  /// protocol thread wakes up and drains. May fire spuriously.
  void set_ready_callback(std::function<void()> cb) PROBFT_EXCLUDES(mu_);

  /// When enabled, records submit→ready latency per message (µs).
  void record_latencies(bool on) PROBFT_EXCLUDES(mu_);
  [[nodiscard]] std::vector<double> take_latencies_us() PROBFT_EXCLUDES(mu_);

  [[nodiscard]] unsigned threads() const { return threads_; }
  [[nodiscard]] const PreverifyContext& context() const { return ctx_; }
  [[nodiscard]] const VerdictCachePtr& cache() const { return cache_; }

 private:
  struct Entry {
    ReplicaId from = 0;
    std::uint8_t tag = 0;
    Bytes payload;
    bool done = false;
    std::chrono::steady_clock::time_point submitted;
  };

  void worker_loop() PROBFT_EXCLUDES(mu_);
  /// Decodes + batch-verifies a claimed run of entries; stores verdicts.
  /// Lock-free: the entries in `batch` are claimed-exclusive (removed from
  /// unclaimed_ under mu_, untouched by anyone else until marked done).
  void evaluate(const std::vector<Entry*>& batch) PROBFT_EXCLUDES(mu_);
  void mark_done(const std::vector<Entry*>& batch) PROBFT_EXCLUDES(mu_);

  const PreverifyContext ctx_;
  const VerdictCachePtr cache_;
  const unsigned threads_;
  const PreverifyFn extract_;

  mutable Mutex mu_;
  CondVar cv_work_;   // workers: unclaimed work arrived
  CondVar cv_ready_;  // owner: head became deliverable
  // submission order; popped by drain (deque: push_back/pop_front never
  // move surviving elements, so the Entry* in unclaimed_ stay valid)
  std::deque<Entry> fifo_ PROBFT_GUARDED_BY(mu_);
  std::deque<Entry*> unclaimed_ PROBFT_GUARDED_BY(mu_);  // suffix of fifo_
  std::function<void()> ready_cb_ PROBFT_GUARDED_BY(mu_);
  bool record_latencies_ PROBFT_GUARDED_BY(mu_) = false;
  std::vector<double> latencies_us_ PROBFT_GUARDED_BY(mu_);
  bool stop_ PROBFT_GUARDED_BY(mu_) = false;

  std::vector<std::thread> workers_;
};

}  // namespace probft::core
