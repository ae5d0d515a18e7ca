#include "core/verify_pool.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/codec.hpp"
#include "crypto/sampler.hpp"

namespace probft::core {

namespace {

/// Entries one worker claims per round. Large enough to amortize the batch
/// verifier's random-linear-combination setup across messages from many
/// concurrent slots, small enough that the FIFO head does not starve
/// behind one worker's giant claim.
constexpr std::size_t kClaimBatch = 16;

bool sender_in_range(ReplicaId sender, std::uint32_t n) {
  return sender >= 1 && sender <= n;
}

/// Mirrors Replica::phase_vrf_ok byte-for-byte: same alpha derivation,
/// same sample size. Any divergence would poison the shared cache.
bool phase_vrf_ok(const PreverifyContext& ctx, MsgTag tag,
                  const PhaseMsg& m) {
  const char* phase = tag == MsgTag::kPrepare ? "prepare" : "commit";
  const Bytes alpha = crypto::sample_alpha(m.proposal.view, phase);
  return crypto::vrf_sample_verify(
      *ctx.suite, ctx.public_keys[m.sender],
      ByteSpan(alpha.data(), alpha.size()), ctx.n, ctx.sample_size, m.sample,
      m.vrf_proof);
}

void push_phase_task(std::vector<VerifyTask>& out, const PreverifyContext& ctx,
                     MsgTag tag, PhaseMsgPtr pm) {
  if (!sender_in_range(pm->sender, ctx.n)) return;
  if (pm->proposal.view == 0) return;
  VerifyTask t;
  t.kind = VerifyTask::Kind::kPhaseFull;
  t.key = VerdictCache::digest_key(pm->content_digest(), 'P',
                                   static_cast<std::uint8_t>(tag));
  t.tag = tag;
  t.leader = leader_of(pm->proposal.view + ctx.leader_offset, ctx.n);
  t.phase = std::move(pm);
  out.push_back(std::move(t));
}

void push_new_leader_tasks(std::vector<VerifyTask>& out,
                           const PreverifyContext& ctx,
                           const NewLeaderMsg& nl) {
  if (!sender_in_range(nl.sender, ctx.n)) return;
  VerifyTask t;
  t.kind = VerifyTask::Kind::kSignedBytes;
  t.key = VerdictCache::digest_key(nl.content_digest(), 'N', 0);
  t.signer = nl.sender;
  t.message = nl.signing_bytes();
  t.signature = nl.sender_sig;
  out.push_back(std::move(t));
  // Certificate members are always Prepares (prefetch_new_leaders keys
  // them under the kPrepare tag regardless of how they arrived).
  for (const PhaseMsgPtr& pm : nl.cert) {
    push_phase_task(out, ctx, MsgTag::kPrepare, pm);
  }
}

}  // namespace

std::vector<VerifyTask> preverify_tasks(const PreverifyContext& ctx,
                                        std::uint8_t tag,
                                        const Bytes& payload) {
  std::vector<VerifyTask> out;
  try {
    switch (static_cast<MsgTag>(tag)) {
      case MsgTag::kPrepare:
      case MsgTag::kCommit: {
        auto pm = std::make_shared<const PhaseMsg>(
            PhaseMsg::from_bytes(ByteSpan(payload.data(), payload.size())));
        push_phase_task(out, ctx, static_cast<MsgTag>(tag), std::move(pm));
        break;
      }
      case MsgTag::kPropose: {
        const ProposeMsg m =
            ProposeMsg::from_bytes(ByteSpan(payload.data(), payload.size()));
        if (m.proposal.view < 1) break;
        // The leader signature over ⟨v,x⟩ ('L') …
        {
          VerifyTask t;
          t.kind = VerifyTask::Kind::kSignedBytes;
          t.message = SignedProposal::signing_bytes(m.proposal.view,
                                                    ByteSpan(m.proposal.value.data(),
                                                             m.proposal.value.size()));
          t.key = VerdictCache::signed_key(
              'L', ByteSpan(t.message.data(), t.message.size()),
              m.proposal.leader_sig);
          t.signer = leader_of(m.proposal.view + ctx.leader_offset, ctx.n);
          t.signature = m.proposal.leader_sig;
          out.push_back(std::move(t));
        }
        // … the Propose sender signature ('R') …
        if (sender_in_range(m.sender, ctx.n)) {
          VerifyTask t;
          t.kind = VerifyTask::Kind::kSignedBytes;
          t.message = m.signing_bytes();
          t.key = VerdictCache::signed_key(
              'R', ByteSpan(t.message.data(), t.message.size()),
              m.sender_sig);
          t.signer = m.sender;
          t.signature = m.sender_sig;
          out.push_back(std::move(t));
        }
        // … and the whole justification ('N' + cert 'P' verdicts).
        for (const NewLeaderMsg& nl : m.justification) {
          push_new_leader_tasks(out, ctx, nl);
        }
        break;
      }
      case MsgTag::kNewLeader: {
        const NewLeaderMsg m = NewLeaderMsg::from_bytes(
            ByteSpan(payload.data(), payload.size()));
        push_new_leader_tasks(out, ctx, m);
        break;
      }
      default:
        break;  // Wish traffic and unknown tags: nothing to pre-verify.
    }
  } catch (const CodecError&) {
    out.clear();  // malformed: deliver as-is, the replica rejects it
  }
  return out;
}

// ---------------- VerifyPool ----------------

VerifyPool::VerifyPool(PreverifyContext ctx, VerdictCachePtr cache,
                       unsigned threads, PreverifyFn extract)
    : ctx_(std::move(ctx)),
      cache_(std::move(cache)),
      threads_(threads),
      extract_(extract ? std::move(extract) : PreverifyFn(&preverify_tasks)) {
  if (threads_ > 0 && (!cache_ || !cache_->thread_safe())) {
    // Workers store verdicts while the protocol thread looks them up; an
    // unsynchronized cache here is a data race that happens to pass most
    // schedules. Refuse loudly instead.
    throw std::invalid_argument(
        "VerifyPool: threads > 0 requires a thread-safe VerdictCache "
        "(construct it with VerdictCache(/*thread_safe=*/true))");
  }
  workers_.reserve(threads_);
  for (unsigned i = 0; i < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

VerifyPool::~VerifyPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void VerifyPool::submit(ReplicaId from, std::uint8_t tag, Bytes payload) {
  if (threads_ == 0) {
    // Inline mode: same evaluation code, no handoff. The entry is ready
    // the moment submit returns.
    Entry e;
    e.from = from;
    e.tag = tag;
    e.payload = std::move(payload);
    e.submitted = std::chrono::steady_clock::now();
    evaluate({&e});
    e.done = true;
    MutexLock lock(mu_);
    if (record_latencies_) {
      latencies_us_.push_back(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - e.submitted)
              .count());
    }
    fifo_.push_back(std::move(e));
    return;
  }
  {
    MutexLock lock(mu_);
    fifo_.push_back(Entry{from, tag, std::move(payload), false,
                          std::chrono::steady_clock::now()});
    unclaimed_.push_back(&fifo_.back());
  }
  cv_work_.notify_one();
}

std::size_t VerifyPool::drain(const Deliver& deliver) {
  std::size_t delivered = 0;
  for (;;) {
    Entry entry;
    {
      MutexLock lock(mu_);
      if (fifo_.empty() || !fifo_.front().done) break;
      entry = std::move(fifo_.front());
      fifo_.pop_front();
    }
    deliver(entry.from, entry.tag, entry.payload);
    ++delivered;
  }
  return delivered;
}

void VerifyPool::wait_ready() {
  MutexLock lock(mu_);
  while (!fifo_.empty() && !fifo_.front().done) cv_ready_.wait(mu_);
}

bool VerifyPool::idle() const {
  MutexLock lock(mu_);
  return fifo_.empty();
}

void VerifyPool::set_ready_callback(std::function<void()> cb) {
  MutexLock lock(mu_);
  ready_cb_ = std::move(cb);
}

void VerifyPool::record_latencies(bool on) {
  MutexLock lock(mu_);
  record_latencies_ = on;
}

std::vector<double> VerifyPool::take_latencies_us() {
  MutexLock lock(mu_);
  return std::exchange(latencies_us_, {});
}

void VerifyPool::worker_loop() {
  for (;;) {
    std::vector<Entry*> batch;
    {
      MutexLock lock(mu_);
      while (!stop_ && unclaimed_.empty()) cv_work_.wait(mu_);
      if (stop_) return;
      const std::size_t take = std::min(kClaimBatch, unclaimed_.size());
      batch.assign(unclaimed_.begin(),
                   unclaimed_.begin() + static_cast<std::ptrdiff_t>(take));
      unclaimed_.erase(unclaimed_.begin(),
                       unclaimed_.begin() + static_cast<std::ptrdiff_t>(take));
    }
    evaluate(batch);
    mark_done(batch);
  }
}

void VerifyPool::mark_done(const std::vector<Entry*>& batch) {
  bool head_ready = false;
  std::function<void()> cb;
  {
    MutexLock lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    for (Entry* e : batch) {
      e->done = true;
      if (record_latencies_) {
        latencies_us_.push_back(
            std::chrono::duration<double, std::micro>(now - e->submitted)
                .count());
      }
    }
    head_ready = !fifo_.empty() && fifo_.front().done;
    if (head_ready) cb = ready_cb_;
  }
  if (head_ready) {
    cv_ready_.notify_all();
    if (cb) cb();
  }
}

void VerifyPool::evaluate(const std::vector<Entry*>& batch) {
  // Per-task bookkeeping while the combined batch check runs. The Bytes
  // members own the signing byte strings the SigCheck spans point into;
  // vector reallocation moves the Bytes objects but not their heap
  // buffers, so the spans stay valid.
  struct Work {
    const VerifyTask* task = nullptr;
    int signed_check = -1;  // kSignedBytes: its one check
    int leader_check = -1;  // kPhaseFull: leader-sig check (-1 = cached/shared)
    int sender_check = -1;  // kPhaseFull: sender-sig check
    bool leader_cached_ok = false;
    bool leader_was_cached = false;
    Bytes leader_key;  // kPhaseFull: the 'L' verdict is stored as a bonus
    Bytes leader_msg;
    Bytes sender_msg;
  };

  std::vector<std::vector<VerifyTask>> extracted;
  extracted.reserve(batch.size());
  for (const Entry* e : batch) {
    extracted.push_back(extract_(ctx_, e->tag, e->payload));
  }

  std::vector<Work> works;
  std::vector<crypto::SigCheck> checks;
  // Tasks already covered this round (several messages in one claim often
  // reference the same certificate members) and leader tuples already
  // given a check slot.
  std::unordered_set<Bytes, VerdictCache::DigestHash> seen;
  std::unordered_map<Bytes, int, VerdictCache::DigestHash> leader_slots;

  const auto add_check = [&](ReplicaId signer, const Bytes& msg,
                             const Bytes& sig) {
    const Bytes& pk = ctx_.public_keys[signer];
    checks.push_back({ByteSpan(pk.data(), pk.size()),
                      ByteSpan(msg.data(), msg.size()),
                      ByteSpan(sig.data(), sig.size())});
    return static_cast<int>(checks.size()) - 1;
  };

  for (const auto& tasks : extracted) {
    for (const VerifyTask& t : tasks) {
      if (cache_->contains(t.key) || !seen.insert(t.key).second) continue;
      Work w;
      w.task = &t;
      if (t.kind == VerifyTask::Kind::kSignedBytes) {
        w.signed_check = add_check(t.signer, t.message, t.signature);
      } else {
        const PhaseMsg& m = *t.phase;
        w.leader_msg = SignedProposal::signing_bytes(
            m.proposal.view,
            ByteSpan(m.proposal.value.data(), m.proposal.value.size()));
        w.leader_key = VerdictCache::signed_key(
            'L', ByteSpan(w.leader_msg.data(), w.leader_msg.size()),
            m.proposal.leader_sig);
        if (const auto hit = cache_->lookup(w.leader_key)) {
          w.leader_was_cached = true;
          w.leader_cached_ok = *hit;
        } else if (const auto slot = leader_slots.find(w.leader_key);
                   slot != leader_slots.end()) {
          w.leader_check = slot->second;
        } else {
          w.leader_check = add_check(t.leader, w.leader_msg,
                                     m.proposal.leader_sig);
          leader_slots.emplace(w.leader_key, w.leader_check);
        }
        w.sender_msg = m.signing_bytes(t.tag);
        w.sender_check = add_check(m.sender, w.sender_msg, m.sender_sig);
      }
      works.push_back(std::move(w));
    }
  }
  if (works.empty()) return;

  // One combined random-linear-combination check across every signature
  // this claim needs — messages from many concurrent SMR slots share the
  // MSM. On failure (≥ 1 bad signature somewhere) fall back to per-item
  // verification so every cached verdict stays exact.
  const bool all_ok = checks.empty() || ctx_.suite->verify_batch(checks);
  const auto check_ok = [&](int idx) {
    return all_ok || ctx_.suite->verify(checks[idx].public_key,
                                        checks[idx].message,
                                        checks[idx].signature);
  };

  for (const Work& w : works) {
    const VerifyTask& t = *w.task;
    bool ok;
    if (t.kind == VerifyTask::Kind::kSignedBytes) {
      ok = check_ok(w.signed_check);
    } else {
      const bool leader_ok =
          w.leader_was_cached ? w.leader_cached_ok : check_ok(w.leader_check);
      if (!w.leader_was_cached) cache_->store(w.leader_key, leader_ok);
      // VRF only when the signatures hold — the verdict is the same either
      // way (logical AND) and the sample expansion is not free.
      ok = leader_ok && check_ok(w.sender_check) &&
           phase_vrf_ok(ctx_, t.tag, *t.phase);
    }
    cache_->store(t.key, ok);
  }
}

}  // namespace probft::core
