// The verification worker pool must be semantically invisible: a replica
// consuming messages through pool → drain (with its verdict cache warmed
// by worker threads) must behave bit-for-bit like a replica verifying
// inline, for valid, invalid and garbage traffic alike — and the drain
// order must be exactly the submission order (which preserves per-sender
// ordering trivially). These tests run identically under ASan and TSan;
// the TSan CI job exists largely to race the pool's workers for real.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/verify_pool.hpp"
#include "protocol_test_util.hpp"

namespace probft::core {
namespace {

using testutil::TestBed;

PreverifyContext context_for(const TestBed& bed) {
  PreverifyContext ctx;
  ctx.n = bed.n();
  ctx.sample_size = bed.sample_size();
  ctx.suite = &bed.suite();
  ctx.public_keys = bed.public_keys();
  return ctx;
}

struct Inbound {
  ReplicaId from = 0;
  std::uint8_t tag = 0;
  Bytes payload;
  bool operator==(const Inbound& other) const {
    return from == other.from && tag == other.tag &&
           payload == other.payload;
  }
};

/// A traffic mix exercising every extractor path: a valid decision
/// round, tampered signatures, a poisoned VRF proof, a NewLeader with a
/// certificate, and outright garbage.
std::vector<Inbound> make_traffic(const TestBed& bed, ReplicaId self) {
  const Bytes value = to_bytes("pool-value");
  std::vector<Inbound> msgs;
  msgs.push_back({1, tag_byte(MsgTag::kPropose),
                  bed.make_propose(1, value, 1).to_bytes()});
  for (ReplicaId s = 1; s <= bed.n(); ++s) {
    msgs.push_back({s, tag_byte(MsgTag::kPrepare),
                    bed.make_phase(MsgTag::kPrepare, 1, value, s, 1)
                        .to_bytes()});
  }
  // Tampered sender signature on a prepare.
  {
    auto m = bed.make_phase(MsgTag::kPrepare, 1, value, 2, 1);
    m.sender_sig[0] ^= 1;
    msgs.push_back({2, tag_byte(MsgTag::kPrepare), m.to_bytes()});
  }
  // Poisoned VRF proof on a commit.
  {
    auto m = bed.make_phase(MsgTag::kCommit, 1, value, 3, 1);
    m.vrf_proof[0] ^= 1;
    msgs.push_back({3, tag_byte(MsgTag::kCommit), m.to_bytes()});
  }
  // Forged leader signature inside a propose.
  {
    auto m = bed.make_propose(1, value, 1);
    m.proposal.leader_sig[0] ^= 1;
    msgs.push_back({1, tag_byte(MsgTag::kPropose), m.to_bytes()});
  }
  // NewLeader with a prepared certificate (batch-verified path).
  msgs.push_back(
      {4, tag_byte(MsgTag::kNewLeader),
       bed.make_new_leader(2, 4, 1, value, bed.make_cert(1, value, self, 1))
           .to_bytes()});
  // Garbage: must pass through untouched and be rejected by the replica.
  msgs.push_back({5, tag_byte(MsgTag::kPrepare), to_bytes("not a message")});
  msgs.push_back({6, 0x7f, to_bytes("unknown tag")});
  for (ReplicaId s = 1; s <= bed.n(); ++s) {
    msgs.push_back({s, tag_byte(MsgTag::kCommit),
                    bed.make_phase(MsgTag::kCommit, 1, value, s, 1)
                        .to_bytes()});
  }
  return msgs;
}

/// Pumps every message through the pool and returns the delivered
/// sequence (drained strictly in submission order, possibly in chunks).
std::vector<Inbound> pump(VerifyPool& pool, const std::vector<Inbound>& in) {
  for (const auto& m : in) pool.submit(m.from, m.tag, m.payload);
  std::vector<Inbound> out;
  while (out.size() < in.size()) {
    pool.wait_ready();
    pool.drain([&out](ReplicaId from, std::uint8_t tag, const Bytes& m) {
      out.push_back({from, tag, m});
    });
  }
  EXPECT_TRUE(pool.idle());
  return out;
}

// Regression (lock-discipline audit): a threaded pool used to silently
// accept a single-owner VerdictCache, handing an unsynchronized map to N
// worker threads — a data race TSan flagged only under the right
// interleaving. The constructor now refuses outright.
TEST(VerifyPoolGuards, ThreadedPoolRejectsUnsynchronizedCache) {
  TestBed bed(9, 2, 1.7, 3.0);
  auto unsafe = std::make_shared<VerdictCache>(/*thread_safe=*/false);
  EXPECT_THROW(VerifyPool(context_for(bed), unsafe, /*threads=*/2),
               std::invalid_argument);
  EXPECT_THROW(VerifyPool(context_for(bed), nullptr, /*threads=*/2),
               std::invalid_argument);
  // threads == 0 is the inline path: any cache (or none) stays legal.
  VerifyPool inline_pool(context_for(bed), unsafe, /*threads=*/0);
  EXPECT_TRUE(inline_pool.idle());
}

class VerifyPoolTest : public ::testing::TestWithParam<unsigned> {};

/// Pool-warmed replica vs inline replica, same traffic: identical outbox,
/// identical decisions, byte for byte.
TEST_P(VerifyPoolTest, WarmedReplicaMatchesInline) {
  const ReplicaId self = 5;
  // s == n == 9 keeps certificate construction deterministic.
  TestBed pool_bed(9, 2, 1.7, 3.0);
  TestBed inline_bed(9, 2, 1.7, 3.0);
  const auto traffic = make_traffic(pool_bed, self);

  auto cache = std::make_shared<VerdictCache>(/*thread_safe=*/true);
  VerifyPool pool(context_for(pool_bed), cache, GetParam());
  auto warmed =
      pool_bed.make_replica(self, to_bytes("own-value"), true, cache);
  auto plain = inline_bed.make_replica(self, to_bytes("own-value"), true);
  warmed->start();
  plain->start();

  const auto delivered = pump(pool, traffic);
  ASSERT_EQ(delivered.size(), traffic.size());
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    EXPECT_EQ(delivered[i], traffic[i]) << "reordered at " << i;
  }

  for (const auto& m : delivered) {
    warmed->on_message(m.from, m.tag, m.payload);
  }
  for (const auto& m : traffic) {
    plain->on_message(m.from, m.tag, m.payload);
  }

  ASSERT_EQ(pool_bed.decisions.size(), inline_bed.decisions.size());
  for (std::size_t i = 0; i < pool_bed.decisions.size(); ++i) {
    EXPECT_EQ(pool_bed.decisions[i].view, inline_bed.decisions[i].view);
    EXPECT_EQ(pool_bed.decisions[i].value, inline_bed.decisions[i].value);
  }
  ASSERT_EQ(pool_bed.outbox.size(), inline_bed.outbox.size());
  for (std::size_t i = 0; i < pool_bed.outbox.size(); ++i) {
    EXPECT_EQ(pool_bed.outbox[i].to, inline_bed.outbox[i].to);
    EXPECT_EQ(pool_bed.outbox[i].tag, inline_bed.outbox[i].tag);
    EXPECT_EQ(pool_bed.outbox[i].payload, inline_bed.outbox[i].payload);
  }
  EXPECT_FALSE(pool_bed.decisions.empty());  // the valid round decided
}

/// Workers actually store verdicts: after pumping, the cache holds the
/// leader-signature verdict for the round's proposal.
TEST_P(VerifyPoolTest, WorkersWarmTheCache) {
  TestBed bed(9, 2, 1.7, 3.0);
  const Bytes value = to_bytes("pool-value");
  auto cache = std::make_shared<VerdictCache>(/*thread_safe=*/true);
  VerifyPool pool(context_for(bed), cache, GetParam());
  pump(pool, make_traffic(bed, 5));
  const auto proposal = bed.sign_proposal(1, value, 1);
  const Bytes msg = SignedProposal::signing_bytes(1, value);
  EXPECT_TRUE(cache->contains(VerdictCache::signed_key(
      'L', ByteSpan(msg.data(), msg.size()), proposal.leader_sig)));
}

INSTANTIATE_TEST_SUITE_P(Threads, VerifyPoolTest,
                         ::testing::Values(0u, 1u, 3u));

/// Heavier reordering pressure: many cheap-but-unequal-cost messages
/// through 3 workers must still drain in exact submission order.
TEST(VerifyPoolOrder, SubmissionOrderSurvivesConcurrency) {
  TestBed bed(9, 2, 1.7, 3.0);
  const auto base = make_traffic(bed, 5);
  std::vector<Inbound> traffic;
  for (int round = 0; round < 8; ++round) {
    traffic.insert(traffic.end(), base.begin(), base.end());
  }
  auto cache = std::make_shared<VerdictCache>(/*thread_safe=*/true);
  VerifyPool pool(context_for(bed), cache, 3);
  const auto delivered = pump(pool, traffic);
  ASSERT_EQ(delivered.size(), traffic.size());
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    ASSERT_EQ(delivered[i], traffic[i]) << "reordered at " << i;
  }
}

}  // namespace
}  // namespace probft::core
