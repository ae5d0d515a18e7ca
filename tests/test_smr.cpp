// Pipelined, batched state machine replication over ProBFT (src/smr): a
// single-group sim::SmrFleet on the simulated network must produce identical
// logs, execute each (client, seq) exactly once, keep at most
// window + retire_tail consensus instances alive, and open no slots while
// idle.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "smr/replay_window.hpp"
#include "smr/smr_replica.hpp"
#include "smr_test_util.hpp"

namespace probft::smr {
namespace {

TEST(Smr, SingleCommandCommitsEverywhere) {
  Fleet fleet(6);
  fleet.replica(1).submit(to_bytes("cmd-1"));
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(1));
  for (ReplicaId id = 1; id <= 6; ++id) {
    ASSERT_EQ(fleet.replica(id).log().size(), 1U);
    EXPECT_EQ(fleet.replica(id).log()[0], to_bytes("cmd-1"));
  }
}

TEST(Smr, LogsAreIdenticalAcrossReplicas) {
  Fleet fleet(6);
  // Several clients submit to different replicas; non-leader submissions
  // are forwarded to the round-robin view-1 leader.
  fleet.replica(1).submit(to_bytes("a"));
  fleet.replica(2).submit(to_bytes("b"));
  fleet.replica(3).submit(to_bytes("c"));
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(3));
  const auto& reference = fleet.replica(1).log();
  ASSERT_EQ(reference.size(), 3U);
  for (ReplicaId id = 2; id <= 6; ++id) {
    EXPECT_EQ(fleet.replica(id).log(), reference) << "replica " << id;
    EXPECT_EQ(fleet.replica(id).slot_log(), fleet.replica(1).slot_log())
        << "replica " << id;
  }
  EXPECT_TRUE(fleet.replica(4).has_committed(to_bytes("b")));
}

TEST(Smr, BatchingAmortizesSlots) {
  SmrOptions options;
  options.batch_max_commands = 16;
  options.window = 4;
  Fleet fleet(4, 0, 2.0, options);
  for (int i = 0; i < 32; ++i) {
    fleet.replica(1).submit(to_bytes("op-" + std::to_string(i)));
  }
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(32));
  // 32 commands in batches of 16: exactly 2 slots.
  EXPECT_EQ(fleet.replica(1).committed_slots(), 2U);
  EXPECT_EQ(fleet.replica(1).log().size(), 32U);
}

TEST(Smr, WindowRunsSlotsConcurrently) {
  SmrOptions options;
  options.window = 4;
  options.batch_max_commands = 1;
  Fleet fleet(4, 0, 2.0, options);
  for (int i = 0; i < 8; ++i) {
    fleet.replica(1).submit(to_bytes("op-" + std::to_string(i)));
  }
  fleet.start();
  // The leader must have slots 0..3 in flight before anything executed.
  bool saw_full_window = false;
  while (fleet.simulator().now() < 300'000'000) {
    if (fleet.replica(1).next_unopened_slot() -
            fleet.replica(1).committed_slots() >=
        4) {
      saw_full_window = true;
      break;
    }
    if (!fleet.simulator().step()) break;
  }
  EXPECT_TRUE(saw_full_window);
  ASSERT_TRUE(fleet.run_until_executed(8));
  EXPECT_EQ(fleet.replica(1).committed_slots(), 8U);
}

TEST(Smr, SerialWindowMatchesPipelinedLog) {
  // Acceptance: per-seed logs are bit-identical across window sizes for
  // fault-free runs — the pipeline only changes scheduling, not content.
  auto run = [](std::uint32_t window) {
    SmrOptions options;
    options.window = window;
    options.batch_max_commands = 4;
    Fleet fleet(5, 0, 2.0, options, /*seed=*/7);
    for (int i = 0; i < 16; ++i) {
      fleet.replica(1).submit(to_bytes("cmd-" + std::to_string(i)));
    }
    fleet.start();
    EXPECT_TRUE(fleet.run_until_executed(16));
    return fleet.replica(1).slot_log();
  };
  const auto serial = run(1);
  const auto pipelined = run(8);
  EXPECT_EQ(serial, pipelined);
}

TEST(Smr, IdleFleetOpensNoSlots) {
  Fleet fleet(4);
  fleet.start();  // nobody submits anything
  fleet.simulator().run_until(5'000'000);
  for (ReplicaId id = 1; id <= 4; ++id) {
    EXPECT_EQ(fleet.replica(id).committed_slots(), 0U);
    EXPECT_EQ(fleet.replica(id).next_unopened_slot(), 0U);
    EXPECT_EQ(fleet.replica(id).open_instances(), 0U);
  }
  // Demand-driven opening: an idle fleet sends nothing at all.
  EXPECT_EQ(fleet.network().stats().sends, 0U);
}

TEST(Smr, IdleFleetExecutesLoneSubmitBeforePacingTimeout) {
  // Nothing in flight: a partial batch opens at once instead of waiting
  // out the pacing timer, so a lone request costs one ordering round.
  SmrOptions options;
  options.batch_max_commands = 64;  // never fills
  options.batch_timeout = 1'000'000;
  Fleet fleet(4, 0, 2.0, options);
  fleet.start();
  fleet.simulator().run_until(50'000);
  const TimePoint submitted = fleet.simulator().now();
  fleet.replica(2).submit(to_bytes("lonely"));  // forwarded to leader 1
  ASSERT_TRUE(
      fleet.run_until_executed(1, submitted + options.batch_timeout));
  EXPECT_EQ(fleet.replica(3).log()[0], to_bytes("lonely"));
}

TEST(Smr, PacingTimerFlushesPartialBatchBehindInFlightSlot) {
  SmrOptions options;
  options.batch_max_commands = 64;  // never fills
  options.batch_timeout = 10'000;
  Fleet fleet(4, 0, 2.0, options);
  // A network outage holds slot 0 in flight: nothing it sends arrives.
  fleet.network().set_filter(
      [](ReplicaId, ReplicaId, std::uint8_t) { return true; });
  fleet.start();
  SmrReplica& leader = fleet.replica(1);
  const TimePoint t0 = fleet.simulator().now();
  leader.submit(to_bytes("first"));   // idle pipeline: slot 0 opens now
  leader.submit(to_bytes("second"));  // behind slot 0: paced
  EXPECT_EQ(leader.next_unopened_slot(), 1U);
  fleet.simulator().run_until(t0 + options.batch_timeout);
  EXPECT_EQ(leader.next_unopened_slot(), 1U);
  fleet.simulator().run_until(t0 + options.batch_timeout + 1);
  EXPECT_EQ(leader.next_unopened_slot(), 2U);  // the timer flushed it
  EXPECT_EQ(leader.committed_slots(), 0U);     // slot 0 still in flight
  fleet.network().clear_filter();
  ASSERT_TRUE(fleet.run_until_executed(2));
  EXPECT_TRUE(fleet.replica(2).has_committed(to_bytes("second")));
}

TEST(Smr, RetriedRequestExecutesExactlyOnce) {
  Fleet fleet(4);
  std::vector<int> executions(5, 0);  // per replica
  fleet.set_on_execute(
      [&executions](ReplicaId id, shard::ShardId, const ExecutedCommand&) {
        ++executions[id];
      });
  const std::uint64_t client = 4242;
  // The client submits to replica 1, then retries the same request at
  // replica 2 (e.g. after a timeout): the request must execute once.
  EXPECT_TRUE(fleet.replica(1).submit_request(client, 1, to_bytes("pay")));
  EXPECT_TRUE(fleet.replica(2).submit_request(client, 1, to_bytes("pay")));
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(1));
  fleet.simulator().run_until(fleet.simulator().now() + 2'000'000);
  for (ReplicaId id = 1; id <= 4; ++id) {
    EXPECT_EQ(fleet.replica(id).executed_commands(), 1U) << "replica " << id;
    EXPECT_EQ(fleet.replica(id).last_executed_seq(client), 1U);
    EXPECT_EQ(executions[id], 1);
  }
}

TEST(Smr, DuplicateSubmitRejectedLocally) {
  Fleet fleet(4);
  EXPECT_TRUE(fleet.replica(1).submit_request(7, 3, to_bytes("x")));
  EXPECT_FALSE(fleet.replica(1).submit_request(7, 3, to_bytes("x")));
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(1));
  // Post-execution retry is also a no-op.
  EXPECT_FALSE(fleet.replica(1).submit_request(7, 3, to_bytes("x")));
  // A seq at or below 64 under the highest executed one counts as
  // executed (outside the replay window).
  EXPECT_TRUE(fleet.replica(1).submit_request(8, 100, to_bytes("top")));
  ASSERT_TRUE(fleet.run_until_executed(2));
  EXPECT_FALSE(fleet.replica(1).submit_request(8, 36, to_bytes("old")));
  EXPECT_TRUE(fleet.replica(1).submit_request(8, 37, to_bytes("in")));
}

TEST(Smr, ReplayWindowTracksTheLast64Seqs) {
  ReplayWindow w;
  EXPECT_FALSE(w.executed(0));
  EXPECT_FALSE(w.executed(5));
  w.mark(5);
  EXPECT_TRUE(w.executed(5));
  EXPECT_FALSE(w.executed(4));
  EXPECT_FALSE(w.executed(6));
  w.mark(3);
  EXPECT_TRUE(w.executed(3));
  EXPECT_FALSE(w.executed(4));
  w.mark(70);  // slides by 65: everything at or below 6 falls out
  EXPECT_TRUE(w.executed(70));
  EXPECT_FALSE(w.executed(7));
  EXPECT_TRUE(w.executed(6));  // too old: treated as executed
  EXPECT_EQ(w.bits, 1U);
  w.mark(71);
  EXPECT_TRUE(w.executed(70));
  EXPECT_EQ(w.top, 71U);
}

TEST(Smr, PipelinedClientLowSeqExecutesAfterHigherOnes) {
  // Seqs 2 and 3 execute first (as when the slot holding seq 1 decided
  // another batch); seq 1 must still execute, exactly once.
  Fleet fleet(4);
  std::vector<std::uint64_t> order;
  fleet.set_on_execute(
      [&order](ReplicaId id, shard::ShardId, const ExecutedCommand& cmd) {
        if (id == 2) order.push_back(cmd.seq);
      });
  fleet.start();
  EXPECT_TRUE(fleet.replica(1).submit_request(7, 2, to_bytes("b")));
  EXPECT_TRUE(fleet.replica(1).submit_request(7, 3, to_bytes("c")));
  ASSERT_TRUE(fleet.run_until_executed(2));
  EXPECT_TRUE(fleet.replica(1).submit_request(7, 1, to_bytes("a")));
  ASSERT_TRUE(fleet.run_until_executed(3));
  fleet.simulator().run_until(fleet.simulator().now() + 2'000'000);
  EXPECT_FALSE(fleet.replica(1).submit_request(7, 1, to_bytes("a")));
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 3, 1}));
  for (ReplicaId id = 1; id <= 4; ++id) {
    EXPECT_EQ(fleet.replica(id).executed_commands(), 3U) << "replica " << id;
    EXPECT_TRUE(fleet.replica(id).has_executed(7, 1));
  }
}

TEST(Smr, RetirementBoundsLiveInstances) {
  // Regression for the unbounded instances_ map: a long log (length ≫
  // window) must not keep every decided core::Replica alive.
  SmrOptions options;
  options.window = 4;
  options.batch_max_commands = 1;
  options.retire_tail = 2;
  Fleet fleet(4, 0, 2.0, options);
  for (int i = 0; i < 48; ++i) {
    fleet.replica(1).submit(to_bytes("op-" + std::to_string(i)));
  }
  fleet.start();
  const std::size_t bound = options.window + options.retire_tail;
  while (fleet.simulator().now() < 300'000'000) {
    bool all = true;
    for (ReplicaId id = 1; id <= 4; ++id) {
      EXPECT_LE(fleet.replica(id).open_instances(), bound)
          << "replica " << id << " at " << fleet.simulator().now();
      if (fleet.replica(id).executed_commands() < 48) all = false;
    }
    if (all) break;
    if (!fleet.simulator().step()) break;
  }
  for (ReplicaId id = 1; id <= 4; ++id) {
    ASSERT_EQ(fleet.replica(id).executed_commands(), 48U);
    EXPECT_EQ(fleet.replica(id).committed_slots(), 48U);
    EXPECT_LE(fleet.replica(id).open_instances(), bound);
  }
}

TEST(Smr, StragglerCatchesUpViaHints) {
  // Replica 6 is partitioned while the first command decides (at n = 6
  // the q = ⌈2√6⌉ = 5 quorum is reachable without it); the others
  // execute, retire the slot, and freeze its instance. New traffic after
  // the heal makes replica 6 open the missed slot, and decided-value
  // hints from its peers let it catch up.
  SmrOptions options;
  options.window = 2;
  options.retire_tail = 0;
  Fleet fleet(6, 0, 2.0, options);
  fleet.network().set_filter([](ReplicaId from, ReplicaId to, std::uint8_t) {
    return from == 6 || to == 6;
  });
  fleet.replica(1).submit(to_bytes("first"));
  fleet.start();
  while (fleet.simulator().now() < 100'000'000 &&
         (fleet.replica(1).executed_commands() < 1 ||
          fleet.replica(2).executed_commands() < 1 ||
          fleet.replica(5).executed_commands() < 1)) {
    if (!fleet.simulator().step()) break;
  }
  ASSERT_EQ(fleet.replica(1).executed_commands(), 1U);
  ASSERT_EQ(fleet.replica(6).executed_commands(), 0U);

  fleet.network().clear_filter();
  fleet.replica(1).submit(to_bytes("second"));
  ASSERT_TRUE(fleet.run_until_executed(2));
  EXPECT_EQ(fleet.replica(6).log(), fleet.replica(1).log());
}

TEST(Smr, StragglerCatchesUpFromBeyondTheWindow) {
  // Regression: a replica that misses MORE slots than the open window
  // (here 8 decided slots vs window 2) must still recover — traffic for
  // far-future slots cannot be opened or buffered, so recovery rides
  // entirely on the catch-up pull → hint protocol.
  SmrOptions options;
  options.window = 2;
  options.batch_max_commands = 1;
  options.retire_tail = 0;
  options.catchup_timeout = 50'000;
  Fleet fleet(6, 0, 2.0, options);
  fleet.network().set_filter([](ReplicaId from, ReplicaId to, std::uint8_t) {
    return from == 6 || to == 6;
  });
  for (int i = 0; i < 8; ++i) {
    fleet.replica(1).submit(to_bytes("op-" + std::to_string(i)));
  }
  fleet.start();
  while (fleet.simulator().now() < 150'000'000 &&
         fleet.replica(1).executed_commands() < 8) {
    if (!fleet.simulator().step()) break;
  }
  ASSERT_EQ(fleet.replica(1).executed_commands(), 8U);
  ASSERT_EQ(fleet.replica(6).executed_commands(), 0U);

  fleet.network().clear_filter();
  fleet.replica(1).submit(to_bytes("after-heal"));
  ASSERT_TRUE(fleet.run_until_executed(9));
  EXPECT_EQ(fleet.replica(6).log(), fleet.replica(1).log());
  EXPECT_EQ(fleet.replica(6).committed_slots(), 9U);
}

TEST(Smr, StragglerBeyondTheHorizonPullsWithoutWaitingForTheTimer) {
  // Traffic for slots beyond the buffering horizon is dropped, so those
  // slots can only finish from hints: the straggler pulls at once and
  // chains a pull per window as it executes — here the catch-up timer is
  // far too slow to be what rescues it.
  SmrOptions options;
  options.window = 2;
  options.batch_max_commands = 1;
  options.retire_tail = 0;
  options.catchup_timeout = 3'600'000'000;  // one hour
  Fleet fleet(6, 0, 2.0, options);
  fleet.network().set_filter([](ReplicaId from, ReplicaId to, std::uint8_t) {
    return from == 6 || to == 6;
  });
  for (int i = 0; i < 8; ++i) {
    fleet.replica(1).submit(to_bytes("op-" + std::to_string(i)));
  }
  fleet.start();
  ASSERT_TRUE(fleet.run_until(
      [&fleet] { return fleet.replica(1).executed_commands() == 8; },
      150'000'000));
  ASSERT_EQ(fleet.replica(6).executed_commands(), 0U);

  fleet.network().clear_filter();
  fleet.replica(1).submit(to_bytes("after-heal"));
  ASSERT_TRUE(fleet.run_until_executed(9, fleet.simulator().now() +
                                              10'000'000));
  EXPECT_EQ(fleet.replica(6).log(), fleet.replica(1).log());
}

TEST(Smr, ForwardFloodIsBounded) {
  // Regression: a Byzantine peer spamming unique forwarded requests must
  // hit the intake cap, not grow the queue without bound.
  SmrOptions options;
  options.max_pending_requests = 16;
  Fleet fleet(4, 0, 2.0, options);
  for (std::uint64_t i = 0; i < 200; ++i) {
    Writer w;
    Request{/*client=*/100'000 + i, /*seq=*/1, to_bytes("flood")}.encode(w);
    fleet.replica(1).on_message(2, kSmrForwardTag, std::move(w).take());
  }
  EXPECT_LE(fleet.replica(1).pending_commands(), 16U);
  // Local submissions see the same backpressure, loudly.
  Fleet small(4, 0, 2.0, options);
  for (int i = 0; i < 16; ++i) {
    small.replica(1).submit(to_bytes("fill-" + std::to_string(i)));
  }
  EXPECT_THROW(small.replica(1).submit(to_bytes("one-too-many")),
               std::overflow_error);
}

TEST(Smr, RejectsEmptyAndOversizedCommands) {
  SmrOptions options;
  options.batch_max_bytes = 256;
  Fleet fleet(4, 0, 2.0, options);
  EXPECT_THROW(fleet.replica(1).submit(Bytes{}), std::invalid_argument);
  EXPECT_THROW(fleet.replica(1).submit(Bytes(512, 0xaa)),
               std::invalid_argument);
  EXPECT_FALSE(fleet.replica(1).submit_request(1, 1, Bytes{}));
  EXPECT_FALSE(fleet.replica(1).submit_request(1, 1, Bytes(512, 0xaa)));
}

TEST(Smr, RejectsBadConfig) {
  SmrConfig cfg;  // id = 0
  EXPECT_THROW(SmrReplica(cfg, {}), std::invalid_argument);
  Fleet fleet(1);  // n = 1 just to borrow key material
  SmrConfig zero_window;
  zero_window.id = 1;
  zero_window.n = 1;
  zero_window.suite = &fleet.suite();
  zero_window.secret_key = fleet.keys()[1].secret_key;
  zero_window.public_keys = crypto::PublicKeyDir(
      std::vector<Bytes>{Bytes{}, fleet.keys()[1].public_key});
  zero_window.pipeline.window = 0;
  EXPECT_THROW(SmrReplica(zero_window, {}), std::invalid_argument);
}

TEST(Smr, MalformedEnvelopesAreDropped) {
  Fleet fleet(4);
  fleet.start();
  fleet.replica(1).on_message(2, kSmrTag, Bytes{0x01});        // truncated
  fleet.replica(1).on_message(2, kSmrHintTag, Bytes{0x01});    // truncated
  fleet.replica(1).on_message(2, kSmrForwardTag, Bytes{0x01});  // truncated
  fleet.replica(1).on_message(2, kSmrPullTag, Bytes{0x01});    // truncated
  fleet.replica(1).on_message(2, 0x33, to_bytes("whatever"));  // wrong tag
  EXPECT_EQ(fleet.replica(1).committed_slots(), 0U);
  EXPECT_EQ(fleet.replica(1).next_unopened_slot(), 0U);
}

TEST(Smr, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    SmrOptions options;
    options.window = 4;
    options.batch_max_commands = 2;
    Fleet fleet(5, 0, 2.0, options, seed);
    fleet.replica(1).submit(to_bytes("p"));
    fleet.replica(2).submit(to_bytes("q"));
    fleet.replica(1).submit(to_bytes("r"));
    fleet.start();
    fleet.run_until_executed(3);
    return fleet.replica(1).log();
  };
  EXPECT_EQ(run_once(42), run_once(42));
}

}  // namespace
}  // namespace probft::smr
