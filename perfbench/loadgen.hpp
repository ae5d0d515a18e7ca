// Open-loop load generator for a probft_node --smr cluster.
//
// One thread, one TCP connection per replica's client port, speaking the
// client wire (net/client.hpp over net/frame.hpp). Operations are due on a
// schedule drawn from the seed (Poisson arrivals over a ladder of
// constant-rate steps, as from many independent users) and are timed from when
// they were DUE, not from when the generator got round to sending them, so
// a stall of the service (or of the generator) is charged to every
// operation it delays. How late the generator itself ran is recorded per
// operation (sent_us - due_us).
//
// Writes: "k<key>=<unique value>" through a pool of virtual clients, each
// with at most one write outstanding (the SMR layer deduplicates by
// (client, seq) and drops any seq at or below the client's last executed
// one, so a single client id with many writes in flight could lose a write
// to reordering). A write goes to the first live replica (the view-1
// leader of a fresh cluster); one left unanswered for resend_ms is re-sent
// to every live replica under the same (client, seq).
//
// Reads: linearizable ReadRequests to a seeded-random replica; a kRejected
// or kRedirect answer, or resend_ms of silence, moves the read to the next
// live replica.
//
// Every operation's history (due, sent, done, status, value, slot) is kept
// in memory and written out at the end for run.py, which derives the
// metrics and checks read values against the write history.
#pragma once

#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/frame.hpp"

namespace perfbench {

/// CLOCK_MONOTONIC in microseconds (the clock Python's time.monotonic()
/// reads on Linux, so run.py can compare against its own timestamps).
[[nodiscard]] std::uint64_t mono_us();

struct Step {
  double rate = 0;     // operations per second
  double seconds = 0;  // duration of this step
};

struct LoadSpec {
  /// Client ports in replica order (index 0 = replica 1).
  std::vector<std::pair<std::string, std::uint16_t>> servers;
  std::uint64_t seed = 1;
  std::vector<Step> steps;
  /// Un-measured load at the first step's rate before the measured ladder
  /// (phase 'U'), so lazy set-up and cold caches are not timed.
  double warmup_s = 1.0;
  double read_frac = 0;     // share of measured operations that are reads
  std::uint32_t keys = 1000;
  /// Write every key once (acknowledged) before the measured phase, so
  /// reads always target written keys and the key choice is seed-only.
  bool prefill = false;
  std::uint64_t resend_ms = 500;
  /// After the last due operation, wait at most this long for answers.
  std::uint64_t drain_ms = 5000;
  /// Fault injection: called once, kill_at_ms after the measured phase
  /// starts (the binary SIGKILLs a replica process; the traced run stops
  /// a replica's loop and closes its sockets).
  std::function<void()> kill;
  std::uint64_t kill_at_ms = 0;
  /// Give up if the first write is not answered within this long.
  std::uint64_t setup_timeout_ms = 30'000;
  /// Stop after the first answered write.
  bool setup_only = false;
};

/// Recorded status of a write whose reply carried another payload.
inline constexpr int kWrongPayload = 99;

struct OpRecord {
  char phase = 'M';  // 'S' setup, 'P' prefill, 'U' warm-up, 'M' measured
  char kind = 'W';   // 'W' write, 'R' read
  std::uint32_t key = 0;
  std::uint64_t client = 0;  // writes: virtual client id
  std::uint64_t seq = 0;     // writes: client seq; reads: read id
  std::uint64_t due_us = 0;
  std::uint64_t sent_us = 0;  // first transmission (0 = never sent)
  std::uint64_t done_us = 0;  // kExecuted answer (0 = unanswered)
  int status = -1;  // last reply status seen (-1 = none, kWrongPayload)
  std::uint32_t resends = 0;  // re-transmissions after the first send
  std::uint64_t slot = 0;     // reply slot (reads: last-write slot)
  std::string value;          // written value / value a read returned
};

/// Parses one load-schedule flag shared by perfbench_loadgen and
/// perfbench_traced (--seed, --steps RATE:SECONDS,..., --read-frac,
/// --prefill 0|1, --kill-at-ms) into `spec`. Returns false for
/// a flag it does not know; throws std::invalid_argument (or out_of_range)
/// on a malformed value.
bool parse_load_flag(const std::string& key, const std::string& value,
                     LoadSpec& spec);

class LoadGen {
 public:
  explicit LoadGen(LoadSpec spec);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Runs setup, prefill and the measured schedule. Returns false when
  /// the cluster never answered the setup write.
  bool run();

  [[nodiscard]] const std::vector<OpRecord>& ops() const { return ops_; }
  /// Monotonic µs of the first answered write (0 = none).
  [[nodiscard]] std::uint64_t first_reply_us() const {
    return first_reply_us_;
  }
  [[nodiscard]] std::uint64_t measure_start_us() const { return t0_us_; }
  [[nodiscard]] std::uint64_t kill_us() const { return kill_us_; }

  /// "META ..." header lines followed by one CSV line per operation.
  void write_history(std::FILE* out) const;

 private:
  struct Conn {
    int fd = -1;
    probft::net::FrameDecoder decoder;
  };

  void connect_all(std::uint64_t deadline_us);
  void send_frame(std::size_t server, std::uint8_t tag,
                  const probft::Bytes& body);
  [[nodiscard]] std::size_t live_from(std::size_t start) const;
  void start_write(std::size_t op);
  void transmit_write(std::size_t op, bool to_all);
  void start_read(std::size_t op, std::size_t target);
  void transmit_read(std::size_t op);
  void poll_once(std::uint64_t until_us);
  void handle_frame(const probft::net::Frame& frame);
  void fire_retries(std::uint64_t now);
  /// Runs the loop until nothing is outstanding or `deadline_us` passes.
  bool wait_all(std::uint64_t deadline_us);

  LoadSpec spec_;
  std::vector<Conn> conns_;
  std::vector<OpRecord> ops_;
  probft::SplitMix64 rng_;       // operation kinds, keys, read targets
  probft::SplitMix64 arrivals_;  // Poisson inter-arrival gaps

  // Virtual write clients: free ids, and client → op in flight.
  std::vector<std::uint64_t> free_clients_;
  std::uint64_t next_client_ = 1'000'000;
  std::map<std::uint64_t, std::uint64_t> client_seq_;
  std::map<std::uint64_t, std::size_t> client_op_;
  // Reads in flight: read id (op index) → current target replica.
  std::map<std::size_t, std::size_t> read_target_;
  // Resend timers, FIFO by construction (every entry is now + resend).
  struct Retry {
    std::uint64_t at_us = 0;
    std::size_t op = 0;
    std::uint32_t generation = 0;
  };
  std::deque<Retry> retries_;
  std::vector<std::uint32_t> generation_;  // per op; stale timers skip
  std::size_t outstanding_ = 0;

  std::uint64_t first_reply_us_ = 0;
  std::uint64_t t0_us_ = 0;
  std::uint64_t kill_us_ = 0;
};

}  // namespace perfbench
