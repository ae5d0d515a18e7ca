// perfbench_traced: the benchmark's traced run.
//
// Builds the same n-replica SMR stack as a probft_node cluster, in one
// process, from the library's public API: sim::make_smr_node over one real
// net::TcpTransport per replica (ephemeral loopback ports, client port
// enabled), one loop thread each, as src/sim/tcp_runner.cpp does. The
// open-loop generator (loadgen.hpp) drives it through the client ports
// exactly as perfbench_loadgen drives real processes, so the traced and
// untraced write latencies are comparable.
//
// Timing decorators sit only on public boundaries:
//   - crypto: a CryptoSuite that forwards every call to the real suite;
//   - net/sync: a ProtocolHost whose send/broadcast/set_timer/on_commit
//     wrap the transport's (sim::transport_host);
//   - smr: the transport handler's call into SmrReplica::on_message (its
//     self time is the call minus the crypto spans inside it), and the
//     client handler's submit_request / submit_read calls;
//   - store: store::Wal::append/sync, replayed after the run on a fresh
//     WAL over the batches the run decided (the replica's own WAL is
//     private to it).
// Request spans are stamped at every replica and merged by (client, seq):
// submit (first client frame handled anywhere) → first Propose broadcast
// carrying the request → on_commit at the replica whose reply reached the
// client first → that reply queued on the client connection.
//
// --kill-at-ms T crashes replica 1 T ms into the measured phase: its loop
// stops and its sockets close, which peers and the generator observe as
// they observe a SIGKILLed process.
//
//   perfbench_traced --seed S --steps RATE:SECONDS,... [--suite sim|ed25519]
//       [--reads 0|1] [--read-frac F] [--prefill 0|1] [--kill-at-ms T]
//       --dir DIR
//
// Writes DIR/history.csv (loadgen format) and DIR/trace.txt (one line per
// record: REQ, READ, CRYPTO, WAL, COUNT; see write_trace()).
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/codec.hpp"
#include "common/rng.hpp"
#include "core/messages.hpp"
#include "crypto/suite.hpp"
#include "loadgen.hpp"
#include "net/client.hpp"
#include "net/tags.hpp"
#include "net/tcp_transport.hpp"
#include "sim/node_factory.hpp"
#include "smr/batch.hpp"
#include "store/wal.hpp"

namespace {

using namespace probft;

std::uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000 +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

enum CryptoOp { kSign, kVerify, kVerifyBatch, kVrfProve, kVrfVerify, kOps };
constexpr std::array<const char*, kOps> kCryptoNames = {
    "sign", "verify", "verify_batch", "vrf_prove", "vrf_verify"};

/// Times of one write at one replica (ns, CLOCK_MONOTONIC; 0 = not seen).
struct ReqSpan {
  std::uint64_t submit = 0;
  std::uint64_t propose = 0;
  std::uint64_t commit = 0;
  std::uint64_t reply = 0;
};

/// Everything one replica's decorators record. Touched only by that
/// replica's loop thread while it runs; read by main after the join.
struct NodeTrace {
  std::array<std::vector<std::uint64_t>, kOps> crypto_ns;
  std::uint64_t crypto_total_ns = 0;
  std::uint64_t handler_self_ns = 0;
  std::uint64_t send_ns = 0;
  std::uint64_t sends = 0;
  std::uint64_t timers = 0;
  std::uint64_t last_commit_ns = 0;
  std::map<std::pair<std::uint64_t, std::uint64_t>, ReqSpan> reqs;
  std::map<std::uint64_t, smr::Batch> executed;  // slot → executed requests
  std::vector<std::pair<std::uint64_t, std::uint64_t>> reads;  // submit, done
};

class TimedSuite final : public crypto::CryptoSuite {
 public:
  TimedSuite(std::unique_ptr<crypto::CryptoSuite> inner, NodeTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] crypto::KeyPair keygen(std::uint64_t seed) const override {
    return inner_->keygen(seed);
  }
  [[nodiscard]] Bytes sign(ByteSpan sk, ByteSpan msg) const override {
    const std::uint64_t t0 = now_ns();
    Bytes out = inner_->sign(sk, msg);
    record(kSign, t0);
    return out;
  }
  [[nodiscard]] bool verify(ByteSpan pk, ByteSpan msg,
                            ByteSpan sig) const override {
    const std::uint64_t t0 = now_ns();
    const bool ok = inner_->verify(pk, msg, sig);
    record(kVerify, t0);
    return ok;
  }
  [[nodiscard]] bool verify_batch(
      const std::vector<crypto::SigCheck>& checks) const override {
    const std::uint64_t t0 = now_ns();
    const bool ok = inner_->verify_batch(checks);
    record(kVerifyBatch, t0);
    return ok;
  }
  [[nodiscard]] crypto::VrfResult vrf_prove(ByteSpan sk,
                                            ByteSpan alpha) const override {
    const std::uint64_t t0 = now_ns();
    crypto::VrfResult out = inner_->vrf_prove(sk, alpha);
    record(kVrfProve, t0);
    return out;
  }
  [[nodiscard]] std::optional<Bytes> vrf_verify(
      ByteSpan pk, ByteSpan alpha, ByteSpan proof) const override {
    const std::uint64_t t0 = now_ns();
    std::optional<Bytes> out = inner_->vrf_verify(pk, alpha, proof);
    record(kVrfVerify, t0);
    return out;
  }

 private:
  void record(CryptoOp op, std::uint64_t t0) const {
    const std::uint64_t dt = now_ns() - t0;
    trace_.crypto_ns[op].push_back(dt);
    trace_.crypto_total_ns += dt;
  }

  std::unique_ptr<crypto::CryptoSuite> inner_;
  NodeTrace& trace_;
};

/// Stamp every request carried by a Propose on its way out.
void note_propose(NodeTrace& trace, const Bytes& envelope,
                  const smr::BatchLimits& limits) {
  try {
    Reader r(ByteSpan(envelope.data(), envelope.size()));
    (void)r.u64();  // slot
    if (r.u8() != net::tags::kPropose) return;
    const auto msg = core::ProposeMsg::from_bytes(
        ByteSpan(envelope.data(), envelope.size()).subspan(9));
    const Bytes& value = msg.proposal.value;
    const std::uint64_t t = now_ns();
    for (const smr::Request& req :
         smr::decode_batch(ByteSpan(value.data(), value.size()), limits)) {
      ReqSpan& span = trace.reqs[{req.client, req.seq}];
      if (span.propose == 0) span.propose = t;
    }
  } catch (const CodecError&) {
    // Not a well-formed Propose: nothing to stamp.
  }
}

core::ProtocolHost traced_host(net::TcpTransport& transport, ReplicaId id,
                               NodeTrace& trace, smr::BatchLimits limits) {
  core::ProtocolHost inner =
      sim::transport_host(transport, id, transport.timer_setter());
  core::ProtocolHost host;
  host.send = [inner, &trace](ReplicaId to, std::uint8_t tag,
                              const Bytes& m) {
    const std::uint64_t t0 = now_ns();
    inner.send(to, tag, m);
    trace.send_ns += now_ns() - t0;
    ++trace.sends;
  };
  host.broadcast = [inner, &trace, limits](std::uint8_t tag,
                                           const Bytes& m) {
    if (tag == net::tags::kSmr) note_propose(trace, m, limits);
    const std::uint64_t t0 = now_ns();
    inner.broadcast(tag, m);
    trace.send_ns += now_ns() - t0;
    ++trace.sends;
  };
  host.set_timer = [inner, &trace](Duration delay, std::function<void()> fn) {
    ++trace.timers;
    inner.set_timer(delay, std::move(fn));
  };
  host.on_commit = [&trace](std::uint64_t, const Bytes&) {
    trace.last_commit_ns = now_ns();
  };
  return host;
}

// The cluster shape run.py gives every probft_node (NODE_FLAGS there).
constexpr std::uint32_t kN = 4;
constexpr std::uint32_t kF = 1;
constexpr double kL = 1.5;
constexpr std::uint32_t kWindow = 8;
constexpr std::uint32_t kBatch = 64;

struct Options {
  perfbench::LoadSpec load;
  std::string suite = "sim";
  bool reads = false;
  std::string dir;
};

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (perfbench::parse_load_flag(key, value, opt.load)) continue;
    if (key == "--suite") {
      opt.suite = value;
    } else if (key == "--reads") {
      opt.reads = value == "1";
    } else if (key == "--dir") {
      opt.dir = value;
    } else {
      return false;
    }
  }
  return !opt.dir.empty() && !opt.load.steps.empty() &&
         (opt.suite == "sim" || opt.suite == "ed25519");
}

std::unique_ptr<crypto::CryptoSuite> make_suite(const std::string& name) {
  return name == "ed25519" ? crypto::make_ed25519_suite()
                           : crypto::make_sim_suite();
}

/// One replica: its transport (built by main), and what its loop thread
/// builds — WAL, decorated suite, the SMR node and the client routing.
struct Replica {
  std::unique_ptr<net::TcpTransport> transport;
  NodeTrace trace;
  std::unique_ptr<store::Wal> wal;
  std::unique_ptr<crypto::CryptoSuite> suite;
  std::unique_ptr<smr::SmrReplica> node;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> waiting;
  std::map<std::uint64_t, net::ClientReply> last_reply;
};

/// Loop-thread body: mirrors examples/probft_node.cpp's run_smr_node
/// wiring (reply routing, last-reply cache, read path) with the
/// decorators above in place, then serves until stopped.
void serve(Replica& rep, ReplicaId id, const Options& opt,
           const crypto::PublicKeyDir& keys, const Bytes& secret_key,
           const std::string& wal_dir) {
  net::TcpTransport& transport = *rep.transport;
  NodeTrace& trace = rep.trace;
  rep.wal = std::make_unique<store::Wal>(store::WalOptions{wal_dir, true});
  rep.suite = std::make_unique<TimedSuite>(make_suite(opt.suite), trace);

  sim::NodeParams params;
  params.id = id;
  params.n = kN;
  params.f = kF;
  params.l = kL;
  params.suite = rep.suite.get();
  params.secret_key = secret_key;
  params.public_keys = keys;
  params.sync.base_timeout = 1'000'000;  // as probft_node
  params.smr.window = kWindow;
  params.smr.batch_max_commands = kBatch;
  params.smr.checkpoint_interval = 16;
  params.smr.serve_reads = opt.reads;
  params.wal = rep.wal.get();
  params.on_execute = [&rep, &transport,
                       &trace](const smr::ExecutedCommand& cmd) {
    trace.executed[cmd.slot].push_back(
        smr::Request{cmd.client, cmd.seq, cmd.payload});
    net::ClientReply reply;
    reply.client_id = cmd.client;
    reply.seq = cmd.seq;
    reply.slot = cmd.slot;
    reply.result = cmd.payload;
    const auto it = rep.waiting.find({cmd.client, cmd.seq});
    if (it != rep.waiting.end()) {
      transport.send_to_client(it->second, net::kClientReplyTag,
                               reply.encode());
      rep.waiting.erase(it);
      ReqSpan& span = trace.reqs[{cmd.client, cmd.seq}];
      span.commit = trace.last_commit_ns;
      span.reply = now_ns();
    }
    rep.last_reply[cmd.client] = std::move(reply);
  };
  const smr::BatchLimits limits{kBatch, params.smr.batch_max_bytes};
  rep.node = sim::make_smr_node(
      params, traced_host(transport, id, trace, limits));
  smr::SmrReplica& node = *rep.node;

  transport.register_handler(
      id, [&node, &trace](ReplicaId from, std::uint8_t tag, const Bytes& m) {
        const std::uint64_t crypto0 = trace.crypto_total_ns;
        const std::uint64_t t0 = now_ns();
        node.on_message(from, tag, m);
        const std::uint64_t spent = now_ns() - t0;
        trace.handler_self_ns += spent - (trace.crypto_total_ns - crypto0);
      });
  transport.set_client_handler([&rep, &transport, &node, &trace](
                                   std::uint64_t conn, std::uint8_t tag,
                                   const Bytes& payload) {
    const ByteSpan body(payload.data(), payload.size());
    try {
      if (tag == net::kClientReadTag) {
        const auto read = net::ReadRequest::decode(body);
        const std::uint64_t t0 = now_ns();
        node.submit_read(
            read.key, read.consistency, read.min_index,
            [&transport, &trace, conn, t0, client_id = read.client_id,
             read_id = read.read_id](const smr::SmrReplica::ReadResult& r) {
              if (r.status == net::ReplyStatus::kExecuted) {
                trace.reads.emplace_back(t0, now_ns());
              }
              net::ReadReply reply;
              reply.client_id = client_id;
              reply.read_id = read_id;
              reply.status = r.status;
              reply.slot = r.slot;
              reply.index = r.index;
              reply.value = r.value;
              transport.send_to_client(conn, net::kClientReadReplyTag,
                                       reply.encode());
            });
        return;
      }
      if (tag != net::kClientRequestTag) return;
      const auto request = net::ClientRequest::decode(body);
      if (request.seq <= node.last_executed_seq(request.client_id)) {
        const auto cached = rep.last_reply.find(request.client_id);
        if (cached != rep.last_reply.end() &&
            cached->second.seq == request.seq) {
          transport.send_to_client(conn, net::kClientReplyTag,
                                   cached->second.encode());
        }
        return;
      }
      ReqSpan& span = trace.reqs[{request.client_id, request.seq}];
      if (span.submit == 0) span.submit = now_ns();
      const bool accepted = node.submit_request(
          request.client_id, request.seq, request.payload);
      if (accepted || node.has_pending(request.client_id, request.seq)) {
        rep.waiting[{request.client_id, request.seq}] = conn;
      } else {
        net::ClientReply reject;
        reject.client_id = request.client_id;
        reject.seq = request.seq;
        reject.status = net::ReplyStatus::kRejected;
        transport.send_to_client(conn, net::kClientReplyTag, reject.encode());
      }
    } catch (const CodecError&) {
      // Malformed client frame: drop, as probft_node does.
    }
  });
  node.start();
}

std::uint64_t p50(std::vector<std::uint64_t> v) {
  if (v.empty()) return 0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// Replays the decided batches through a fresh fsync'd WAL, timing each
/// append and sync; returns (append ns, sync ns) per record.
std::vector<std::pair<std::uint64_t, std::uint64_t>> replay_wal(
    const std::map<std::uint64_t, smr::Batch>& decided,
    const std::string& dir) {
  store::Wal wal(store::WalOptions{dir, true});
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& [slot, batch] : decided) {
    const Bytes value = smr::encode_batch(batch);
    Writer w;  // the replica's decide-record layout: u64 slot ‖ bytes
    w.u64(slot);
    w.bytes(ByteSpan(value.data(), value.size()));
    const Bytes record = std::move(w).take();
    const std::uint64_t t0 = now_ns();
    wal.append(record);
    const std::uint64_t t1 = now_ns();
    wal.sync();
    out.emplace_back(t1 - t0, now_ns() - t1);
  }
  return out;
}

/// One request's spans merged over replicas: the earliest submit and
/// Propose anywhere, and commit/reply of the earliest reply.
ReqSpan merge_spans(const std::vector<const ReqSpan*>& seen) {
  ReqSpan out;
  const auto earliest = [](std::uint64_t& into, std::uint64_t t) {
    if (t != 0 && (into == 0 || t < into)) into = t;
  };
  for (const ReqSpan* s : seen) {
    earliest(out.submit, s->submit);
    earliest(out.propose, s->propose);
    if (s->reply != 0 && (out.reply == 0 || s->reply < out.reply)) {
      out.reply = s->reply;
      out.commit = s->commit;
    }
  }
  return out;
}

void write_trace(std::FILE* out, const std::vector<std::unique_ptr<Replica>>& reps,
                 std::uint64_t slots, const std::string& wal_dir) {
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::vector<const ReqSpan*>>
      seen;
  std::uint64_t crypto_total = 0;
  std::uint64_t self_total = 0;
  std::uint64_t send_total = 0;
  std::uint64_t timers = 0;
  std::array<std::vector<std::uint64_t>, kOps> crypto_all;
  for (std::size_t id = 1; id < reps.size(); ++id) {
    const NodeTrace& t = reps[id]->trace;
    for (const auto& [key, span] : t.reqs) seen[key].push_back(&span);
    for (const auto& [t0, t1] : t.reads) {
      std::fprintf(out, "READ %llu\n",
                   static_cast<unsigned long long>((t1 - t0) / 1000));
    }
    for (int op = 0; op < kOps; ++op) {
      crypto_all[op].insert(crypto_all[op].end(), t.crypto_ns[op].begin(),
                            t.crypto_ns[op].end());
    }
    crypto_total += t.crypto_total_ns;
    self_total += t.handler_self_ns;
    send_total += t.send_ns;
    timers += t.timers;
  }
  // Spans are printed in CLOCK_MONOTONIC µs, the generator's clock.
  for (const auto& [key, spans] : seen) {
    const ReqSpan s = merge_spans(spans);
    std::fprintf(out, "REQ %llu %llu %llu %llu %llu %llu\n",
                 static_cast<unsigned long long>(key.first),
                 static_cast<unsigned long long>(key.second),
                 static_cast<unsigned long long>(s.submit / 1000),
                 static_cast<unsigned long long>(s.propose / 1000),
                 static_cast<unsigned long long>(s.commit / 1000),
                 static_cast<unsigned long long>(s.reply / 1000));
  }
  for (int op = 0; op < kOps; ++op) {
    std::fprintf(out, "CRYPTO %s %zu %.3f\n", kCryptoNames[op],
                 crypto_all[op].size(),
                 static_cast<double>(p50(crypto_all[op])) / 1000.0);
  }
  // The last replica is never crashed, so it executed every decided slot.
  for (const auto& [append_ns, sync_ns] :
       replay_wal(reps.back()->trace.executed, wal_dir)) {
    std::fprintf(out, "WAL %.3f %.3f\n", append_ns / 1000.0,
                 sync_ns / 1000.0);
  }
  std::fprintf(out, "COUNT slots %llu\n",
               static_cast<unsigned long long>(slots));
  std::fprintf(out, "COUNT crypto_us %.3f\n", crypto_total / 1000.0);
  std::fprintf(out, "COUNT handler_self_us %.3f\n", self_total / 1000.0);
  std::fprintf(out, "COUNT send_us %.3f\n", send_total / 1000.0);
  std::fprintf(out, "COUNT timers %llu\n",
               static_cast<unsigned long long>(timers));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) {
      std::fprintf(stderr, "usage: see the header of traced.cpp\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad argument: %s\n", e.what());
    return 2;
  }
  namespace fs = std::filesystem;
  fs::create_directories(opt.dir);

  // Deterministic keys, derived as probft_node derives them.
  const auto keygen = make_suite(opt.suite);
  std::vector<Bytes> key_table(kN + 1);
  std::vector<Bytes> secrets(kN + 1);
  for (ReplicaId id = 1; id <= kN; ++id) {
    auto kp = keygen->keygen(mix64(opt.load.seed, id));
    key_table[id] = std::move(kp.public_key);
    secrets[id] = std::move(kp.secret_key);
  }
  const crypto::PublicKeyDir keys(std::move(key_table));

  std::vector<std::unique_ptr<Replica>> reps(kN + 1);
  for (ReplicaId id = 1; id <= kN; ++id) {
    net::TcpTransportConfig tc;
    tc.self = id;
    tc.n = kN;
    tc.client_port_enabled = true;
    reps[id] = std::make_unique<Replica>();
    reps[id]->transport = std::make_unique<net::TcpTransport>(std::move(tc));
  }
  for (ReplicaId id = 1; id <= kN; ++id) {
    for (ReplicaId peer = 1; peer <= kN; ++peer) {
      reps[id]->transport->set_peer(
          peer, net::PeerAddress{"127.0.0.1",
                                 reps[peer]->transport->listen_port()});
    }
    opt.load.servers.emplace_back("127.0.0.1",
                                  reps[id]->transport->client_port());
  }

  // Replica 1 crashes when `crashed` is set: its loop returns and the
  // thread tears the node and transport down (closing every socket). The
  // loop can return as soon as stop() has raised its flag, before stop()
  // writes the wake pipe, so the teardown waits for `kill_mu`, which the
  // generator thread holds until stop() has returned.
  std::atomic<bool> crashed{false};
  std::mutex kill_mu;
  if (opt.load.kill_at_ms > 0) {
    opt.load.kill = [&] {
      const std::lock_guard<std::mutex> lock(kill_mu);
      crashed.store(true);
      reps[1]->transport->stop();
    };
  }
  std::vector<std::thread> threads;
  for (ReplicaId id = 1; id <= kN; ++id) {
    threads.emplace_back([&, id] {
      Replica& rep = *reps[id];
      serve(rep, id, opt, keys, secrets[id],
            opt.dir + "/wal-" + std::to_string(id));
      rep.transport->run_until(nullptr, 3'600'000'000);
      if (id == 1 && crashed.load()) {
        const std::lock_guard<std::mutex> lock(kill_mu);
        rep.node.reset();
        rep.transport.reset();
      }
    });
  }

  perfbench::LoadGen gen(opt.load);
  const bool ok = gen.run();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // quiesce
  for (ReplicaId id = 1; id <= kN; ++id) {
    if (id == 1 && crashed.load()) continue;  // its thread owns teardown
    reps[id]->transport->stop();
  }
  for (auto& t : threads) t.join();

  std::uint64_t slots = 0;
  for (ReplicaId id = 1; id <= kN; ++id) {
    if (reps[id]->node) {
      slots = std::max(slots, reps[id]->node->committed_slots());
    }
  }
  if (std::FILE* f = std::fopen((opt.dir + "/history.csv").c_str(), "w")) {
    gen.write_history(f);
    std::fclose(f);
  }
  std::FILE* out = std::fopen((opt.dir + "/trace.txt").c_str(), "w");
  if (out == nullptr) return 1;
  write_trace(out, reps, slots, opt.dir + "/wal-replay");
  std::fclose(out);
  std::printf("TRACED ok=%d slots=%llu\n", ok ? 1 : 0,
              static_cast<unsigned long long>(slots));
  return ok ? 0 : 1;
}
