#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <ctime>
#include <stdexcept>

#include "common/codec.hpp"
#include "common/rng.hpp"
#include "net/client.hpp"

namespace perfbench {

using probft::Bytes;
using probft::ByteSpan;
namespace net = probft::net;

namespace {

constexpr std::uint32_t kSetupKey = 0xffffffffu;

int dial(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::string payload_of(const OpRecord& op) {
  if (op.key == kSetupKey) return "setup=" + op.value;
  return "k" + std::to_string(op.key) + "=" + op.value;
}

/// Uniform double in [0, 1) from one 64-bit draw.
double unit(probft::SplitMix64& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

}  // namespace

bool parse_load_flag(const std::string& key, const std::string& value,
                     LoadSpec& spec) {
  if (key == "--seed") {
    spec.seed = std::stoull(value);
  } else if (key == "--steps") {
    std::size_t pos = 0;
    while (pos < value.size()) {
      const std::size_t comma = std::min(value.find(',', pos), value.size());
      const std::string step = value.substr(pos, comma - pos);
      const std::size_t colon = step.find(':');
      if (colon == std::string::npos) {
        throw std::invalid_argument("step must be RATE:SECONDS: " + step);
      }
      spec.steps.push_back(Step{std::stod(step.substr(0, colon)),
                                std::stod(step.substr(colon + 1))});
      pos = comma + 1;
    }
  } else if (key == "--read-frac") {
    spec.read_frac = std::stod(value);
  } else if (key == "--prefill") {
    spec.prefill = value == "1";
  } else if (key == "--kill-at-ms") {
    spec.kill_at_ms = std::stoull(value);
  } else {
    return false;
  }
  return true;
}

std::uint64_t mono_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1'000;
}

LoadGen::LoadGen(LoadSpec spec)
    : spec_(std::move(spec)),
      conns_(spec_.servers.size()),
      rng_(probft::mix64(spec_.seed, 0x6c6f6164)),
      arrivals_(probft::mix64(spec_.seed, 0x61727276)) {}

LoadGen::~LoadGen() {
  for (const Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

void LoadGen::connect_all(std::uint64_t deadline_us) {
  // Replica processes may still be binding their client ports: retry
  // every few milliseconds so set-up time is not quantized by the dial
  // backoff.
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    while (conns_[i].fd < 0 && mono_us() < deadline_us) {
      conns_[i].fd = dial(spec_.servers[i].first, spec_.servers[i].second);
      if (conns_[i].fd < 0) ::usleep(2'000);
    }
  }
}

void LoadGen::send_frame(std::size_t server, std::uint8_t tag,
                         const Bytes& body) {
  Conn& c = conns_[server];
  if (c.fd < 0) return;
  const Bytes frame =
      net::encode_frame(0, tag, ByteSpan(body.data(), body.size()));
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t wrote = ::send(c.fd, frame.data() + off, frame.size() - off,
                                 MSG_NOSIGNAL);
    if (wrote <= 0) {
      ::close(c.fd);
      c.fd = -1;
      return;
    }
    off += static_cast<std::size_t>(wrote);
  }
}

std::size_t LoadGen::live_from(std::size_t start) const {
  for (std::size_t k = 0; k < conns_.size(); ++k) {
    const std::size_t i = (start + k) % conns_.size();
    if (conns_[i].fd >= 0) return i;
  }
  return start % conns_.size();
}

void LoadGen::start_write(std::size_t op) {
  OpRecord& rec = ops_[op];
  std::uint64_t client = 0;
  if (free_clients_.empty()) {
    client = next_client_++;
  } else {
    client = free_clients_.back();
    free_clients_.pop_back();
  }
  rec.client = client;
  rec.seq = ++client_seq_[client];
  client_op_[client] = op;
  rec.sent_us = mono_us();
  ++outstanding_;
  transmit_write(op, /*to_all=*/false);
  retries_.push_back(
      Retry{rec.sent_us + spec_.resend_ms * 1000, op, generation_[op]});
}

void LoadGen::transmit_write(std::size_t op, bool to_all) {
  const OpRecord& rec = ops_[op];
  net::ClientRequest req;
  req.client_id = rec.client;
  req.seq = rec.seq;
  req.payload = probft::to_bytes(payload_of(rec));
  const Bytes body = req.encode();
  if (!to_all) {
    send_frame(live_from(0), net::kClientRequestTag, body);
    return;
  }
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    send_frame(i, net::kClientRequestTag, body);
  }
}

void LoadGen::start_read(std::size_t op, std::size_t target) {
  OpRecord& rec = ops_[op];
  rec.seq = op;  // read id
  read_target_[op] = live_from(target);
  rec.sent_us = mono_us();
  ++outstanding_;
  transmit_read(op);
  retries_.push_back(
      Retry{rec.sent_us + spec_.resend_ms * 1000, op, generation_[op]});
}

void LoadGen::transmit_read(std::size_t op) {
  const OpRecord& rec = ops_[op];
  net::ReadRequest req;
  req.client_id = 1;
  req.read_id = rec.seq;
  req.consistency = net::ReadConsistency::kLinearizable;
  req.key = probft::to_bytes("k" + std::to_string(rec.key));
  send_frame(read_target_.at(op), net::kClientReadTag, req.encode());
}

void LoadGen::handle_frame(const net::Frame& frame) {
  const ByteSpan body(frame.payload.data(), frame.payload.size());
  const std::uint64_t now = mono_us();
  if (frame.tag == net::kClientReplyTag) {
    const net::ClientReply reply = net::ClientReply::decode(body);
    const auto it = client_op_.find(reply.client_id);
    if (it == client_op_.end()) return;  // late duplicate
    OpRecord& rec = ops_[it->second];
    if (rec.seq != reply.seq) return;
    rec.status = static_cast<int>(reply.status);
    if (reply.status != net::ReplyStatus::kExecuted) return;  // resend tick
    if (reply.result != probft::to_bytes(payload_of(rec))) {
      rec.status = kWrongPayload;  // something else ran as (client, seq)
    }
    rec.done_us = now;
    rec.slot = reply.slot;
    if (first_reply_us_ == 0) first_reply_us_ = now;
    free_clients_.push_back(reply.client_id);
    client_op_.erase(it);
    --outstanding_;
    return;
  }
  if (frame.tag == net::kClientReadReplyTag) {
    const net::ReadReply reply = net::ReadReply::decode(body);
    const auto it = read_target_.find(reply.read_id);
    if (it == read_target_.end()) return;
    OpRecord& rec = ops_[reply.read_id];
    rec.status = static_cast<int>(reply.status);
    if (reply.status == net::ReplyStatus::kExecuted) {
      rec.done_us = now;
      rec.slot = reply.slot;
      rec.value.assign(reply.value.begin(), reply.value.end());
      read_target_.erase(it);
      --outstanding_;
      return;
    }
    // Rejected or redirected: move on to the next replica right away.
    ++rec.resends;
    it->second = live_from(it->second + 1);
    ++generation_[reply.read_id];
    transmit_read(reply.read_id);
    retries_.push_back(Retry{now + spec_.resend_ms * 1000, reply.read_id,
                             generation_[reply.read_id]});
  }
}

void LoadGen::fire_retries(std::uint64_t now) {
  while (!retries_.empty() && retries_.front().at_us <= now) {
    const Retry r = retries_.front();
    retries_.pop_front();
    OpRecord& rec = ops_[r.op];
    if (rec.done_us != 0 || r.generation != generation_[r.op]) continue;
    ++rec.resends;
    if (rec.kind == 'W') {
      transmit_write(r.op, /*to_all=*/true);
    } else {
      auto& target = read_target_.at(r.op);
      target = live_from(target + 1);
      transmit_read(r.op);
    }
    retries_.push_back(Retry{now + spec_.resend_ms * 1000, r.op,
                             generation_[r.op]});
  }
}

void LoadGen::poll_once(std::uint64_t until_us) {
  std::vector<pollfd> fds;
  std::vector<std::size_t> which;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].fd < 0) continue;
    fds.push_back(pollfd{conns_[i].fd, POLLIN, 0});
    which.push_back(i);
  }
  std::uint64_t now = mono_us();
  if (!retries_.empty()) until_us = std::min(until_us, retries_.front().at_us);
  const std::uint64_t wait = until_us > now ? until_us - now : 0;
  timespec ts{static_cast<time_t>(wait / 1'000'000),
              static_cast<long>((wait % 1'000'000) * 1000)};
  const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  for (std::size_t k = 0; ready > 0 && k < fds.size(); ++k) {
    if (fds[k].revents == 0) continue;
    Conn& c = conns_[which[k]];
    std::uint8_t buf[64 * 1024];
    while (c.fd >= 0) {
      const ssize_t got = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (got > 0) {
        c.decoder.feed(ByteSpan(buf, static_cast<std::size_t>(got)));
        continue;
      }
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      ::close(c.fd);  // EOF or error: the replica is gone
      c.fd = -1;
    }
    net::Frame frame;
    while (c.decoder.next(frame) == net::FrameDecoder::Status::kFrame) {
      try {
        handle_frame(frame);
      } catch (const probft::CodecError&) {
        // A malformed reply answers nothing; the resend timer covers it.
      }
    }
  }
  now = mono_us();
  fire_retries(now);
}

bool LoadGen::wait_all(std::uint64_t deadline_us) {
  while (outstanding_ > 0 && mono_us() < deadline_us) {
    poll_once(std::min(deadline_us, mono_us() + 50'000));
  }
  return outstanding_ == 0;
}

bool LoadGen::run() {
  const std::uint64_t setup_deadline =
      mono_us() + spec_.setup_timeout_ms * 1000;
  connect_all(setup_deadline);
  if (conns_.empty() || conns_[0].fd < 0) return false;

  // Set-up: one write, retried like any other, until answered.
  OpRecord setup;
  setup.phase = 'S';
  setup.key = kSetupKey;
  setup.value = "s" + std::to_string(spec_.seed);
  setup.due_us = mono_us();
  ops_.push_back(setup);
  generation_.push_back(0);
  start_write(0);
  if (!wait_all(setup_deadline)) return false;
  if (spec_.setup_only) return true;

  // One open-loop phase: ops due on `steps` — evenly spaced, or Poisson
  // arrivals drawn from the seed — each made by `make`.
  const auto run_phase = [this](const std::vector<Step>& steps,
                                std::uint64_t start_us, bool poisson,
                                auto&& make) {
    std::uint64_t step_start = start_us;
    for (const Step& step : steps) {
      const double step_us = step.seconds * 1e6;
      double offset = 0;  // µs into the step
      for (std::uint64_t k = 0;; ++k) {
        offset = poisson
                     ? offset - std::log1p(-unit(arrivals_)) * 1e6 / step.rate
                     : static_cast<double>(k) * 1e6 / step.rate;
        if (offset >= step_us) break;
        const std::uint64_t due =
            step_start + static_cast<std::uint64_t>(offset);
        while (true) {
          const std::uint64_t now = mono_us();
          const std::uint64_t kill_at = t0_us_ + spec_.kill_at_ms * 1000;
          const bool kill_armed = spec_.kill && kill_us_ == 0 && t0_us_ != 0;
          if (kill_armed && now >= kill_at) {
            spec_.kill();
            kill_us_ = now;
          }
          if (now >= due) break;
          poll_once(kill_armed ? std::min(due, kill_at) : due);
        }
        const std::size_t op = ops_.size();
        ops_.emplace_back();
        generation_.push_back(0);
        ops_[op].due_us = due;
        make(op);
      }
      step_start += static_cast<std::uint64_t>(step_us);
    }
  };

  if (spec_.prefill) {
    const double rate = 5000;
    run_phase(
        {Step{rate, (spec_.keys - 0.5) / rate}}, mono_us(), false,
        [this, next = std::uint32_t{0}](std::size_t op) mutable {
          ops_[op].phase = 'P';
          ops_[op].key = next++;
          ops_[op].value = "p" + std::to_string(op) + "s" +
                           std::to_string(spec_.seed);
          start_write(op);
        });
    if (!wait_all(mono_us() + spec_.drain_ms * 1000)) return false;
  }

  // Warm-up at the first step's rate, then the measured ladder, back to
  // back; both draw operations from the same seeded stream.
  const auto make = [this](char phase) {
    return [this, phase](std::size_t op) {
      // Three draws per op, always, so the input stream is a function
      // of the seed alone.
      const double kind = unit(rng_);
      const std::uint64_t r_key = rng_.next();
      const std::uint64_t r_target = rng_.next();
      OpRecord& rec = ops_[op];
      rec.phase = phase;
      rec.key = static_cast<std::uint32_t>(r_key % spec_.keys);
      if (kind < spec_.read_frac) {
        rec.kind = 'R';
        start_read(op, r_target % conns_.size());
      } else {
        rec.value =
            "w" + std::to_string(op) + "s" + std::to_string(spec_.seed);
        start_write(op);
      }
    };
  };
  const std::uint64_t warm_start = mono_us() + 5'000;
  t0_us_ = warm_start + static_cast<std::uint64_t>(spec_.warmup_s * 1e6);
  if (spec_.warmup_s > 0) {
    run_phase({Step{spec_.steps.front().rate, spec_.warmup_s}}, warm_start,
              true, make('U'));
  }
  run_phase(spec_.steps, t0_us_, true, make('M'));
  const std::uint64_t last_due = ops_.empty() ? t0_us_ : ops_.back().due_us;
  wait_all(std::max(mono_us(), last_due) + spec_.drain_ms * 1000);
  return true;
}

void LoadGen::write_history(std::FILE* out) const {
  std::fprintf(out,
               "META seed=%llu t0_us=%llu kill_us=%llu first_reply_us=%llu "
               "servers=%zu\n",
               static_cast<unsigned long long>(spec_.seed),
               static_cast<unsigned long long>(t0_us_),
               static_cast<unsigned long long>(kill_us_),
               static_cast<unsigned long long>(first_reply_us_),
               conns_.size());
  for (const OpRecord& op : ops_) {
    std::fprintf(out, "%c,%c,%u,%llu,%llu,%llu,%llu,%llu,%d,%u,%llu,%s\n",
                 op.phase, op.kind, op.key,
                 static_cast<unsigned long long>(op.client),
                 static_cast<unsigned long long>(op.seq),
                 static_cast<unsigned long long>(op.due_us),
                 static_cast<unsigned long long>(op.sent_us),
                 static_cast<unsigned long long>(op.done_us), op.status,
                 op.resends, static_cast<unsigned long long>(op.slot),
                 op.value.c_str());
  }
}

}  // namespace perfbench
