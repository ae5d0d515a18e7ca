// Per-client exactly-once bookkeeping: an anti-replay window in the shape
// of IPsec ESP's (RFC 4303 §3.4.3) — the highest executed seq plus a
// 64-bit bitmap of the seqs just below it.
//
// A highest-seq-only table cannot serve a pipelined client: when the slot
// holding seq 1 decides another replica's batch after seqs 2..5 already
// executed, "seq <= highest" would discard seq 1 although it never ran.
// The window remembers exactly which of the last 64 seqs executed, so a
// reordered low seq is still re-proposable while a replayed one is not.
// Seqs more than 63 below the highest count as executed (too old to
// track): a client keeps at most 64 requests in flight.
#pragma once

#include <cstdint>

namespace probft::smr {

/// A default-constructed window has executed nothing.
struct ReplayWindow {
  static constexpr std::uint64_t kSize = 64;

  std::uint64_t top = 0;   // highest executed seq
  std::uint64_t bits = 0;  // bit i set ⇔ seq top - i executed (bit 0 = top)

  /// Whether `seq` executed, or is too old to tell (treated as executed).
  [[nodiscard]] bool executed(std::uint64_t seq) const {
    if (seq > top) return false;
    const std::uint64_t age = top - seq;
    return age >= kSize || ((bits >> age) & 1U) != 0;
  }

  /// Records `seq` as executed; the caller checked !executed(seq).
  void mark(std::uint64_t seq) {
    if (seq > top) {
      const std::uint64_t shift = seq - top;
      bits = shift >= kSize ? 0 : bits << shift;
      bits |= 1U;
      top = seq;
    } else {
      bits |= std::uint64_t{1} << (top - seq);
    }
  }

  friend bool operator==(const ReplayWindow&, const ReplayWindow&) = default;
};

}  // namespace probft::smr
