// Content-addressed signature/VRF verdict cache, extracted from
// core::Replica so its keys and capacity policy live in one place. Each
// Replica owns a private instance; it is touched only from the thread
// that drives that replica.
//
// Keys are SHA-256 digests over domain-separated content INCLUDING the
// signature bytes, so a Byzantine variant of an honest message can never
// alias an honest verdict; verdicts are content-deterministic, which makes
// negative caching sound too. Key kinds:
//   'L' — leader signature over a proposal tuple ⟨v,x⟩
//   'R' — a Propose message's sender signature
//   'P' — full phase-message verdict (leader sig && sender sig && VRF),
//         tagged with the phase (Prepare vs Commit VRF domain)
//   'N' — a NewLeader message's sender signature
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/bytes.hpp"

namespace probft::core {

class VerdictCache {
 public:
  /// Digests are uniform: fold the first 8 bytes. Exposed so callers
  /// building "seen this round" sets can reuse the same hash.
  struct DigestHash {
    std::size_t operator()(const Bytes& digest) const noexcept {
      std::size_t h = 0;
      for (std::size_t i = 0; i < sizeof(h) && i < digest.size(); ++i) {
        h = (h << 8) | digest[i];
      }
      return h;
    }
  };

  [[nodiscard]] std::optional<bool> lookup(const Bytes& key) const;
  [[nodiscard]] bool contains(const Bytes& key) const;
  void store(Bytes key, bool ok);

  /// Size bound; clearing wholesale keeps the fast path deterministic (an
  /// LRU's behavior would depend on hash iteration order).
  static constexpr std::size_t kCap = 1 << 20;

  // ---- key construction ----

  /// kind byte ‖ u64-LE message length ‖ message ‖ signature, hashed. The
  /// length prefix removes any message/sig boundary ambiguity; the kind
  /// byte domain-separates the verdict families.
  [[nodiscard]] static Bytes signed_key(char kind, ByteSpan message,
                                        const Bytes& sig);
  /// Key from a message's memoized content digest (covers signature and
  /// all fields): digest ‖ kind ‖ tag. No hashing on this path — the hot
  /// loops reference the same few hundred distinct messages thousands of
  /// times, so the key must cost a lookup, not an encode.
  [[nodiscard]] static Bytes digest_key(const Bytes& digest, char kind,
                                        std::uint8_t tag);

 private:
  std::unordered_map<Bytes, bool, DigestHash> map_;
};

}  // namespace probft::core
