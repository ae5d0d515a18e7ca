#include "core/verdict_cache.hpp"

#include <utility>

#include "crypto/sha256.hpp"

namespace probft::core {

std::optional<bool> VerdictCache::lookup(const Bytes& key) const {
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

bool VerdictCache::contains(const Bytes& key) const {
  return map_.contains(key);
}

void VerdictCache::store(Bytes key, bool ok) {
  if (map_.size() >= kCap) map_.clear();
  map_.emplace(std::move(key), ok);
}

Bytes VerdictCache::signed_key(char kind, ByteSpan message,
                               const Bytes& sig) {
  crypto::Sha256 h;
  std::uint8_t head[9];
  head[0] = static_cast<std::uint8_t>(kind);
  const std::uint64_t len = message.size();
  for (int i = 0; i < 8; ++i) {
    head[1 + i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  h.update(ByteSpan(head, sizeof(head)));
  h.update(message);
  h.update(ByteSpan(sig.data(), sig.size()));
  const auto digest = h.finalize();
  return Bytes(digest.begin(), digest.end());
}

Bytes VerdictCache::digest_key(const Bytes& digest, char kind,
                               std::uint8_t tag) {
  Bytes key = digest;
  key.push_back(static_cast<std::uint8_t>(kind));
  key.push_back(tag);
  return key;
}

}  // namespace probft::core
