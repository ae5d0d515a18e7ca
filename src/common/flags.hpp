// Strict command-line value parsers shared by the example binaries
// (probft_node, probft_client, scenario_runner). Each parser consumes the
// whole string and throws std::invalid_argument on anything else: a sign,
// leading whitespace, trailing garbage, NaN or infinity, or a value that
// does not fit its destination. A flag must never wrap or truncate into a
// different, valid-looking setting (`--client-port 92437` listening on
// 26901, `--id 4294967297` running as replica 1).
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace probft {

/// Decimal digits only, value in [0, max]; `max` defaults to the range of
/// the destination type T.
template <std::unsigned_integral T = std::uint64_t>
[[nodiscard]] T parse_uint(
    std::string_view text,
    std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max) {
    throw std::invalid_argument("bad number: " + std::string(text));
  }
  return value;
}

/// Upper bound for millisecond flags, which callers turn into
/// microseconds: the conversion cannot wrap.
inline constexpr std::uint64_t kMaxFlagMs =
    std::numeric_limits<std::uint64_t>::max() / 1000;

/// A finite decimal number (fractions and exponents allowed).
[[nodiscard]] double parse_finite(std::string_view text);

/// ProBFT's sample (o) and quorum (l) factors: finite, in (0, 100]. NaN
/// or a non-positive factor would silently run a nonsense configuration.
[[nodiscard]] double parse_factor(std::string_view text);

struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// "host:port", split at the last colon; the host is non-empty and the
/// port in 1..65535.
[[nodiscard]] HostPort parse_host_port(std::string_view text);

}  // namespace probft
