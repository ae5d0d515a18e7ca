#include "common/flags.hpp"

#include <cmath>

namespace probft {

double parse_finite(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    throw std::invalid_argument("bad number: " + std::string(text));
  }
  return value;
}

double parse_factor(std::string_view text) {
  const double value = parse_finite(text);
  if (value <= 0.0 || value > 100.0) {
    throw std::invalid_argument("factor out of (0, 100]: " +
                                std::string(text));
  }
  return value;
}

HostPort parse_host_port(std::string_view text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0) {
    throw std::invalid_argument("expected host:port: " + std::string(text));
  }
  const auto port = parse_uint<std::uint16_t>(text.substr(colon + 1));
  if (port == 0) {
    throw std::invalid_argument("port 0 in " + std::string(text));
  }
  return HostPort{std::string(text.substr(0, colon)), port};
}

}  // namespace probft
