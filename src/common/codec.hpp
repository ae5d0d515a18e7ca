// A small endian-stable binary codec.
//
// Every protocol message is serialized with `Writer` before being signed or
// shipped through the simulated network, and parsed back with `Reader`.
// The format is:
//   - fixed-width integers: little-endian
//   - byte strings / vectors: u32 length prefix followed by payload
//   - optional<T>: u8 presence flag followed by payload if present
//
// Reader performs strict bounds checking and reports malformed input via
// CodecError, so protocol code can treat any Byzantine-crafted buffer safely.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/bytes.hpp"

namespace probft {

/// Thrown by Reader when a buffer is truncated or malformed.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

class Writer {
 public:
  template <typename T>
    requires std::is_unsigned_v<T>
  void u(T value) {
    std::uint8_t le[sizeof(T)] = {};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      le[i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
    raw(ByteSpan(le, sizeof(T)));
  }

  void u8(std::uint8_t v) { u<std::uint8_t>(v); }
  void u16(std::uint16_t v) { u<std::uint16_t>(v); }
  void u32(std::uint32_t v) { u<std::uint32_t>(v); }
  void u64(std::uint64_t v) { u<std::uint64_t>(v); }

  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed byte string.
  void bytes(ByteSpan data) {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
  }

  /// Raw bytes, no length prefix (for fixed-size fields). Grows before the
  /// insert so it never reallocates: gcc 12 -O3 misreads that path.
  void raw(ByteSpan data) {
    if (buf_.capacity() - buf_.size() < data.size()) {
      buf_.reserve(std::max(2 * buf_.capacity(), buf_.size() + data.size()));
    }
    buf_.insert(buf_.end(), data.data(), data.data() + data.size());
  }

  void str(std::string_view s) {
    bytes(ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }

  template <typename T, typename Fn>
  void vec(const std::vector<T>& items, Fn&& encode_one) {
    u32(static_cast<std::uint32_t>(items.size()));
    for (const auto& item : items) encode_one(*this, item);
  }

  template <typename T, typename Fn>
  void opt(const std::optional<T>& value, Fn&& encode_one) {
    boolean(value.has_value());
    if (value) encode_one(*this, *value);
  }

  [[nodiscard]] const Bytes& data() const& { return buf_; }
  [[nodiscard]] Bytes&& take() && { return std::move(buf_); }

 private:
  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(ByteSpan data) : data_(data) {}

  template <typename T>
    requires std::is_unsigned_v<T>
  [[nodiscard]] T u() {
    require(sizeof(T));
    T value = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      value |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return value;
  }

  [[nodiscard]] std::uint8_t u8() { return u<std::uint8_t>(); }
  [[nodiscard]] std::uint16_t u16() { return u<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return u<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return u<std::uint64_t>(); }

  [[nodiscard]] bool boolean() {
    const auto v = u8();
    if (v > 1) throw CodecError("boolean: invalid flag");
    return v == 1;
  }

  [[nodiscard]] Bytes bytes() {
    const auto len = u32();
    require(len);
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return out;
  }

  [[nodiscard]] Bytes raw(std::size_t len) {
    require(len);
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return out;
  }

  [[nodiscard]] std::string str() {
    const auto raw_bytes = bytes();
    return std::string(raw_bytes.begin(), raw_bytes.end());
  }

  template <typename T, typename Fn>
  [[nodiscard]] std::vector<T> vec(Fn&& decode_one, std::size_t max_items = 1
                                                                << 20) {
    const auto count = u32();
    if (count > max_items) throw CodecError("vec: count exceeds limit");
    std::vector<T> out;
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) out.push_back(decode_one(*this));
    return out;
  }

  template <typename T, typename Fn>
  [[nodiscard]] std::optional<T> opt(Fn&& decode_one) {
    if (!boolean()) return std::nullopt;
    return decode_one(*this);
  }

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  /// Throws unless the whole buffer has been consumed.
  void expect_exhausted() const {
    if (!exhausted()) throw CodecError("trailing bytes after message");
  }

 private:
  void require(std::size_t n) const {
    if (data_.size() - pos_ < n) throw CodecError("truncated buffer");
  }

  ByteSpan data_;
  std::size_t pos_ = 0;
};

}  // namespace probft
