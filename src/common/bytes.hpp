// Byte-buffer utilities shared by every RITM subsystem.
//
// All wire formats in this codebase (dictionary proofs, TLS messages, CDN
// objects) are built on `Bytes`, a plain byte vector, plus the hex helpers
// here. Fixed-size digests and keys use std::array and live next to their
// producers (see crypto/).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ritm {

using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;

/// Encodes `data` as lowercase hex ("deadbeef").
std::string to_hex(ByteSpan data);

/// Decodes a hex string (case-insensitive, even length). Throws
/// std::invalid_argument on malformed input.
Bytes from_hex(std::string_view hex);

/// Concatenates any number of byte spans into a fresh buffer.
Bytes concat(std::initializer_list<ByteSpan> parts);

/// Appends `src` to `dst`.
void append(Bytes& dst, ByteSpan src);

/// Constant-size wrapper conversions.
template <std::size_t N>
inline Bytes to_bytes(const std::array<std::uint8_t, N>& a) {
  return Bytes(a.begin(), a.end());
}

/// Lexicographic comparison of byte strings (shorter prefix sorts first):
/// -1, 0 or 1. A memcmp over the common prefix, then the lengths; inline
/// because dictionary search, batch sorting and proof verification all sit
/// on it.
inline int compare(ByteSpan a, ByteSpan b) noexcept {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  // An empty span may carry a null pointer, which memcmp must not see.
  if (n != 0) {
    if (const int c = std::memcmp(a.data(), b.data(), n); c != 0) {
      return c < 0 ? -1 : 1;
    }
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

/// Bytes of an ASCII string (no terminator).
Bytes bytes_of(std::string_view s);

}  // namespace ritm
