// Big-endian binary writer/reader used for every wire format in RITM
// (dictionary proofs, signed roots, TLS handshake messages, CDN objects).
//
// The reader is non-throwing on truncation in the `try_*` forms so that DPI
// code can cheaply reject non-TLS traffic (a hot path per Table III of the
// paper); the throwing forms are for trusted, already-length-checked input.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.hpp"

namespace ritm {

/// Serializes integers big-endian and length-prefixed byte strings.
///
/// By default the writer owns its buffer (take() moves it out). The
/// external-sink constructor appends to a caller-provided buffer instead —
/// the allocation-free `encode_into` path used for proof/status assembly on
/// the RA hot path. A writer is pinned to one buffer: no copies or moves.
class ByteWriter {
 public:
  ByteWriter() : out_(&own_) {}
  /// Appends to `sink` (which the caller keeps). `sink` must outlive the
  /// writer; take() must not be called in this mode.
  explicit ByteWriter(Bytes& sink) : out_(&sink) {}
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u24(std::uint32_t v);  // low 24 bits; throws if v >= 2^24
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Raw bytes, no length prefix.
  void raw(ByteSpan data);
  /// Byte string with u16 length prefix. Throws if data > 65535 bytes.
  void var16(ByteSpan data);
  /// Byte string with u24 length prefix.
  void var24(ByteSpan data);
  /// Byte string with u8 length prefix. Throws if data > 255 bytes.
  void var8(ByteSpan data);

  const Bytes& bytes() const noexcept { return *out_; }
  Bytes take() { return std::move(own_); }
  std::size_t size() const noexcept { return out_->size(); }

 private:
  Bytes own_;
  Bytes* out_;
};

/// Cursor over an immutable byte span. The `try_*` accessors return
/// std::nullopt on truncation; the plain accessors throw std::out_of_range.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) : data_(data) {}

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return remaining() == 0; }
  std::size_t position() const noexcept { return pos_; }

  std::optional<std::uint8_t> try_u8();
  std::optional<std::uint16_t> try_u16();
  std::optional<std::uint32_t> try_u24();
  std::optional<std::uint32_t> try_u32();
  std::optional<std::uint64_t> try_u64();
  /// Reads exactly n bytes as a view into the input: no copy, no
  /// allocation. The span lives as long as the input does.
  std::optional<ByteSpan> try_span(std::size_t n);
  /// Reads exactly n raw bytes into a fresh buffer.
  std::optional<Bytes> try_raw(std::size_t n);
  std::optional<Bytes> try_var8();
  std::optional<Bytes> try_var16();
  std::optional<Bytes> try_var24();
  /// Peeks n bytes at the cursor without consuming.
  std::optional<ByteSpan> peek(std::size_t n) const;
  /// Skips n bytes; returns false (cursor unchanged) on truncation.
  bool skip(std::size_t n);

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u24();
  std::uint32_t u32();
  std::uint64_t u64();
  Bytes raw(std::size_t n);
  Bytes var8();
  Bytes var16();
  Bytes var24();

 private:
  [[noreturn]] static void fail(const char* what);
  ByteSpan data_;
  std::size_t pos_ = 0;
};

}  // namespace ritm
