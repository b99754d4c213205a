#include "common/io.hpp"

#include <stdexcept>

namespace ritm {

void ByteWriter::u8(std::uint8_t v) { out_->push_back(v); }

void ByteWriter::u16(std::uint16_t v) {
  out_->push_back(static_cast<std::uint8_t>(v >> 8));
  out_->push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u24(std::uint32_t v) {
  if (v >= (1u << 24)) throw std::length_error("ByteWriter::u24 overflow");
  out_->push_back(static_cast<std::uint8_t>(v >> 16));
  out_->push_back(static_cast<std::uint8_t>(v >> 8));
  out_->push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int s = 24; s >= 0; s -= 8) {
    out_->push_back(static_cast<std::uint8_t>(v >> s));
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (int s = 56; s >= 0; s -= 8) {
    out_->push_back(static_cast<std::uint8_t>(v >> s));
  }
}

void ByteWriter::raw(ByteSpan data) {
  out_->insert(out_->end(), data.begin(), data.end());
}

void ByteWriter::var8(ByteSpan data) {
  if (data.size() > 0xFF) throw std::length_error("ByteWriter::var8 overflow");
  u8(static_cast<std::uint8_t>(data.size()));
  raw(data);
}

void ByteWriter::var16(ByteSpan data) {
  if (data.size() > 0xFFFF) {
    throw std::length_error("ByteWriter::var16 overflow");
  }
  u16(static_cast<std::uint16_t>(data.size()));
  raw(data);
}

void ByteWriter::var24(ByteSpan data) {
  if (data.size() >= (1u << 24)) {
    throw std::length_error("ByteWriter::var24 overflow");
  }
  u24(static_cast<std::uint32_t>(data.size()));
  raw(data);
}

std::optional<std::uint8_t> ByteReader::try_u8() {
  if (remaining() < 1) return std::nullopt;
  return data_[pos_++];
}

std::optional<std::uint16_t> ByteReader::try_u16() {
  if (remaining() < 2) return std::nullopt;
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::optional<std::uint32_t> ByteReader::try_u24() {
  if (remaining() < 3) return std::nullopt;
  std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) << 16 |
                    static_cast<std::uint32_t>(data_[pos_ + 1]) << 8 |
                    static_cast<std::uint32_t>(data_[pos_ + 2]);
  pos_ += 3;
  return v;
}

std::optional<std::uint32_t> ByteReader::try_u32() {
  if (remaining() < 4) return std::nullopt;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = v << 8 | data_[pos_ + i];
  pos_ += 4;
  return v;
}

std::optional<std::uint64_t> ByteReader::try_u64() {
  if (remaining() < 8) return std::nullopt;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = v << 8 | data_[pos_ + i];
  pos_ += 8;
  return v;
}

std::optional<ByteSpan> ByteReader::try_span(std::size_t n) {
  if (remaining() < n) return std::nullopt;
  const ByteSpan out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::optional<Bytes> ByteReader::try_raw(std::size_t n) {
  const auto span = try_span(n);
  if (!span) return std::nullopt;
  return Bytes(span->begin(), span->end());
}

std::optional<Bytes> ByteReader::try_var8() {
  auto n = try_u8();
  if (!n) return std::nullopt;
  return try_raw(*n);
}

std::optional<Bytes> ByteReader::try_var16() {
  auto n = try_u16();
  if (!n) return std::nullopt;
  return try_raw(*n);
}

std::optional<Bytes> ByteReader::try_var24() {
  auto n = try_u24();
  if (!n) return std::nullopt;
  return try_raw(*n);
}

std::optional<ByteSpan> ByteReader::peek(std::size_t n) const {
  if (remaining() < n) return std::nullopt;
  return data_.subspan(pos_, n);
}

bool ByteReader::skip(std::size_t n) {
  if (remaining() < n) return false;
  pos_ += n;
  return true;
}

void ByteReader::fail(const char* what) { throw std::out_of_range(what); }

std::uint8_t ByteReader::u8() {
  auto v = try_u8();
  if (!v) fail("ByteReader::u8 truncated");
  return *v;
}

std::uint16_t ByteReader::u16() {
  auto v = try_u16();
  if (!v) fail("ByteReader::u16 truncated");
  return *v;
}

std::uint32_t ByteReader::u24() {
  auto v = try_u24();
  if (!v) fail("ByteReader::u24 truncated");
  return *v;
}

std::uint32_t ByteReader::u32() {
  auto v = try_u32();
  if (!v) fail("ByteReader::u32 truncated");
  return *v;
}

std::uint64_t ByteReader::u64() {
  auto v = try_u64();
  if (!v) fail("ByteReader::u64 truncated");
  return *v;
}

Bytes ByteReader::raw(std::size_t n) {
  auto v = try_raw(n);
  if (!v) fail("ByteReader::raw truncated");
  return std::move(*v);
}

Bytes ByteReader::var8() {
  auto v = try_var8();
  if (!v) fail("ByteReader::var8 truncated");
  return std::move(*v);
}

Bytes ByteReader::var16() {
  auto v = try_var16();
  if (!v) fail("ByteReader::var16 truncated");
  return std::move(*v);
}

Bytes ByteReader::var24() {
  auto v = try_var24();
  if (!v) fail("ByteReader::var24 truncated");
  return std::move(*v);
}

}  // namespace ritm
