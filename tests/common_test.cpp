// Tests for the common substrate: hex, byte IO, deterministic RNG,
// statistics, and table rendering.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/time.hpp"

namespace ritm {
namespace {

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xAB, 0xFF};
  EXPECT_EQ(to_hex(ByteSpan(data.data(), data.size())), "0001abff");
  EXPECT_EQ(from_hex("0001abff"), data);
  EXPECT_EQ(from_hex("0001ABFF"), data);
}

TEST(Bytes, FromHexRejectsBadInput) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Bytes, CompareIsLexicographic) {
  const Bytes a = {0x01, 0x02};
  const Bytes b = {0x01, 0x03};
  const Bytes prefix = {0x01};
  EXPECT_LT(compare(ByteSpan(a), ByteSpan(b)), 0);
  EXPECT_GT(compare(ByteSpan(b), ByteSpan(a)), 0);
  EXPECT_EQ(compare(ByteSpan(a), ByteSpan(a)), 0);
  EXPECT_LT(compare(ByteSpan(prefix), ByteSpan(a)), 0);
  EXPECT_GT(compare(ByteSpan(a), ByteSpan(prefix)), 0);

  // Empty spans (null data) sort first and equal each other.
  EXPECT_EQ(compare(ByteSpan{}, ByteSpan{}), 0);
  EXPECT_LT(compare(ByteSpan{}, ByteSpan(prefix)), 0);
  EXPECT_GT(compare(ByteSpan(prefix), ByteSpan{}), 0);

  // Bytes compare unsigned, and a trailing 0x00 still makes a longer string.
  const Bytes low = {0x00};
  const Bytes high = {0xFF};
  const Bytes low_padded = {0x00, 0x00};
  EXPECT_LT(compare(ByteSpan(low), ByteSpan(high)), 0);
  EXPECT_GT(compare(ByteSpan(high), ByteSpan(low_padded)), 0);
  EXPECT_LT(compare(ByteSpan(low), ByteSpan(low_padded)), 0);
  const Bytes ff_tail = {0x01, 0x02, 0xFF};
  const Bytes zero_tail = {0x01, 0x02, 0x00, 0xFF};
  EXPECT_GT(compare(ByteSpan(ff_tail), ByteSpan(zero_tail)), 0);
  EXPECT_LT(compare(ByteSpan(zero_tail), ByteSpan(ff_tail)), 0);
}

TEST(Bytes, Concat) {
  const Bytes a = {1, 2}, b = {3}, c = {};
  EXPECT_EQ(concat({ByteSpan(a), ByteSpan(b), ByteSpan(c)}), (Bytes{1, 2, 3}));
}

TEST(ByteIo, IntegerRoundTrip) {
  ByteWriter w;
  w.u8(0x12);
  w.u16(0x3456);
  w.u24(0x789ABC);
  w.u32(0xDEF01234);
  w.u64(0x0123456789ABCDEFULL);
  ByteReader r{ByteSpan(w.bytes())};
  EXPECT_EQ(r.u8(), 0x12);
  EXPECT_EQ(r.u16(), 0x3456);
  EXPECT_EQ(r.u24(), 0x789ABCu);
  EXPECT_EQ(r.u32(), 0xDEF01234u);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.done());
}

TEST(ByteIo, VarBytesRoundTrip) {
  ByteWriter w;
  const Bytes payload = {9, 8, 7, 6};
  w.var8(ByteSpan(payload));
  w.var16(ByteSpan(payload));
  w.var24(ByteSpan(payload));
  ByteReader r{ByteSpan(w.bytes())};
  EXPECT_EQ(r.var8(), payload);
  EXPECT_EQ(r.var16(), payload);
  EXPECT_EQ(r.var24(), payload);
}

TEST(ByteIo, TryFormsReturnNulloptOnTruncation) {
  const Bytes short_buf = {0x00};
  ByteReader r{ByteSpan(short_buf)};
  EXPECT_FALSE(r.try_u16().has_value());
  EXPECT_TRUE(r.try_u8().has_value());
  EXPECT_FALSE(r.try_u8().has_value());
}

TEST(ByteIo, ThrowingFormsThrowOnTruncation) {
  const Bytes empty;
  ByteReader r{ByteSpan(empty)};
  EXPECT_THROW(r.u32(), std::out_of_range);
}

TEST(ByteIo, Var16LengthTooLargeThrows) {
  ByteWriter w;
  const Bytes big(70000, 0);
  EXPECT_THROW(w.var16(ByteSpan(big)), std::length_error);
}

TEST(ByteIo, PeekDoesNotConsume) {
  const Bytes data = {1, 2, 3};
  ByteReader r{ByteSpan(data)};
  auto p = r.peek(2);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ((*p)[0], 1);
  EXPECT_EQ(r.u8(), 1);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformWithinBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform(17), 17u);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  Summary s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  Summary s;
  for (int i = 0; i < 20000; ++i) s.add(rng.exponential(0.5));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(5);
  Rng child = parent.fork();
  EXPECT_NE(parent.next(), child.next());
}

TEST(Rng, BytesLength) {
  Rng rng(3);
  EXPECT_EQ(rng.bytes(0).size(), 0u);
  EXPECT_EQ(rng.bytes(7).size(), 7u);
  EXPECT_EQ(rng.bytes(64).size(), 64u);
}

TEST(Rng, ZipfFavorsLowRanks) {
  Rng rng(17);
  std::size_t low = 0, high = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto r = rng.zipf(100, 1.0);
    if (r < 10) ++low;
    if (r >= 90) ++high;
  }
  EXPECT_GT(low, high * 3);
}

TEST(Summary, BasicStats) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 5.0);
}

TEST(Summary, CdfAt) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.cdf_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(2.0), 0.5);
  EXPECT_DOUBLE_EQ(s.cdf_at(10.0), 1.0);
}

TEST(Summary, CdfCurveMonotone) {
  Rng rng(21);
  Summary s;
  for (int i = 0; i < 500; ++i) s.add(rng.normal(0, 1));
  const auto curve = s.cdf_curve(50);
  ASSERT_EQ(curve.size(), 50u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].second, curve[i - 1].second);
    EXPECT_GE(curve[i].first, curve[i - 1].first);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(Summary, EmptyThrows) {
  Summary s;
  EXPECT_THROW(s.mean(), std::logic_error);
  EXPECT_THROW(s.min(), std::logic_error);
  EXPECT_THROW(s.percentile(0.5), std::logic_error);
}

TEST(Histogram, Binning) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.99);
  h.add(-1.0);
  h.add(10.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Crc32, KnownAnswerVectors) {
  // IEEE 802.3 known answers: a table-construction bug in the slice-by-8
  // implementation would pass every encode-then-decode test while breaking
  // compatibility with WALs/snapshots written by the old byte-at-a-time
  // code — these pin the function itself.
  EXPECT_EQ(crc32(ByteSpan(bytes_of("123456789"))), 0xCBF43926u);
  EXPECT_EQ(crc32(ByteSpan()), 0x00000000u);
  EXPECT_EQ(crc32(ByteSpan(bytes_of("a"))), 0xE8B7BE43u);
  EXPECT_EQ(crc32(ByteSpan(bytes_of("The quick brown fox jumps over the "
                                    "lazy dog"))),
            0x414FA339u);
}

TEST(Crc32, SliceBy8MatchesBitwiseReferenceAtEveryLength) {
  // Cross-check against a first-principles bitwise implementation for
  // every length straddling the 8-byte main-loop/tail boundary, and for
  // every chunked split of a fixed buffer (streaming == one-shot).
  const auto reference = [](ByteSpan data) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (const std::uint8_t b : data) {
      c ^= b;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
    }
    return c ^ 0xFFFFFFFFu;
  };
  Bytes buf;
  for (std::size_t i = 0; i < 67; ++i) {
    buf.push_back(static_cast<std::uint8_t>(i * 31 + 7));
    EXPECT_EQ(crc32(ByteSpan(buf)), reference(ByteSpan(buf)))
        << "length " << buf.size();
  }
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    std::uint32_t state = crc32_init();
    state = crc32_update(state, ByteSpan(buf.data(), split));
    state = crc32_update(state,
                         ByteSpan(buf.data() + split, buf.size() - split));
    EXPECT_EQ(crc32_final(state), crc32(ByteSpan(buf))) << "split " << split;
  }
}

TEST(Time, Conversions) {
  EXPECT_EQ(to_seconds(1500), 1);
  EXPECT_EQ(from_seconds(2), 2000);
  EXPECT_EQ(kMsPerDay, 86400000);
}

}  // namespace
}  // namespace ritm
