// Seeded inputs of the RA benchmark: the CA population, the revoked and
// never-revoked serials, the query streams, and the feed periods. Every
// shape constant is copied into this file (from the calibrated trace of
// src/eval/trace.cpp, §VII-A of the paper) rather than read from the
// library at run time, so a change under src/ cannot alter the workload.
//
// Serials are 16 random-looking bytes (CA/B Forum BR §7.1 requires >= 64
// bits of CSPRNG output), produced by a keyed bijection from a query key
// (CA, revoked?, index). The ground truth is therefore exact and free: the
// i-th serial a CA ever revokes carries revocation number i + 1, and a
// never-revoked key is never in any dictionary.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cert/certificate.hpp"
#include "common/time.hpp"

namespace ritm {
namespace ca {}
namespace cdn {}
namespace client {}
namespace dict {}
namespace ra {}
namespace svc {}
}  // namespace ritm

namespace perfbench {

namespace ca = ritm::ca;
namespace cdn = ritm::cdn;
namespace cert = ritm::cert;
namespace client = ritm::client;
namespace crypto = ritm::crypto;
namespace dict = ritm::dict;
namespace ra = ritm::ra;
namespace svc = ritm::svc;
using ritm::Bytes;
using ritm::ByteSpan;
using ritm::from_seconds;
using ritm::UnixSeconds;

inline constexpr std::size_t kCas = 8;

/// Initial dictionary sizes: the paper's largest CRL (339,557 entries) and
/// the next seven trace shares of 1,381,992 revocations (Zipf over 253 CAs).
inline constexpr std::array<std::uint64_t, kCas> kCorpus = {
    339557, 170472, 85236, 56824, 42618, 34094, 28412, 24353};

/// Revocations per CA in one feed period: the trace's mean day scaled by
/// the same shares, with the trace's weekend dip (x0.55) on two days of
/// seven.
inline constexpr std::array<std::uint64_t, kCas> kPeriodWeekday = {
    623, 312, 156, 104, 78, 62, 52, 45};
inline constexpr std::array<std::uint64_t, kCas> kPeriodWeekend = {
    343, 172, 86, 57, 43, 34, 29, 25};

/// The Heartbleed-sized period: the largest CA revokes this many extra.
inline constexpr std::uint64_t kMassRevocations = 100000;

/// Zipf exponent of query popularity.
inline constexpr double kZipfExponent = 1.1;

/// Serials per status_batch envelope (bulk_cold).
inline constexpr std::size_t kBatchSerials = 256;

/// Scales the population down for the smoke test (1 = full size).
struct Shape {
  std::uint64_t divisor = 1;
  std::uint64_t corpus(std::size_t ca) const;
  std::uint64_t period_count(std::size_t ca, std::uint64_t period) const;
  std::uint64_t mass() const { return kMassRevocations / divisor; }
};

/// What a query asks about: CA, and either the index-th revoked serial of
/// that CA or the index-th never-revoked one.
struct Key {
  std::uint32_t ca = 0;
  bool revoked = false;
  std::uint64_t index = 0;

  /// Revocation number the CA assigns (0 for a never-revoked key).
  std::uint64_t number() const { return revoked ? index + 1 : 0; }
};

/// splitmix64 stream; the benchmark's only source of randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  double uniform01();  // [0, 1)
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

std::uint64_t mix64(std::uint64_t x);

class Inputs {
 public:
  Inputs(std::uint64_t seed, Shape shape);

  const Shape& shape() const { return shape_; }
  std::uint64_t seed() const { return seed_; }

  static std::string ca_name(std::size_t ca);

  /// The 16-byte serial of a key (a bijection: distinct keys, distinct
  /// serials).
  cert::SerialNumber serial(const Key& k) const;

  /// Serials with indices [first, first + count) that CA `ca` revokes.
  std::vector<cert::SerialNumber> revoked_serials(std::size_t ca,
                                                  std::uint64_t first,
                                                  std::uint64_t count) const;

  /// A CA drawn by corpus share.
  std::uint32_t draw_ca(Rng& rng) const;

  /// handshake / revocation_day reads: Zipf(1.1) over 2 x corpus items per
  /// CA; each item is a fixed revoked or never-revoked key.
  Key draw_popular(Rng& rng) const;

  /// bulk_cold: 1 in 8 revoked uniform over the corpus, the rest fresh
  /// never-revoked serials from a 2^40 space — far beyond the status cache.
  Key draw_cold(Rng& rng, std::uint32_t ca) const;

  /// One open-loop request: when it is due (ns after the phase start) and
  /// what it asks.
  struct Arrival {
    std::int64_t due_ns = 0;
    Key key;
  };
  /// Poisson arrivals at `rate_per_s` for `seconds`, generator `stream`.
  std::vector<Arrival> schedule(double rate_per_s, double seconds,
                                std::uint64_t stream) const;

  /// SHA-256 over the corpus, the first arrivals of both streams, the
  /// first cold keys, and the feed periods — the input digest.
  std::string digest() const;

 private:
  std::uint64_t seed_;
  Shape shape_;
  std::uint64_t k1_, k2_;
  std::array<std::vector<double>, kCas> zipf_cdf_;
  std::array<double, kCas> ca_cdf_{};
};

}  // namespace perfbench
