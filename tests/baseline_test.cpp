// Baseline-scheme tests: Tab. IV analytic profiles, the CRLite filter
// cascade and its analytic size, the operational models, and the RevCast
// bandwidth bound.
#include <gtest/gtest.h>

#include "baseline/crlite.hpp"
#include "baseline/schemes.hpp"
#include "cert/certificate.hpp"

namespace ritm::baseline {
namespace {

using cert::SerialNumber;

TEST(Schemes, TableIvRowCountAndOrder) {
  const auto rows = evaluate_all(Params{});
  ASSERT_EQ(rows.size(), 9u);
  EXPECT_EQ(rows[0].name, "CRL");
  EXPECT_EQ(rows[7].name, "CRLite");
  EXPECT_EQ(rows[8].name, "RITM");
}

TEST(Schemes, RitmViolatesNothing) {
  const auto r = ritm(Params{});
  EXPECT_EQ(r.violated, "-");
  EXPECT_FALSE(r.needs_server_change);
  EXPECT_DOUBLE_EQ(r.storage_client, 0.0);
  EXPECT_DOUBLE_EQ(r.conn_client, 0.0);
}

TEST(Schemes, RitmAttackWindowIsTwoDelta) {
  Params p;
  p.delta_seconds = 10;
  EXPECT_DOUBLE_EQ(ritm(p).attack_window_seconds, 20.0);
  p.delta_seconds = 3600;
  EXPECT_DOUBLE_EQ(ritm(p).attack_window_seconds, 7200.0);
}

TEST(Schemes, RitmHasSmallestAttackWindow) {
  const Params p;  // ∆ = 10 s
  const auto rows = evaluate_all(p);
  const double ritm_window = ritm(p).attack_window_seconds;
  for (const auto& row : rows) {
    if (row.name == "RITM" || row.name == "RevCast") continue;
    EXPECT_GT(row.attack_window_seconds, ritm_window) << row.name;
  }
}

TEST(Schemes, ClientStorageOnlyForListBasedSchemes) {
  const auto rows = evaluate_all(Params{});
  for (const auto& row : rows) {
    const bool list_based = row.name == "CRL" || row.name == "CRLSet" ||
                            row.name == "RevCast" || row.name == "CRLite";
    EXPECT_EQ(row.storage_client > 0, list_based) << row.name;
  }
}

TEST(Schemes, RevcastChokesOnHeartbleed) {
  // 70k revocations (one Heartbleed peak day) serialize for hours on the
  // 421.8 bit/s radio channel: 70k * 12 B * 8 / 421.8 ≈ 4.4 hours.
  const Params p;
  const double secs = revcast_dissemination_seconds(p, 70'000);
  EXPECT_GT(secs, 4.0 * 3600.0);
  // RITM pushes the same batch through the CDN within one ∆.
  EXPECT_LT(ritm(p).attack_window_seconds, 60.0);
}

TEST(Schemes, RitmGlobalStorageScalesWithRasNotClients) {
  Params p;
  const auto base = ritm(p);
  p.n_clients *= 10;  // more clients, same RAs
  const auto more_clients = ritm(p);
  EXPECT_DOUBLE_EQ(base.storage_global, more_clients.storage_global);
  const auto crl_base = crl(Params{});
  Params p2;
  p2.n_clients *= 10;
  EXPECT_GT(crl(p2).storage_global, crl_base.storage_global);
}

// ------------------------------------------------------------- CRLite

std::vector<Bytes> serial_keys(std::uint64_t lo, std::uint64_t hi,
                               std::uint64_t step) {
  std::vector<Bytes> keys;
  for (std::uint64_t v = lo; v < hi; v += step) {
    keys.push_back(SerialNumber::from_uint(v).value);
  }
  return keys;
}

TEST(Crlite, CascadeIsExactOverTheUniverse) {
  // 2k revoked among 20k valid: every universe query must be exact —
  // no false positives, no false negatives, by construction.
  const auto revoked = serial_keys(1, 20'001, 10);  // 1, 11, 21, ...
  std::vector<Bytes> valid;
  for (std::uint64_t v = 1; v <= 20'000; ++v) {
    if ((v - 1) % 10 != 0) valid.push_back(SerialNumber::from_uint(v).value);
  }
  const auto fc = FilterCascade::build(revoked, valid);
  ASSERT_GE(fc.levels(), 1u);
  for (const auto& k : revoked) EXPECT_TRUE(fc.is_revoked(ByteSpan(k)));
  for (const auto& k : valid) EXPECT_FALSE(fc.is_revoked(ByteSpan(k)));
}

TEST(Crlite, CascadeIsSmallerThanTheList) {
  const auto revoked = serial_keys(1, 10'001, 5);
  std::vector<Bytes> valid;
  for (std::uint64_t v = 1; v <= 10'000; ++v) {
    if ((v - 1) % 5 != 0) valid.push_back(SerialNumber::from_uint(v).value);
  }
  const auto fc = FilterCascade::build(revoked, valid);
  // The CRLite selling point: a compressed exact set, far below the
  // 12 B/entry a CRL-style list pays.
  EXPECT_LT(fc.size_bytes(), revoked.size() * 12);
  EXPECT_GT(fc.size_bytes(), 0u);
}

TEST(Crlite, EmptyRevokedSetIsAllValid) {
  const auto fc = FilterCascade::build({}, serial_keys(1, 100, 1));
  EXPECT_EQ(fc.levels(), 0u);
  const auto k = SerialNumber::from_uint(7).value;
  EXPECT_FALSE(fc.is_revoked(ByteSpan(k)));
}

TEST(Crlite, AnalyticSizeTracksTheBuiltCascade) {
  const auto revoked = serial_keys(1, 20'001, 10);
  std::vector<Bytes> valid;
  for (std::uint64_t v = 1; v <= 20'000; ++v) {
    if ((v - 1) % 10 != 0) valid.push_back(SerialNumber::from_uint(v).value);
  }
  const auto fc = FilterCascade::build(revoked, valid);
  const double analytic = crlite_cascade_bits(
      static_cast<double>(revoked.size()), static_cast<double>(valid.size()));
  const double built = static_cast<double>(fc.size_bytes()) * 8.0;
  // The closed form should land within 2x of a real build.
  EXPECT_GT(analytic, built * 0.5);
  EXPECT_LT(analytic, built * 2.0);
}

TEST(Crlite, OperationalWindowIsThePushCadence) {
  const Params p;
  const auto six_hours = crlite_operational(p, 6 * 3600.0);
  EXPECT_DOUBLE_EQ(six_hours.attack_window_seconds, 6 * 3600.0);
  const auto daily = crlite_operational(p, 86400.0);
  EXPECT_DOUBLE_EQ(daily.attack_window_seconds, 86400.0);
  // Faster pushes don't change what a client stores.
  EXPECT_DOUBLE_EQ(six_hours.client_storage_bytes,
                   daily.client_storage_bytes);
  EXPECT_GT(daily.client_storage_bytes, 0.0);
  EXPECT_EQ(daily.refresh_payer, "client");
}

TEST(Crlite, OperationalComparisonFavorsRitmOnWindow) {
  const Params p;  // ∆ = 10 s
  const auto crlite_op = crlite_operational(p, p.crlite_push_seconds);
  const auto stapling_op =
      stapling_operational(p, /*refresh=*/86400.0);
  const auto ritm_op = ritm_operational(p);
  EXPECT_LT(ritm_op.attack_window_seconds, crlite_op.attack_window_seconds);
  EXPECT_LT(ritm_op.attack_window_seconds,
            stapling_op.attack_window_seconds);
  EXPECT_DOUBLE_EQ(ritm_op.attack_window_seconds, 2.0 * p.delta_seconds);
  // And clients hold nothing under RITM or stapling, unlike CRLite.
  EXPECT_DOUBLE_EQ(ritm_op.client_storage_bytes, 0.0);
  EXPECT_DOUBLE_EQ(stapling_op.client_storage_bytes, 0.0);
}

TEST(Crlite, StaplingWindowCappedByValidity) {
  Params p;
  p.ocsp_validity_seconds = 7 * 86400.0;
  // A server that never refreshes is still bounded by response expiry.
  const auto lazy = stapling_operational(p, 365.0 * 86400.0);
  EXPECT_DOUBLE_EQ(lazy.attack_window_seconds, p.ocsp_validity_seconds);
  const auto eager = stapling_operational(p, 3600.0);
  EXPECT_DOUBLE_EQ(eager.attack_window_seconds, 3600.0);
  EXPECT_GT(eager.refresh_bytes_per_day, lazy.refresh_bytes_per_day);
}

}  // namespace
}  // namespace ritm::baseline
