// Decoder robustness: every wire codec in the system is fed thousands of
// deterministically mutated inputs (bit flips, truncations, extensions,
// random noise). The invariant: decoders never crash, never throw, and
// anything they do accept re-encodes without crashing. This is the
// adversarial-bytes surface an RA's DPI and a client's status parser are
// exposed to on-path (§II adversary model: "can modify, block, and create
// any message").
#include <gtest/gtest.h>

#include <functional>

#include "ca/authority.hpp"
#include "ca/feed.hpp"
#include "common/rng.hpp"
#include "dict/dictionary.hpp"
#include "dict/messages.hpp"
#include "ra/dpi.hpp"
#include "tls/handshake.hpp"
#include "tls/record.hpp"
#include "tls/session.hpp"

namespace ritm {
namespace {

using cert::SerialNumber;

struct Codec {
  const char* name;
  Bytes valid;                                  // a known-good encoding
  std::function<bool(ByteSpan)> try_decode;     // returns "accepted"
};

/// Builds one representative valid encoding per codec.
std::vector<Codec> make_codecs() {
  std::vector<Codec> codecs;
  Rng rng(4242);

  ca::CertificationAuthority::Config cfg;
  cfg.id = "CA-R";
  cfg.delta = 10;
  ca::CertificationAuthority ca(cfg, rng, 1000);
  const auto issuance =
      ca.revoke({SerialNumber::from_uint(1), SerialNumber::from_uint(2)}, 1000);
  const auto status = ca.status_for(SerialNumber::from_uint(1), 1000);

  crypto::Seed s{};
  s.fill(0x11);
  const auto kp = crypto::keypair_from_seed(s);
  const auto leaf = ca.issue("robust.example", kp.public_key, 0, 10'000'000);

  codecs.push_back({"Certificate", leaf.encode(), [](ByteSpan d) {
                      return cert::Certificate::decode(d).has_value();
                    }});
  codecs.push_back({"Chain", cert::encode_chain({leaf}), [](ByteSpan d) {
                      return cert::decode_chain(d).has_value();
                    }});
  codecs.push_back({"Proof", status.proof.encode(), [](ByteSpan d) {
                      return dict::Proof::decode(d).has_value();
                    }});
  codecs.push_back({"SignedRoot", ca.signed_root().encode(), [](ByteSpan d) {
                      return dict::SignedRoot::decode(d).has_value();
                    }});
  codecs.push_back({"RevocationIssuance", issuance.encode(), [](ByteSpan d) {
                      return dict::RevocationIssuance::decode(d).has_value();
                    }});
  codecs.push_back(
      {"FreshnessStatement",
       dict::FreshnessStatement{"CA-R", ca.freshness_at(1000)}.encode(),
       [](ByteSpan d) {
         return dict::FreshnessStatement::decode(d).has_value();
       }});
  codecs.push_back({"RevocationStatus", status.encode(), [](ByteSpan d) {
                      return dict::RevocationStatus::decode(d).has_value();
                    }});
  // The client's in-place parse: what it accepts re-encodes to exactly the
  // bytes it viewed.
  codecs.push_back({"StatusView", status.encode(), [](ByteSpan d) {
                      const auto v = dict::StatusView::parse(d);
                      if (v && v->materialize().encode() !=
                                   Bytes(d.begin(), d.end())) {
                        ADD_FAILURE() << "StatusView re-encoded differently";
                      }
                      return v.has_value();
                    }});
  codecs.push_back({"SyncRequest", dict::SyncRequest{"CA-R", 7}.encode(),
                    [](ByteSpan d) {
                      return dict::SyncRequest::decode(d).has_value();
                    }});
  {
    dict::SyncResponse resp;
    resp.ca = "CA-R";
    resp.entries = ca.dictionary().entries_from(1);
    resp.signed_root = ca.signed_root();
    codecs.push_back({"SyncResponse", resp.encode(), [](ByteSpan d) {
                        return dict::SyncResponse::decode(d).has_value();
                      }});
  }
  codecs.push_back({"FeedMessage", ca::FeedMessage::of(issuance).encode(),
                    [](ByteSpan d) {
                      return ca::FeedMessage::decode(d).has_value();
                    }});
  codecs.push_back(
      {"Feed",
       ca::encode_feed({ca::FeedMessage::of(issuance),
                        ca::FeedMessage::of(dict::FreshnessStatement{
                            "CA-R", ca.freshness_at(1010)})}),
       [](ByteSpan d) { return ca::decode_feed(d).has_value(); }});
  {
    tls::ClientHello ch;
    ch.extensions.push_back(tls::Extension{tls::kRitmExtension, {}});
    const tls::Record rec{
        tls::ContentType::handshake,
        tls::encode_handshake(tls::HandshakeType::client_hello,
                              ByteSpan(ch.encode_body()))};
    codecs.push_back({"TlsRecords", tls::encode_record(rec), [](ByteSpan d) {
                        return tls::decode_records(d).has_value();
                      }});
  }
  return codecs;
}

class RobustnessTest : public ::testing::TestWithParam<std::size_t> {
 public:
  static const std::vector<Codec>& codecs() {
    static const std::vector<Codec> c = make_codecs();
    return c;
  }

  /// The seed of one test's mutations of one codec, from the codec's name
  /// (FNV-1a), so adding or removing a codec leaves every other codec's
  /// inputs as they were.
  static std::uint64_t seed(const Codec& codec, std::uint64_t test) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char* c = codec.name; *c != '\0'; ++c) {
      h = (h ^ static_cast<std::uint8_t>(*c)) * 0x100000001b3ull;
    }
    return h + test;
  }
};

TEST_P(RobustnessTest, ValidInputDecodes) {
  const Codec& codec = codecs()[GetParam()];
  EXPECT_TRUE(codec.try_decode(ByteSpan(codec.valid))) << codec.name;
}

TEST_P(RobustnessTest, TruncationsNeverCrash) {
  const Codec& codec = codecs()[GetParam()];
  for (std::size_t cut = 0; cut < codec.valid.size(); ++cut) {
    (void)codec.try_decode(ByteSpan(codec.valid.data(), cut));
  }
  // Proper prefixes must not decode (every format is length-delimited).
  for (std::size_t cut = 1; cut < codec.valid.size(); ++cut) {
    EXPECT_FALSE(codec.try_decode(ByteSpan(codec.valid.data(), cut)))
        << codec.name << " accepted a " << cut << "-byte prefix";
  }
}

TEST_P(RobustnessTest, BitFlipsNeverCrash) {
  const Codec& codec = codecs()[GetParam()];
  Rng rng(seed(codec, 1000));
  for (int trial = 0; trial < 400; ++trial) {
    Bytes mutated = codec.valid;
    const int flips = 1 + int(rng.uniform(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t bit = rng.uniform(mutated.size() * 8);
      mutated[bit / 8] ^= std::uint8_t(1u << (bit % 8));
    }
    (void)codec.try_decode(ByteSpan(mutated));  // must not crash/throw
  }
}

TEST_P(RobustnessTest, RandomNoiseNeverCrashes) {
  const Codec& codec = codecs()[GetParam()];
  Rng rng(seed(codec, 2000));
  for (int trial = 0; trial < 400; ++trial) {
    const Bytes noise = rng.bytes(rng.uniform(600));
    (void)codec.try_decode(ByteSpan(noise));
  }
}

TEST_P(RobustnessTest, ExtensionsRejected) {
  const Codec& codec = codecs()[GetParam()];
  Rng rng(seed(codec, 3000));
  for (int extra : {1, 7, 64}) {
    Bytes extended = codec.valid;
    const Bytes tail = rng.bytes(std::size_t(extra));
    extended.insert(extended.end(), tail.begin(), tail.end());
    EXPECT_FALSE(codec.try_decode(ByteSpan(extended)))
        << codec.name << " accepted " << extra << " trailing bytes";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, RobustnessTest,
    ::testing::Range<std::size_t>(0, RobustnessTest::codecs().size()),
    [](const auto& info) {
      return RobustnessTest::codecs()[info.param].name;
    });

TEST(RobustnessDpi, InspectSurvivesArbitraryPayloads) {
  // The RA's full inspection path on hostile bytes, including payloads that
  // start like TLS but are garbage inside.
  Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes payload = rng.bytes(rng.uniform(300));
    if (trial % 3 == 0 && payload.size() >= 5) {
      payload[0] = 22;    // handshake content type
      payload[1] = 0x03;  // plausible version
      payload[2] = 0x03;
    }
    (void)ra::inspect(ByteSpan(payload));
    (void)ra::is_tls(ByteSpan(payload));
  }
}

TEST(RobustnessDpi, StripStatusSurvivesMutatedStatusRecords) {
  Rng rng(78);
  Rng packet_rng(79);
  Rng flip_rng(80);
  ca::CertificationAuthority::Config cfg;
  cfg.id = "CA-R";
  cfg.delta = 10;
  Rng ca_rng(4242);
  ca::CertificationAuthority ca(cfg, ca_rng, 1000);
  ca.revoke({SerialNumber::from_uint(1), SerialNumber::from_uint(9)}, 1000);
  const Bytes genuine = ca.status_for(SerialNumber::from_uint(5), 1000).encode();

  const sim::Endpoint a{1, 1}, b{2, 2};
  std::size_t kept = 0, dropped = 0;
  for (int trial = 0; trial < 500; ++trial) {
    auto pkt = tls::make_app_data(a, b, packet_rng.bytes(32));
    // Attach a garbage ritm_status record, then a genuine status with one
    // bit flipped (which may or may not still parse).
    const tls::Record rec{tls::ContentType::ritm_status,
                          rng.bytes(rng.uniform(200))};
    append(pkt.payload, ByteSpan(tls::encode_record(rec)));
    Bytes mutated = genuine;
    mutated[flip_rng.uniform(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << flip_rng.uniform(8));
    ra::attach_status(pkt, ByteSpan(mutated));
    const auto statuses = ra::strip_status(pkt);
    // Every status record is gone, and the packet survives intact.
    const auto records = tls::decode_records(ByteSpan(pkt.payload));
    ASSERT_TRUE(records.has_value());
    EXPECT_EQ(records->size(), 1u);
    // What strip_status returns is exactly the records StatusView parses.
    std::vector<Bytes> want;
    for (const Bytes& record : {rec.payload, mutated}) {
      if (dict::StatusView::parse(ByteSpan(record))) want.push_back(record);
    }
    EXPECT_EQ(statuses, want);
    kept += want.size();
    dropped += 2 - want.size();
  }
  // Both sides of the rule were exercised.
  EXPECT_GT(kept, 0u);
  EXPECT_GT(dropped, 0u);
}

}  // namespace
}  // namespace ritm
