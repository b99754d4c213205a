// Persistence suite (PR 4): WAL framing + torn-write truncation at every
// byte of the final record and every framing field, atomic snapshot commit
// and retention, snapshot round trips for both dictionary backends, the RA
// store's checkpoint (a manifest plus one part per CA dictionary) with
// incremental writes, retention, fallback and refusal, crash simulation,
// and the CDN cold-start bootstrap. The crash-consistency property pinned
// throughout: recovery from a prefix of the log always equals an in-memory
// replay of exactly that prefix — root and proof bytes identical.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ca/authority.hpp"
#include "ca/distribution.hpp"
#include "cdn/cdn.hpp"
#include "cdn/service.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "dict/dictionary.hpp"
#include "dict/treap.hpp"
#include "persist/recovery.hpp"
#include "persist/sections.hpp"
#include "persist/shard_checkpoint.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "ra/store.hpp"
#include "ra/updater.hpp"

namespace ritm {
namespace {

using cert::SerialNumber;
using persist::Recovery;
using persist::SnapshotFile;
using persist::WalScan;
using persist::WriteAheadLog;

/// A per-test scratch directory, removed on destruction.
struct TempDir {
  std::filesystem::path path;

  explicit TempDir(const std::string& name) {
    path = std::filesystem::temp_directory_path() /
           ("ritm-persist-" + name + "-" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

Bytes read_all(const std::string& path) {
  Bytes out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  std::uint8_t buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

void write_all(const std::string& path, ByteSpan data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
}

std::uint32_t rd_be32(const std::uint8_t* p) {
  return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
         (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

std::uint64_t rd_be64(const std::uint8_t* p) {
  return (std::uint64_t(rd_be32(p)) << 32) | rd_be32(p + 4);
}

void wr_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = std::uint8_t(v >> 24);
  p[1] = std::uint8_t(v >> 16);
  p[2] = std::uint8_t(v >> 8);
  p[3] = std::uint8_t(v);
}

// ----------------------------------------------------------------- WAL

TEST(Wal, AppendScanRoundTrip) {
  TempDir dir("wal-roundtrip");
  const std::string path = dir.file("wal.log");
  std::vector<persist::WalRecord> written;
  {
    WriteAheadLog wal;
    const WalScan fresh = wal.open(path);
    EXPECT_TRUE(fresh.records.empty());
    Rng rng(7);
    for (std::uint8_t t = 1; t <= 9; ++t) {
      const Bytes payload = rng.bytes(t == 5 ? 0 : rng.uniform(200));
      const std::uint64_t seq = wal.append(t, ByteSpan(payload));
      written.push_back({seq, t, payload});
    }
    wal.close();
  }
  const WalScan scan = WriteAheadLog::scan_file(path);
  EXPECT_EQ(scan.records, written);
  EXPECT_EQ(scan.truncated_bytes, 0u);

  // Reopen: numbering continues, prior records survive.
  WriteAheadLog wal;
  const WalScan again = wal.open(path);
  EXPECT_EQ(again.records, written);
  EXPECT_EQ(wal.append(1, ByteSpan()), written.back().seq + 1);
}

TEST(Wal, ResetRestartsAtGivenSeq) {
  TempDir dir("wal-reset");
  WriteAheadLog wal;
  wal.open(dir.file("wal.log"));
  wal.append(1, ByteSpan());
  wal.append(1, ByteSpan());
  wal.reset(43);
  EXPECT_EQ(wal.next_seq(), 43u);
  EXPECT_EQ(wal.append(2, ByteSpan()), 43u);
  wal.close();
  const WalScan scan = WriteAheadLog::scan_file(dir.file("wal.log"));
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].seq, 43u);
}

TEST(Wal, TornWritesTruncatedAtEveryByteOfEveryRecord) {
  TempDir dir("wal-torn");
  const std::string path = dir.file("wal.log");
  std::vector<std::size_t> ends;  // file offset after each record
  {
    WriteAheadLog wal;
    wal.open(path);
    Rng rng(11);
    for (int i = 0; i < 8; ++i) {
      wal.append(static_cast<std::uint8_t>(1 + i % 3),
                 ByteSpan(rng.bytes(5 + rng.uniform(60))));
      ends.push_back(WriteAheadLog::kHeaderSize + wal.tail_bytes());
    }
    wal.close();
  }
  const Bytes image = read_all(path);
  ASSERT_EQ(image.size(), ends.back());
  const WalScan full = WriteAheadLog::scan(ByteSpan(image));
  ASSERT_EQ(full.records.size(), ends.size());

  // Every byte offset of the whole file: recovery must yield exactly the
  // records whose frames lie entirely below the cut.
  for (std::size_t cut = 0; cut <= image.size(); ++cut) {
    const WalScan scan = WriteAheadLog::scan(ByteSpan(image.data(), cut));
    std::size_t expect = 0;
    while (expect < ends.size() && ends[expect] <= cut) ++expect;
    ASSERT_EQ(scan.records.size(), expect) << "cut at byte " << cut;
    for (std::size_t i = 0; i < expect; ++i) {
      ASSERT_EQ(scan.records[i], full.records[i]) << "cut at byte " << cut;
    }
    ASSERT_EQ(scan.valid_bytes,
              expect == 0 ? (cut >= WriteAheadLog::kHeaderSize
                                 ? WriteAheadLog::kHeaderSize
                                 : 0)
                          : ends[expect - 1])
        << "cut at byte " << cut;
  }

  // open() on a torn file truncates in place and appends cleanly after the
  // surviving prefix.
  const std::size_t torn = ends[4] + 3;  // 3 bytes into record 6's frame
  write_all(path, ByteSpan(image.data(), torn));
  WriteAheadLog wal;
  const WalScan scan = wal.open(path);
  EXPECT_EQ(scan.records.size(), 5u);
  EXPECT_EQ(scan.truncated_bytes, 3u);
  EXPECT_EQ(wal.append(7, ByteSpan()), scan.records.back().seq + 1);
  wal.close();
  EXPECT_EQ(WriteAheadLog::scan_file(path).records.size(), 6u);
}

TEST(Wal, CorruptMiddleRecordEndsThePrefix) {
  TempDir dir("wal-corrupt");
  const std::string path = dir.file("wal.log");
  {
    WriteAheadLog wal;
    wal.open(path);
    for (int i = 0; i < 6; ++i) wal.append(1, ByteSpan(Bytes(20, 0xAB)));
    wal.close();
  }
  Bytes image = read_all(path);
  // Flip one payload byte of the third record: its CRC fails, and
  // everything after is treated as tail — replay stops at record 2.
  const std::size_t record_size = (image.size() - 12) / 6;
  image[12 + 2 * record_size + 15] ^= 0x01;
  write_all(path, ByteSpan(image));
  const WalScan scan = WriteAheadLog::scan_file(path);
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_GT(scan.truncated_bytes, 0u);
}

// ------------------------------------------------------------ snapshots

/// The single section of a mapped snapshot, as bytes.
Bytes only_section(const SnapshotFile::Mapped& mapped) {
  EXPECT_EQ(mapped.sections.size(), 1u);
  const ByteSpan data = mapped.sections.front().data;
  return Bytes(data.begin(), data.end());
}

TEST(Snapshot, AtomicCommitAndLoad) {
  TempDir dir("snap");
  EXPECT_TRUE(SnapshotFile::seqs_newest_first(dir.str()).empty());

  const Bytes a{1, 2, 3}, b(100000, 0x5C);
  SnapshotFile::write_v2(dir.str(), 3, {{7, ByteSpan(a)}});
  const std::uint64_t b_size =
      SnapshotFile::write_v2(dir.str(), 9, {{7, ByteSpan(b)}});
  EXPECT_EQ(SnapshotFile::seqs_newest_first(dir.str()),
            (std::vector<std::uint64_t>{9, 3}));
  auto newest = SnapshotFile::map(dir.str(), 9);
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->seq, 9u);
  EXPECT_EQ(newest->sections.front().tag, 7u);
  EXPECT_EQ(only_section(*newest), b);

  // Corrupt a payload byte of the newest file: it no longer maps, and the
  // previous snapshot still does (recovery's fallback, pinned at the store
  // level below).
  const std::string newest_path = dir.file("snap-0000000000000009.snap");
  Bytes image = read_all(newest_path);
  ASSERT_EQ(image.size(), b_size);
  image[image.size() - 64] ^= 0x80;  // inside b, past every header
  write_all(newest_path, ByteSpan(image));
  EXPECT_FALSE(SnapshotFile::map(dir.str(), 9).has_value());
  auto fallback = SnapshotFile::map(dir.str(), 3);
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(only_section(*fallback), a);

  // A torn .tmp (crash before rename) is never considered.
  write_all(dir.file("snap-00000000000000ff.snap.tmp"), ByteSpan(a));
  EXPECT_EQ(SnapshotFile::seqs_newest_first(dir.str()).front(), 9u);
}

TEST(Snapshot, RetentionKeepsNewestTwo) {
  TempDir dir("snap-retention");
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    const Bytes payload{std::uint8_t(seq)};
    SnapshotFile::write_v2(dir.str(), seq, {{1, ByteSpan(payload)}});
  }
  EXPECT_EQ(SnapshotFile::seqs_newest_first(dir.str()),
            (std::vector<std::uint64_t>{5, 4}));
  const auto newest = SnapshotFile::map(dir.str(), 5);
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(only_section(*newest), Bytes{5});
}

// ------------------------------------- dictionary backend snapshots

TEST(DictSnapshot, RoundTripPreservesRootAndProofBytes) {
  dict::Dictionary d;
  Rng rng(21);
  for (int batch = 0; batch < 20; ++batch) {
    std::vector<SerialNumber> serials;
    for (std::uint64_t i = rng.uniform(30) + 1; i > 0; --i) {
      serials.push_back(SerialNumber::from_uint(rng.uniform(100000), 4));
    }
    d.insert(serials);
  }
  // A rejected update rolls back; the snapshot sees the rolled-back state.
  crypto::Digest20 wrong{};
  d.update({SerialNumber::from_uint(999999, 4)}, wrong, d.size() + 1);

  ByteWriter w;
  d.snapshot_into(w);
  ByteReader r{ByteSpan(w.bytes())};
  dict::Dictionary restored;
  restored.restore_from(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(restored.size(), d.size());
  EXPECT_EQ(restored.root(), d.root());
  for (const std::uint64_t probe : {0ull, 77ull, 4242ull, 999999ull}) {
    const auto serial = SerialNumber::from_uint(probe, 4);
    EXPECT_EQ(restored.prove(serial).encode(), d.prove(serial).encode());
  }
}

TEST(DictSnapshot, CorruptPayloadIsRejectedWithoutMutation) {
  dict::Dictionary d;
  d.insert({SerialNumber::from_uint(1), SerialNumber::from_uint(2)});
  ByteWriter w;
  d.snapshot_into(w);
  Bytes image(w.bytes());

  dict::Dictionary victim;
  victim.insert({SerialNumber::from_uint(9)});
  const auto before_root = victim.root();
  // Flip a serial byte: the recomputed root cannot match the recorded one.
  image[11] ^= 0x01;
  ByteReader r{ByteSpan(image)};
  EXPECT_THROW(victim.restore_from(r), std::runtime_error);
  EXPECT_EQ(victim.root(), before_root);
  EXPECT_EQ(victim.size(), 1u);
}

TEST(DictSnapshot, EmptyDictionaryRoundTrips) {
  dict::Dictionary d;
  ByteWriter w;
  d.snapshot_into(w);
  ByteReader r{ByteSpan(w.bytes())};
  dict::Dictionary restored;
  restored.restore_from(r);
  EXPECT_EQ(restored.size(), 0u);
  EXPECT_EQ(restored.root(), dict::empty_root());
}

TEST(TreapSnapshot, RoundTripWithoutPerEntryHashing) {
  dict::MerkleTreap treap;
  Rng rng(44);
  std::vector<SerialNumber> serials;
  for (int i = 0; i < 400; ++i) {
    serials.push_back(SerialNumber::from_uint(rng.uniform(1 << 24), 4));
  }
  treap.insert(serials);

  ByteWriter w;
  treap.snapshot_into(w);
  ByteReader r{ByteSpan(w.bytes())};
  dict::MerkleTreap restored;
  restored.restore_from(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(restored.size(), treap.size());
  EXPECT_EQ(restored.root(), treap.root());
  // Proof bytes identical, and inserting after restore stays canonical:
  // the restored treap and the original converge to the same new root.
  const auto probe = serials[17];
  EXPECT_EQ(restored.prove(probe).encode(), treap.prove(probe).encode());
  const auto fresh = SerialNumber::from_uint(0xABCDEF, 4);
  treap.insert({fresh});
  restored.insert({fresh});
  EXPECT_EQ(restored.root(), treap.root());
}

TEST(TreapSnapshot, CorruptStructureIsRejected) {
  dict::MerkleTreap treap;
  treap.insert({SerialNumber::from_uint(5), SerialNumber::from_uint(9),
                SerialNumber::from_uint(2)});
  ByteWriter w;
  treap.snapshot_into(w);
  Bytes image(w.bytes());
  image[image.size() - 5] ^= 0x01;  // damage the recorded root
  ByteReader r{ByteSpan(image)};
  dict::MerkleTreap restored;
  EXPECT_THROW(restored.restore_from(r), std::runtime_error);
  EXPECT_EQ(restored.size(), 0u);
}

// ------------------------------------------------- RA store durability

ca::CertificationAuthority make_ca(std::uint64_t seed) {
  Rng rng(seed);
  ca::CertificationAuthority::Config cfg;
  cfg.id = "CA-P";
  cfg.delta = 10;
  cfg.chain_length = 64;
  return ca::CertificationAuthority(cfg, rng, 1000);
}

TEST(StorePersist, SnapshotPlusWalTailRecoversExactState) {
  TempDir dir("store-recover");
  auto ca = make_ca(1);
  Rng rng(2);

  ra::DictionaryStore live;
  live.register_ca(ca.id(), ca.public_key(), ca.delta());
  persist::WriteAheadLog wal;
  wal.open(Recovery::wal_path(dir.str()));
  live.attach_wal(&wal);

  UnixSeconds now = 1000;
  const auto issue = [&](std::size_t count) {
    std::vector<SerialNumber> serials;
    for (std::size_t i = 0; i < count; ++i) {
      serials.push_back(SerialNumber::from_uint(rng.uniform(1 << 20), 4));
    }
    now += 10;
    ASSERT_EQ(live.apply_issuance(ca.revoke(serials, now), now),
              ra::ApplyResult::ok);
  };

  for (int i = 0; i < 10; ++i) issue(4);
  live.persist_to(dir.str());  // snapshot; WAL resets
  for (int i = 0; i < 5; ++i) issue(3);  // the tail
  ASSERT_EQ(live.apply_freshness({ca.id(), ca.freshness_at(now + 15)},
                                 now + 15),
            ra::ApplyResult::ok);
  wal.sync();  // crash happens after this point

  ra::DictionaryStore recovered;
  recovered.register_ca(ca.id(), ca.public_key(), ca.delta());
  const auto report = recovered.recover_from(dir.str());
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_TRUE(report.have_snapshot);
  EXPECT_EQ(report.replayed, 6u);
  EXPECT_EQ(report.rejected, 0u);

  EXPECT_EQ(recovered.have_n(ca.id()), live.have_n(ca.id()));
  ASSERT_TRUE(recovered.root_of(ca.id()).has_value());
  EXPECT_EQ(recovered.root_of(ca.id())->encode(),
            live.root_of(ca.id())->encode());
  // Served statuses — proof, signed root, and freshness — byte-identical.
  for (const std::uint64_t probe : {1ull, 555ull, 123456ull}) {
    const auto serial = SerialNumber::from_uint(probe, 4);
    EXPECT_EQ(recovered.status_for(ca.id(), serial)->encode(),
              live.status_for(ca.id(), serial)->encode());
  }
  // The cached path serves the same bytes too.
  const auto live_v = live.status_bytes_for(ca.id(), SerialNumber::from_uint(1));
  const auto rec_v =
      recovered.status_bytes_for(ca.id(), SerialNumber::from_uint(1));
  ASSERT_TRUE(live_v && rec_v);
  EXPECT_EQ(*rec_v->bytes, *live_v->bytes);
}

TEST(StorePersist, BootstrapReplicaIsLoggedAndReplayed) {
  TempDir dir("store-bootstrap");
  auto ca = make_ca(5);
  Rng rng(6);
  std::vector<SerialNumber> serials;
  for (int i = 0; i < 200; ++i) {
    serials.push_back(SerialNumber::from_uint(rng.uniform(1 << 20), 4));
  }
  ca.revoke(serials, 1000);
  const auto obj = ca.cold_start_object(0, 1000);

  ra::DictionaryStore live;
  live.register_ca(ca.id(), ca.public_key(), ca.delta());
  persist::WriteAheadLog wal;
  wal.open(Recovery::wal_path(dir.str()));
  live.attach_wal(&wal);
  ASSERT_EQ(live.bootstrap_replica(ca.id(), ByteSpan(obj.dict_snapshot),
                                   obj.signed_root, obj.freshness, 1000),
            ra::ApplyResult::ok);
  ASSERT_EQ(live.apply_issuance(
                ca.revoke({SerialNumber::from_uint(0xF00D, 4)}, 1010), 1010),
            ra::ApplyResult::ok);
  wal.sync();

  // Crash with no snapshot at all: the WAL alone must rebuild the replica.
  ra::DictionaryStore recovered;
  recovered.register_ca(ca.id(), ca.public_key(), ca.delta());
  const auto report = recovered.recover_from(dir.str());
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_FALSE(report.have_snapshot);
  EXPECT_EQ(report.replayed, 2u);
  EXPECT_EQ(recovered.have_n(ca.id()), live.have_n(ca.id()));
  EXPECT_EQ(recovered.root_of(ca.id())->encode(),
            live.root_of(ca.id())->encode());
}

// ------------------------------------------------ store checkpoint files

std::vector<std::string> files_ending(const TempDir& dir,
                                      const std::string& suffix) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    if (name.ends_with(suffix)) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The newest manifest's file name.
std::string newest_manifest(const TempDir& dir) {
  const auto manifests = files_ending(dir, ".snap");
  EXPECT_FALSE(manifests.empty());
  return manifests.empty() ? std::string() : manifests.back();
}

/// The part that holds `ca`'s current dictionary in `store`.
std::string part_of(const ra::DictionaryStore& store, const cert::CaId& ca) {
  return persist::part_name({store.root_of(ca)->root, store.have_n(ca)});
}

/// (absolute offset, length) of the section tagged `tag` in a container
/// file image.
std::pair<std::size_t, std::size_t> section_at(const Bytes& image,
                                               std::uint32_t tag) {
  const std::uint8_t* base = image.data() + persist::kFileHeaderSize;
  const std::uint32_t count = rd_be32(base + 4);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t* e = base + persist::kSectionHeaderSize +
                            std::size_t(i) * persist::kSectionDirEntrySize;
    if (rd_be32(e) == tag) {
      return {persist::kFileHeaderSize + rd_be64(e + 8),
              static_cast<std::size_t>(rd_be64(e + 16))};
    }
  }
  ADD_FAILURE() << "no section tagged " << tag;
  return {0, 0};
}

/// Recomputes every section CRC and the directory CRC of a container file
/// image, as a tamperer who knows the format would.
void refresh_crcs(Bytes& image) {
  std::uint8_t* base = image.data() + persist::kFileHeaderSize;
  const std::uint32_t count = rd_be32(base + 4);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint8_t* e = base + persist::kSectionHeaderSize +
                      std::size_t(i) * persist::kSectionDirEntrySize;
    wr_be32(e + 4, crc32(ByteSpan(base + rd_be64(e + 8),
                                  static_cast<std::size_t>(rd_be64(e + 16)))));
  }
  wr_be32(base + 8,
          crc32(ByteSpan(base + persist::kSectionHeaderSize,
                         std::size_t(count) * persist::kSectionDirEntrySize)));
}

/// Structural byte offsets of a container file image: the 20-byte stamp,
/// the container header (minus the unvalidated reserved word), the whole
/// directory, and each non-empty section's edge bytes.
std::vector<std::size_t> structural_offsets(const Bytes& image) {
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < 20; ++i) offsets.push_back(i);
  const std::size_t cbase = persist::kFileHeaderSize;
  for (std::size_t i = 0; i < 12; ++i) offsets.push_back(cbase + i);
  const std::uint32_t count = rd_be32(image.data() + cbase + 4);
  for (std::size_t i = 0; i < std::size_t(count) *
                                  persist::kSectionDirEntrySize;
       ++i) {
    offsets.push_back(cbase + persist::kSectionHeaderSize + i);
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t* e = image.data() + cbase +
                            persist::kSectionHeaderSize +
                            std::size_t(i) * persist::kSectionDirEntrySize;
    const std::uint64_t off = rd_be64(e + 8);
    const std::uint64_t len = rd_be64(e + 16);
    if (len == 0) continue;
    offsets.push_back(cbase + off);
    offsets.push_back(cbase + off + len - 1);
  }
  return offsets;
}

/// Issues `count` random serials for `ca` and applies them to `store`.
void issue(ca::CertificationAuthority& ca, ra::DictionaryStore& store,
           Rng& rng, std::size_t count, UnixSeconds& now) {
  std::vector<SerialNumber> serials;
  for (std::size_t i = 0; i < count; ++i) {
    serials.push_back(SerialNumber::from_uint(rng.uniform(1 << 20), 4));
  }
  now += 10;
  ASSERT_EQ(store.apply_issuance(ca.revoke(serials, now), now),
            ra::ApplyResult::ok);
}

/// `n` CAs with distinct ids and keys, registered with every given store.
std::vector<ca::CertificationAuthority> make_cas(
    std::size_t n, std::initializer_list<ra::DictionaryStore*> stores) {
  std::vector<ca::CertificationAuthority> cas;
  for (std::size_t i = 0; i < n; ++i) {
    Rng rng(900 + i);
    ca::CertificationAuthority::Config cfg;
    cfg.id = "CA-" + std::to_string(i);
    cfg.delta = 10;
    cfg.chain_length = 64;
    cas.emplace_back(cfg, rng, 1000);
    for (ra::DictionaryStore* store : stores) {
      store->register_ca(cas.back().id(), cas.back().public_key(),
                         cas.back().delta());
    }
  }
  return cas;
}

/// Roots, sizes and proof bytes of every CA agree between two stores.
void expect_same_replicas(const ra::DictionaryStore& a,
                          const ra::DictionaryStore& b,
                          const std::vector<ca::CertificationAuthority>& cas) {
  for (const auto& ca : cas) {
    ASSERT_EQ(a.have_n(ca.id()), b.have_n(ca.id())) << ca.id();
    ASSERT_EQ(a.has_root(ca.id()), b.has_root(ca.id())) << ca.id();
    if (!a.has_root(ca.id())) continue;
    EXPECT_EQ(a.root_of(ca.id())->encode(), b.root_of(ca.id())->encode());
    for (const std::uint64_t probe : {1ull, 4242ull, 777777ull}) {
      const auto serial = SerialNumber::from_uint(probe, 4);
      EXPECT_EQ(a.status_for(ca.id(), serial)->encode(),
                b.status_for(ca.id(), serial)->encode());
    }
  }
}

// A checkpoint writes a part only for a dictionary whose (n, root) is not on
// disk yet: after one CA's issuance exactly one part plus the manifest; with
// no dictionary change only the manifest.
TEST(StoreCheckpoint, WritesOnlyTheChangedCasParts) {
  TempDir dir("store-incremental");
  ra::DictionaryStore live;
  auto cas = make_cas(8, {&live});
  Rng rng(71);
  UnixSeconds now = 1000;
  for (auto& ca : cas) issue(ca, live, rng, 50, now);

  const auto full = live.persist_to(dir.str());
  EXPECT_EQ(full.parts_written, 8u);
  EXPECT_EQ(full.parts_reused, 0u);
  EXPECT_EQ(files_ending(dir, ".part").size(), 8u);

  const auto clean = live.persist_to(dir.str());
  EXPECT_EQ(clean.parts_written, 0u);
  EXPECT_EQ(clean.parts_reused, 8u);
  EXPECT_EQ(clean.bytes,
            std::filesystem::file_size(dir.file(newest_manifest(dir))));

  issue(cas[3], live, rng, 5, now);
  const auto incr = live.persist_to(dir.str());
  EXPECT_EQ(incr.parts_written, 1u);
  EXPECT_EQ(incr.parts_reused, 7u);
  EXPECT_EQ(incr.bytes,
            std::filesystem::file_size(dir.file(newest_manifest(dir))) +
                std::filesystem::file_size(dir.file(part_of(live, cas[3].id()))));
  EXPECT_LT(incr.bytes, full.bytes / 4);

  ra::DictionaryStore recovered;
  for (const auto& ca : cas) {
    recovered.register_ca(ca.id(), ca.public_key(), ca.delta());
  }
  const auto report = recovered.recover_from(dir.str());
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_TRUE(report.have_snapshot);
  EXPECT_EQ(report.snapshots_skipped, 0u);
  expect_same_replicas(recovered, live, cas);
}

// Retention keeps the two newest manifests and exactly the parts they list:
// no part either references is ever deleted, and every other part goes.
TEST(StoreCheckpoint, RetentionKeepsEveryPartTheTwoNewestManifestsList) {
  TempDir dir("store-retention");
  ra::DictionaryStore live;
  auto cas = make_cas(4, {&live});
  Rng rng(72);
  UnixSeconds now = 1000;
  for (int cycle = 0; cycle < 12; ++cycle) {
    // Change a random subset of CAs (sometimes none) between checkpoints.
    for (auto& ca : cas) {
      if (rng.uniform(3) == 0) issue(ca, live, rng, 1 + rng.uniform(4), now);
    }
    live.persist_to(dir.str());

    // A cycle with no mutation rewrites the same manifest.
    const auto seqs = SnapshotFile::seqs_newest_first(dir.str());
    ASSERT_FALSE(seqs.empty());
    ASSERT_LE(seqs.size(), 2u);
    std::set<std::string> listed;
    for (const std::uint64_t seq : seqs) {
      const auto checkpoint = persist::load_checkpoint(dir.str(), seq);
      ASSERT_TRUE(checkpoint.has_value()) << "cycle " << cycle;
      for (const auto& [key, part] : checkpoint->parts) {
        listed.insert(persist::part_name(key));
      }
    }
    const auto on_disk = files_ending(dir, ".part");
    EXPECT_EQ(std::set<std::string>(on_disk.begin(), on_disk.end()), listed)
        << "cycle " << cycle;
  }
}

// A crash after a cycle's parts are committed but before its manifest is:
// the previous manifest and its parts are all still there, and recovery
// from it plus the WAL equals the live state.
TEST(StoreCheckpoint, CrashBetweenPartAndManifestCommitsUsesThePrevious) {
  TempDir dir("store-crash-commit");
  ra::DictionaryStore live;
  auto cas = make_cas(3, {&live});
  persist::WriteAheadLog wal;
  wal.open(Recovery::wal_path(dir.str()));
  live.attach_wal(&wal);
  Rng rng(73);
  UnixSeconds now = 1000;
  for (auto& ca : cas) issue(ca, live, rng, 20, now);
  live.persist_to(dir.str());
  const std::string previous = newest_manifest(dir);
  const std::uint64_t previous_seq = live.mutation_seq();

  issue(cas[0], live, rng, 3, now);
  issue(cas[2], live, rng, 3, now);
  wal.sync();
  // The next cycle commits its parts and manifest, and the crash lands
  // before the WAL reset; deleting the manifest models the crash landing
  // before the manifest's rename.
  ra::DictionaryStore::persist_frozen(live.freeze(), dir.str());
  const std::string newest = newest_manifest(dir);
  ASSERT_NE(newest, previous);
  std::filesystem::remove(dir.file(newest));
  wal.close();

  ra::DictionaryStore recovered;
  for (const auto& ca : cas) {
    recovered.register_ca(ca.id(), ca.public_key(), ca.delta());
  }
  const auto report = recovered.recover_from(dir.str());
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.snapshot_seq, previous_seq);
  EXPECT_EQ(report.replayed, 2u);
  expect_same_replicas(recovered, live, cas);
}

// A part both retained manifests list (its CA did not change between them)
// is one copy: corrupting it leaves no checkpoint to fall back to, and
// recovery refuses with the store untouched instead of starting empty.
TEST(StoreCheckpoint, CorruptSharedPartRefusesRecoveryUntouched) {
  TempDir dir("store-shared-part");
  ra::DictionaryStore live, target;
  auto cas = make_cas(2, {&live, &target});
  Rng rng(74);
  UnixSeconds now = 1000;
  for (auto& ca : cas) issue(ca, live, rng, 30, now);
  live.persist_to(dir.str());
  issue(cas[0], live, rng, 2, now);
  live.persist_to(dir.str());  // CA-1's part is listed by both manifests

  const std::string shared = dir.file(part_of(live, cas[1].id()));
  Bytes image = read_all(shared);
  const auto [off, len] = section_at(image, 2);  // the entry log
  ASSERT_GT(len, 0u);
  image[off] ^= 0x01;
  write_all(shared, ByteSpan(image));

  const auto obj = cas[0].cold_start_object(0, now);
  ASSERT_EQ(target.bootstrap_replica(cas[0].id(), ByteSpan(obj.dict_snapshot),
                                     obj.signed_root, obj.freshness, now),
            ra::ApplyResult::ok);
  const std::uint64_t target_n = target.have_n(cas[0].id());
  const Bytes target_root = target.root_of(cas[0].id())->encode();
  const auto report = target.recover_from(dir.str());
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.error.empty());
  EXPECT_EQ(target.have_n(cas[0].id()), target_n);
  EXPECT_EQ(target.root_of(cas[0].id())->encode(), target_root);
  EXPECT_FALSE(target.has_root(cas[1].id()));
}

// Parts are never re-hashed on restore: integrity is the per-section CRCs,
// authenticity the CA-signed root cross-check. A tamperer who refreshes the
// CRCs can alter raw bytes at will, but any change that survives the
// structural checks still has to reproduce the signed root — impossible
// without the CA key. Pinned here with full surgery on both files: the
// recorded dictionary root in the manifest's store meta and part list, and
// in the part's meta and digest arena (with one entry the arena *is* the
// 20-byte root, so the restored dictionary is self-consistent), every CRC
// refreshed and the part renamed to match.
TEST(StorePersist, TamperedSnapshotRootFailsRecovery) {
  TempDir dir("store-tamper");
  auto ca = make_ca(7);
  ra::DictionaryStore live;
  live.register_ca(ca.id(), ca.public_key(), ca.delta());
  ASSERT_EQ(live.apply_issuance(
                ca.revoke({SerialNumber::from_uint(1)}, 1000), 1000),
            ra::ApplyResult::ok);
  live.persist_to(dir.str());

  persist::PartKey key{live.root_of(ca.id())->root, 1};
  const std::string part_path = dir.file(persist::part_name(key));
  Bytes part = read_all(part_path);
  ASSERT_FALSE(part.empty());
  key.root[19] ^= 0x01;
  const auto [meta_off, meta_len] = section_at(part, 1);  // u64 n, 20B root
  const auto [tree_off, tree_len] = section_at(part, 4);
  ASSERT_EQ(tree_len, 20u);
  part[meta_off + meta_len - 1] ^= 0x01;
  part[tree_off + tree_len - 1] ^= 0x01;
  refresh_crcs(part);
  std::filesystem::remove(part_path);
  write_all(dir.file(persist::part_name(key)), ByteSpan(part));

  const std::string manifest_path = dir.file(newest_manifest(dir));
  Bytes manifest = read_all(manifest_path);
  const auto [store_off, store_len] = section_at(manifest, 1);
  const auto [list_off, list_len] = section_at(manifest, 2);
  ASSERT_EQ(list_len, 4u + 28u);  // one (root, n) entry
  manifest[store_off + store_len - 1] ^= 0x01;  // ends with the dict root
  manifest[list_off + 4 + 19] ^= 0x01;
  refresh_crcs(manifest);
  write_all(manifest_path, ByteSpan(manifest));

  ra::DictionaryStore recovered;
  recovered.register_ca(ca.id(), ca.public_key(), ca.delta());
  const auto report = recovered.recover_from(dir.str());
  EXPECT_FALSE(report.ok);
  // The failure must be the authenticity check, not a CRC or parse error —
  // those were all repaired above.
  EXPECT_NE(report.error.find("signed root"), std::string::npos)
      << report.error;
  EXPECT_FALSE(recovered.has_root(ca.id()));
}

// The corruption matrix: flip every structural byte of the newest manifest
// — the 20-byte stamp, the container header, every directory byte, and the
// edge bytes of every section — and of the part only it lists, and
// recovery must fall back to the previous manifest each time, never crash
// or half-restore.
TEST(StorePersist, CorruptionAtEveryStructuralByteFallsBack) {
  TempDir dir("store-matrix");
  auto ca = make_ca(15);
  Rng rng(16);
  ra::DictionaryStore live;
  live.register_ca(ca.id(), ca.public_key(), ca.delta());
  persist::WriteAheadLog wal;
  wal.open(Recovery::wal_path(dir.str()));
  live.attach_wal(&wal);

  UnixSeconds now = 1000;
  for (int i = 0; i < 8; ++i) issue(ca, live, rng, 4, now);
  live.persist_to(dir.str());  // the fallback checkpoint
  const std::uint64_t n_fallback = live.have_n(ca.id());
  const Bytes root_fallback = live.root_of(ca.id())->encode();
  for (int i = 0; i < 4; ++i) issue(ca, live, rng, 3, now);
  live.persist_to(dir.str());  // the newest checkpoint; WAL now empty
  wal.close();

  for (const std::string& name :
       {newest_manifest(dir), part_of(live, ca.id())}) {
    const std::string path = dir.file(name);
    const Bytes pristine = read_all(path);
    for (const std::size_t off : structural_offsets(pristine)) {
      ASSERT_LT(off, pristine.size());
      Bytes image = pristine;
      image[off] ^= 0x01;
      write_all(path, ByteSpan(image));

      ra::DictionaryStore recovered;
      recovered.register_ca(ca.id(), ca.public_key(), ca.delta());
      const auto report = recovered.recover_from(dir.str());
      ASSERT_TRUE(report.ok)
          << name << " flip at byte " << off << ": " << report.error;
      ASSERT_EQ(report.snapshots_skipped, 1u) << name << " byte " << off;
      ASSERT_EQ(recovered.have_n(ca.id()), n_fallback)
          << name << " byte " << off;
      ASSERT_EQ(recovered.root_of(ca.id())->encode(), root_fallback)
          << name << " byte " << off;
    }
    write_all(path, ByteSpan(pristine));
  }

  // Sanity: the pristine files still recover the newest state.
  ra::DictionaryStore recovered;
  recovered.register_ca(ca.id(), ca.public_key(), ca.delta());
  const auto report = recovered.recover_from(dir.str());
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.snapshots_skipped, 0u);
  EXPECT_EQ(recovered.have_n(ca.id()), live.have_n(ca.id()));
}

// The acceptance property: 1k random mutation batches, a simulated crash at
// WAL byte offsets covering every byte of the final record, every framing
// field, and a uniform sample of the whole file — recovery must equal an
// in-memory replay of exactly the surviving prefix (root, size, proofs).
// Runs at the dict layer (record payloads are serial batches) so the sweep
// stays cheap enough to run under sanitizers.
TEST(CrashSim, RecoveryEqualsReplayOfSurvivingPrefixOver1kBatches) {
  TempDir dir("crash-1k");
  const std::string path = dir.file("wal.log");
  constexpr std::size_t kBatches = 1000;
  constexpr std::uint8_t kBatchRecord = 32;  // test-local record type

  Rng rng(99);
  struct Oracle {
    crypto::Digest20 root{};
    std::uint64_t size = 0;
  };
  std::vector<Oracle> oracle(kBatches + 1);
  std::vector<std::size_t> ends;       // file offset after each record
  std::vector<Bytes> batches(kBatches);

  {
    dict::Dictionary d;
    oracle[0] = {d.root(), d.size()};
    WriteAheadLog wal;
    wal.open(path, {.sync_every = 0});
    for (std::size_t b = 0; b < kBatches; ++b) {
      std::vector<SerialNumber> serials;
      const std::size_t count = 1 + rng.uniform(8);
      ByteWriter w;
      w.u16(static_cast<std::uint16_t>(count));
      for (std::size_t i = 0; i < count; ++i) {
        serials.push_back(SerialNumber::from_uint(rng.uniform(1 << 22), 4));
        w.var8(ByteSpan(serials.back().value));
      }
      batches[b] = Bytes(w.bytes());
      wal.append(kBatchRecord, ByteSpan(batches[b]));
      ends.push_back(WriteAheadLog::kHeaderSize + wal.tail_bytes());
      d.insert(serials);
      oracle[b + 1] = {d.root(), d.size()};
    }
    wal.close();
  }
  const Bytes image = read_all(path);
  ASSERT_EQ(image.size(), ends.back());

  // Crash offsets: every byte of the final record, each framing-field
  // boundary of every record (len / seq / type / payload / crc edges), and
  // 256 uniform offsets.
  std::vector<std::size_t> cuts;
  for (std::size_t c = ends[kBatches - 2]; c <= ends.back(); ++c) {
    cuts.push_back(c);
  }
  for (std::size_t b = 0; b < kBatches; ++b) {
    const std::size_t start = b == 0 ? WriteAheadLog::kHeaderSize : ends[b - 1];
    for (const std::size_t field :
         {start + 2, start + 4, start + 12, start + 13,
          ends[b] - 4, ends[b] - 1}) {
      cuts.push_back(field);
    }
  }
  for (int i = 0; i < 256; ++i) cuts.push_back(rng.uniform(image.size() + 1));
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  const auto replay_batch = [&](dict::Dictionary& d, ByteSpan payload) {
    ByteReader r{payload};
    const std::uint16_t count = r.u16();
    std::vector<SerialNumber> serials;
    serials.reserve(count);
    for (std::uint16_t i = 0; i < count; ++i) {
      serials.push_back(SerialNumber{r.var8()});
    }
    d.insert(serials);
  };

  // Full from-scratch replays are sampled (every byte of the final record,
  // every ~37th cut elsewhere) to keep the sweep sanitizer-friendly; the
  // prefix-exactness property is asserted at every cut.
  std::size_t replays = 0;
  for (std::size_t ci = 0; ci < cuts.size(); ++ci) {
    const std::size_t cut = cuts[ci];
    const WalScan scan = WriteAheadLog::scan(ByteSpan(image.data(), cut));
    // Exactly the longest valid prefix survives.
    std::size_t expect = 0;
    while (expect < ends.size() && ends[expect] <= cut) ++expect;
    ASSERT_EQ(scan.records.size(), expect) << "cut at byte " << cut;
    ASSERT_EQ(scan.valid_bytes,
              expect == 0 ? (cut >= WriteAheadLog::kHeaderSize
                                 ? WriteAheadLog::kHeaderSize
                                 : 0)
                          : ends[expect - 1])
        << "cut at byte " << cut;

    if (cut < ends[kBatches - 2] && ci % 37 != 0) continue;
    ++replays;
    dict::Dictionary recovered;
    for (const auto& rec : scan.records) {
      ASSERT_EQ(rec.type, kBatchRecord);
      ASSERT_EQ(rec.payload, batches[rec.seq - 1]);
      replay_batch(recovered, ByteSpan(rec.payload));
    }
    ASSERT_EQ(recovered.root(), oracle[expect].root) << "cut " << cut;
    ASSERT_EQ(recovered.size(), oracle[expect].size) << "cut " << cut;
  }
  EXPECT_GT(replays, 150u);

  // Proof-byte identity on the full surviving prefix (the most common
  // crash: nothing torn), probed across the serial space.
  dict::Dictionary full, replayed;
  for (const auto& b : batches) replay_batch(full, ByteSpan(b));
  const WalScan scan = WriteAheadLog::scan(ByteSpan(image));
  for (const auto& rec : scan.records) {
    replay_batch(replayed, ByteSpan(rec.payload));
  }
  Rng probe_rng(123);
  for (int i = 0; i < 64; ++i) {
    const auto probe =
        SerialNumber::from_uint(probe_rng.uniform(1 << 22), 4);
    ASSERT_EQ(replayed.prove(probe).encode(), full.prove(probe).encode());
  }
}

// The same crash sweep through the full store stack — real signed
// issuances, snapshot mid-history, recovery via persist::Recovery — with
// the oracle being an independent in-memory store replaying the same
// surviving prefix.
TEST(CrashSim, StoreRecoveryMatchesOracleAtFieldBoundaries) {
  TempDir dir("crash-store");
  auto ca = make_ca(13);
  Rng rng(14);

  ra::DictionaryStore live;
  live.register_ca(ca.id(), ca.public_key(), ca.delta());
  persist::WriteAheadLog wal;
  wal.open(Recovery::wal_path(dir.str()), {.sync_every = 0});
  live.attach_wal(&wal);

  std::vector<dict::RevocationIssuance> msgs;
  UnixSeconds now = 1000;
  for (int i = 0; i < 30; ++i) {
    std::vector<SerialNumber> serials;
    for (std::uint64_t j = 1 + rng.uniform(4); j > 0; --j) {
      serials.push_back(SerialNumber::from_uint(rng.uniform(1 << 20), 4));
    }
    now += 10;
    msgs.push_back(ca.revoke(serials, now));
    ASSERT_EQ(live.apply_issuance(msgs.back(), now), ra::ApplyResult::ok);
    if (i == 9) live.persist_to(dir.str());  // snapshot after 10 issuances
  }
  wal.sync();
  wal.close();

  const Bytes image = read_all(Recovery::wal_path(dir.str()));
  const WalScan full = WriteAheadLog::scan(ByteSpan(image));
  ASSERT_EQ(full.records.size(), 20u);  // the 20 post-snapshot issuances

  std::vector<std::size_t> ends;
  {
    std::size_t pos = WriteAheadLog::kHeaderSize;
    for (const auto& rec : full.records) {
      pos += 4 + 9 + rec.payload.size() + 4;
      ends.push_back(pos);
    }
  }
  std::vector<std::size_t> cuts;
  for (std::size_t c = ends[ends.size() - 2]; c <= ends.back(); ++c) {
    cuts.push_back(c);  // every byte of the final record
  }
  for (std::size_t b = 0; b < ends.size(); ++b) {
    const std::size_t start =
        b == 0 ? WriteAheadLog::kHeaderSize : ends[b - 1];
    for (const std::size_t field :
         {start + 2, start + 4, start + 12, start + 13, ends[b] - 4,
          ends[b] - 1}) {
      cuts.push_back(field);
    }
  }

  const auto probe = SerialNumber::from_uint(777, 4);
  for (const std::size_t cut : cuts) {
    // Simulated crash: the tail beyond `cut` never reached the disk.
    write_all(Recovery::wal_path(dir.str()),
              ByteSpan(image.data(), std::min(cut, image.size())));

    ra::DictionaryStore recovered;
    recovered.register_ca(ca.id(), ca.public_key(), ca.delta());
    const auto report = recovered.recover_from(dir.str());
    ASSERT_TRUE(report.ok) << report.error;

    // Oracle: replay the first (10 + surviving) issuances in memory.
    std::size_t surviving = 0;
    while (surviving < ends.size() && ends[surviving] <= cut) ++surviving;
    ra::DictionaryStore oracle;
    oracle.register_ca(ca.id(), ca.public_key(), ca.delta());
    for (std::size_t i = 0; i < 10 + surviving; ++i) {
      ASSERT_EQ(oracle.apply_issuance(msgs[i], 1000 + 10 * (i + 1)),
                ra::ApplyResult::ok);
    }
    ASSERT_EQ(recovered.have_n(ca.id()), oracle.have_n(ca.id()))
        << "cut " << cut;
    ASSERT_EQ(recovered.root_of(ca.id())->encode(),
              oracle.root_of(ca.id())->encode())
        << "cut " << cut;
    ASSERT_EQ(recovered.status_for(ca.id(), probe)->encode(),
              oracle.status_for(ca.id(), probe)->encode())
        << "cut " << cut;
    const auto rv = recovered.status_bytes_for(ca.id(), probe);
    const auto ov = oracle.status_bytes_for(ca.id(), probe);
    ASSERT_TRUE(rv && ov);
    ASSERT_EQ(*rv->bytes, *ov->bytes) << "cut " << cut;
  }
}

// --------------------------------------------- updater + CDN cold start

TEST(UpdaterPersist, CheckpointAndRecoverResumeFeedCursor) {
  TempDir dir("updater");
  Rng rng(51);
  auto cdn = cdn::make_global_cdn(0);
  ca::DistributionPoint dp(&cdn, 10);
  auto ca = make_ca(52);
  dp.register_ca(ca.id(), ca.public_key());

  UnixSeconds now_s = 1000;
  std::uint64_t serial = 1;
  const auto publish_period = [&](std::size_t revocations) {
    if (revocations == 0) {
      dp.submit(ca.refresh(now_s));
    } else {
      std::vector<SerialNumber> serials;
      for (std::size_t i = 0; i < revocations; ++i) {
        serials.push_back(SerialNumber::from_uint(serial++, 4));
      }
      dp.submit(ca::FeedMessage::of(ca.revoke(serials, now_s)));
    }
    dp.publish(from_seconds(now_s));
    now_s += 10;
  };

  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  cdn::LocalCdn cdn_rpc(&cdn);
  ra::RaUpdater updater({.location = {0, 0}}, &store, &cdn_rpc.rpc);
  updater.enable_persistence(dir.str());

  for (int p = 0; p < 6; ++p) publish_period(p % 3 == 0 ? 5 : 0);
  updater.pull_up_to(5, from_seconds(now_s));
  updater.checkpoint();
  for (int p = 0; p < 4; ++p) publish_period(p % 2 == 0 ? 3 : 0);
  updater.pull_up_to(9, from_seconds(now_s));
  // Crash: nothing flushed beyond the WAL's own batching — force the sync
  // the way a real shutdown would not get to.
  store.wal()->sync();

  ra::DictionaryStore store2;
  store2.register_ca(ca.id(), ca.public_key(), ca.delta());
  ra::RaUpdater updater2({.location = {0, 0}}, &store2, &cdn_rpc.rpc);
  const auto report = updater2.recover(dir.str());
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(updater2.next_period(), 10u);
  EXPECT_EQ(store2.have_n(ca.id()), store.have_n(ca.id()));
  EXPECT_EQ(store2.root_of(ca.id())->encode(),
            store.root_of(ca.id())->encode());
  EXPECT_FALSE(store2.needs_sync(ca.id()));

  // The recovered updater keeps pulling new periods seamlessly.
  publish_period(2);
  updater2.pull_up_to(10, from_seconds(now_s));
  EXPECT_EQ(store2.have_n(ca.id()), serial - 1);
  EXPECT_EQ(updater2.totals().syncs, 0u);
}

// A crash right after a checkpoint's WAL reset leaves the checkpoint and a
// header-only log. The checkpoint carries the feed cursor, so recovery
// resumes at the next period instead of re-pulling the periods the
// replicas already reflect (re-applying one of their issuances would
// report a gap and mark the replica for sync).
TEST(UpdaterPersist, CrashAfterWalResetKeepsFeedCursor) {
  TempDir dir("updater-reset");
  auto cdn = cdn::make_global_cdn(0);
  cdn::LocalCdn cdn_rpc(&cdn);
  ca::DistributionPoint dp(&cdn, 10);
  auto ca = make_ca(53);
  dp.register_ca(ca.id(), ca.public_key());

  UnixSeconds now_s = 1000;
  std::uint64_t serial = 1;
  const auto publish_period = [&](std::size_t revocations) {
    if (revocations == 0) {
      dp.submit(ca.refresh(now_s));
    } else {
      std::vector<SerialNumber> serials;
      for (std::size_t i = 0; i < revocations; ++i) {
        serials.push_back(SerialNumber::from_uint(serial++, 4));
      }
      dp.submit(ca::FeedMessage::of(ca.revoke(serials, now_s)));
    }
    dp.publish(from_seconds(now_s));
    now_s += 10;
  };

  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  {
    ra::RaUpdater updater({.location = {0, 0}}, &store, &cdn_rpc.rpc);
    updater.enable_persistence(dir.str());
    for (int p = 0; p < 6; ++p) publish_period(p % 3 == 0 ? 5 : 0);
    updater.pull_up_to(5, from_seconds(now_s));
    updater.checkpoint();
  }
  // The crash: nothing logged after the reset survives.
  std::filesystem::resize_file(dir.file(Recovery::kWalName),
                               WriteAheadLog::kHeaderSize);

  ra::DictionaryStore store2;
  store2.register_ca(ca.id(), ca.public_key(), ca.delta());
  ra::RaUpdater updater2({.location = {0, 0}}, &store2, &cdn_rpc.rpc);
  const auto report = updater2.recover(dir.str());
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(updater2.next_period(), 6u);

  publish_period(0);  // period 6: freshness only
  updater2.pull_up_to(6, from_seconds(now_s));
  EXPECT_EQ(updater2.totals().pulls, 1u);
  EXPECT_FALSE(store2.needs_sync(ca.id()));
  EXPECT_EQ(store2.root_of(ca.id())->encode(),
            store.root_of(ca.id())->encode());
}

// The feed cursor is store state: each advance is a WAL record, a lower
// period is a no-op, and recovery restores the cursor from the checkpoint
// meta and raises it from the tail without counting a replayed mutation.
// A record of a type the store does not define counts as rejected.
TEST(StorePersist, FeedCursorIsCheckpointedAndLogged) {
  TempDir dir("store-cursor");
  auto ca = make_ca(83);
  const auto recover = [&] {
    auto store = std::make_unique<ra::DictionaryStore>();
    store->register_ca(ca.id(), ca.public_key(), ca.delta());
    auto report = store->recover_from(dir.str());
    EXPECT_TRUE(report.ok) << report.error;
    return std::make_pair(std::move(store), report);
  };

  ra::DictionaryStore live;
  live.register_ca(ca.id(), ca.public_key(), ca.delta());
  persist::WriteAheadLog wal;
  wal.open(Recovery::wal_path(dir.str()));
  live.attach_wal(&wal);
  live.advance_feed_cursor(3, 1000);
  live.persist_to(dir.str());  // the checkpoint carries cursor 3
  EXPECT_EQ(wal.tail_bytes(), 0u);
  live.advance_feed_cursor(2, 1000);
  EXPECT_EQ(live.feed_cursor(), 3u);
  EXPECT_EQ(wal.tail_bytes(), 0u);  // nothing to log
  {
    const auto [store, report] = recover();
    EXPECT_EQ(store->feed_cursor(), 3u);
    EXPECT_EQ(report.replayed + report.rejected, 0u);
  }

  ASSERT_EQ(live.apply_issuance(
                ca.revoke({SerialNumber::from_uint(1, 4)}, 1010), 1010),
            ra::ApplyResult::ok);
  live.advance_feed_cursor(4, 1010);
  wal.append(9, ByteSpan(Bytes(8, 0)));
  wal.sync();
  const auto [store, report] = recover();
  EXPECT_EQ(store->feed_cursor(), 4u);
  EXPECT_EQ(store->have_n(ca.id()), 1u);
  EXPECT_EQ(report.replayed, 1u);
  EXPECT_EQ(report.rejected, 1u);
}

TEST(StorePersist, ReopenedEmptyWalNumbersPastTheSnapshotStamp) {
  // Regression: persist_to() empties the WAL; after a crash the reopened
  // log would restart numbering at 1, below the snapshot's stamp, and the
  // next recovery would drop every post-restart mutation. append_wal()
  // floors the counter at mutation_seq + 1.
  TempDir dir("store-empty-wal");
  auto ca = make_ca(81);
  const auto issue = [&](std::uint64_t s, UnixSeconds now) {
    return ca.revoke({SerialNumber::from_uint(s, 4)}, now);
  };

  {
    ra::DictionaryStore store;
    store.register_ca(ca.id(), ca.public_key(), ca.delta());
    persist::WriteAheadLog wal;
    wal.open(Recovery::wal_path(dir.str()));
    store.attach_wal(&wal);
    for (std::uint64_t s = 1; s <= 3; ++s) {
      ASSERT_EQ(store.apply_issuance(issue(s, 1000 + 10 * s), 1000 + 10 * s),
                ra::ApplyResult::ok);
    }
    store.persist_to(dir.str());  // snapshot stamped seq 3; WAL emptied
    wal.close();                  // crash with the log empty
  }
  std::uint64_t n_second_run = 0;
  {
    ra::DictionaryStore store;
    store.register_ca(ca.id(), ca.public_key(), ca.delta());
    ASSERT_TRUE(store.recover_from(dir.str()).ok);
    persist::WriteAheadLog wal;
    wal.open(Recovery::wal_path(dir.str()));  // fresh log: next_seq == 1
    store.attach_wal(&wal);
    for (std::uint64_t s = 4; s <= 5; ++s) {
      ASSERT_EQ(store.apply_issuance(issue(s, 1000 + 10 * s), 1000 + 10 * s),
                ra::ApplyResult::ok);
    }
    n_second_run = store.have_n(ca.id());
    wal.close();  // crash again, no second snapshot
  }
  ra::DictionaryStore recovered;
  recovered.register_ca(ca.id(), ca.public_key(), ca.delta());
  const auto report = recovered.recover_from(dir.str());
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.replayed, 2u);  // both post-restart issuances survive
  EXPECT_EQ(recovered.have_n(ca.id()), n_second_run);
}

TEST(UpdaterPersist, MutationsAfterEmptyTailRecoveryAreNotLost) {
  // Regression: a checkpoint empties the WAL; recovering from exactly that
  // state (no tail) and then accepting new mutations must number them
  // *past* the snapshot's stamp — if the reopened log restarted at seq 1,
  // the next recovery would silently drop everything since the checkpoint.
  TempDir dir("updater-empty-tail");
  auto cdn = cdn::make_global_cdn(0);
  cdn::LocalCdn cdn_rpc(&cdn);
  ca::DistributionPoint dp(&cdn, 10);
  auto ca = make_ca(72);
  dp.register_ca(ca.id(), ca.public_key());

  UnixSeconds now_s = 1000;
  std::uint64_t serial = 1;
  const auto publish_period = [&](std::size_t revocations) {
    std::vector<SerialNumber> serials;
    for (std::size_t i = 0; i < revocations; ++i) {
      serials.push_back(SerialNumber::from_uint(serial++, 4));
    }
    dp.submit(ca::FeedMessage::of(ca.revoke(serials, now_s)));
    dp.publish(from_seconds(now_s));
    now_s += 10;
  };

  {
    ra::DictionaryStore store;
    store.register_ca(ca.id(), ca.public_key(), ca.delta());
    ra::RaUpdater updater({.location = {0, 0}}, &store, &cdn_rpc.rpc);
    updater.enable_persistence(dir.str());
    for (int p = 0; p < 3; ++p) publish_period(4);
    updater.pull_up_to(2, from_seconds(now_s));
    updater.checkpoint();  // WAL now empty; crash right here
  }

  std::uint64_t n_after_second_run = 0;
  {
    // Restart 1: recover from snapshot + empty tail, then accept more.
    ra::DictionaryStore store;
    store.register_ca(ca.id(), ca.public_key(), ca.delta());
    ra::RaUpdater updater({.location = {0, 0}}, &store, &cdn_rpc.rpc);
    const auto report = updater.recover(dir.str());
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(updater.next_period(), 3u);
    for (int p = 0; p < 2; ++p) publish_period(4);
    updater.pull_up_to(4, from_seconds(now_s));
    store.wal()->sync();
    n_after_second_run = store.have_n(ca.id());
    ASSERT_EQ(n_after_second_run, 20u);
  }  // crash again, without a second checkpoint

  // Restart 2: the post-recovery mutations must all replay.
  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  ra::RaUpdater updater({.location = {0, 0}}, &store, &cdn_rpc.rpc);
  const auto report = updater.recover(dir.str());
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.replayed, 2u);  // the two post-checkpoint issuances
  EXPECT_EQ(store.have_n(ca.id()), n_after_second_run);
  EXPECT_EQ(updater.next_period(), 5u);

  // And a checkpoint now must supersede the old snapshot, not rank below
  // it: one more cycle proves the newest state wins.
  updater.checkpoint();
  ra::DictionaryStore store2;
  store2.register_ca(ca.id(), ca.public_key(), ca.delta());
  ra::RaUpdater updater2({.location = {0, 0}}, &store2, &cdn_rpc.rpc);
  ASSERT_TRUE(updater2.recover(dir.str()).ok);
  EXPECT_EQ(store2.have_n(ca.id()), n_after_second_run);
  EXPECT_EQ(updater2.next_period(), 5u);
}

TEST(ColdStart, FreshRaBootstrapsInOnePullThenPullsOnlyDeltas) {
  auto cdn = cdn::make_global_cdn(0);
  cdn::LocalCdn cdn_rpc(&cdn);
  ca::DistributionPoint dp(&cdn, 10);
  auto ca = make_ca(62);
  dp.register_ca(ca.id(), ca.public_key());

  // History: 20 feed periods of revocations.
  UnixSeconds now_s = 1000;
  std::uint64_t serial = 1;
  for (int p = 0; p < 20; ++p) {
    std::vector<SerialNumber> serials;
    for (int i = 0; i < 50; ++i) {
      serials.push_back(SerialNumber::from_uint(serial++, 4));
    }
    dp.submit(ca::FeedMessage::of(ca.revoke(serials, now_s)));
    dp.publish(from_seconds(now_s));
    now_s += 10;
  }
  // The CA publishes its cold-start object covering periods 0..19.
  ASSERT_EQ(dp.publish_cold_start(ca.cold_start_object(19, now_s),
                                  from_seconds(now_s)),
            svc::Status::ok);
  // Two more delta periods after the snapshot.
  for (int p = 0; p < 2; ++p) {
    std::vector<SerialNumber> serials;
    for (int i = 0; i < 5; ++i) {
      serials.push_back(SerialNumber::from_uint(serial++, 4));
    }
    dp.submit(ca::FeedMessage::of(ca.revoke(serials, now_s)));
    dp.publish(from_seconds(now_s));
    now_s += 10;
  }

  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  ra::RaUpdater updater({.location = {0, 0}}, &store, &cdn_rpc.rpc);
  ASSERT_EQ(updater.bootstrap(ca.id(), from_seconds(now_s)), svc::Status::ok);
  EXPECT_EQ(store.have_n(ca.id()), 1000u);   // periods 0..19 in one GET
  EXPECT_EQ(updater.next_period(), 20u);
  EXPECT_EQ(updater.totals().bootstraps, 1u);

  updater.pull_up_to(21, from_seconds(now_s));
  EXPECT_EQ(store.have_n(ca.id()), serial - 1);
  EXPECT_EQ(updater.totals().syncs, 0u);
  EXPECT_EQ(updater.totals().rejected, 0u);
  // Statuses served off the bootstrapped replica verify like any other.
  const auto status = store.status_for(ca.id(), SerialNumber::from_uint(3, 4));
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(dict::verify_proof(status->proof, SerialNumber::from_uint(3, 4),
                                 status->signed_root.root,
                                 status->signed_root.n));

  // A tampered cold-start object is rejected: flip a snapshot byte.
  auto obj = ca.cold_start_object(21, now_s);
  obj.dict_snapshot[40] ^= 0x01;
  ASSERT_EQ(dp.publish_cold_start(obj, from_seconds(now_s)),
            svc::Status::ok);  // sig is fine
  ra::DictionaryStore store2;
  store2.register_ca(ca.id(), ca.public_key(), ca.delta());
  ra::RaUpdater updater2({.location = {0, 0}}, &store2, &cdn_rpc.rpc);
  EXPECT_EQ(updater2.bootstrap(ca.id(), from_seconds(now_s)),
            svc::Status::root_mismatch);
  EXPECT_FALSE(store2.has_root(ca.id()));
}

}  // namespace
}  // namespace ritm
