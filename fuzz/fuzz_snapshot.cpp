// Fuzz harness for the RA's persisted-state parsers: the CDN cold-start
// object (ca::ColdStartObject::decode) with the dictionary snapshot it
// carries (dict::Dictionary::restore_from), the checkpoint decoders
// (persist::decode_part with Dictionary::restore_sections, and
// persist::decode_part_list), and the WAL reader (persist::WriteAheadLog
// ::scan, and ra::DictionaryStore::recover_from replaying what it reads).
// The first byte mod 4 picks one of four input shapes:
//   * raw:        the rest of the input, verbatim, to the cold-start parser.
//   * mutation:   one of a few valid cold-start encodings (bare snapshots
//                 and cold-start objects of dictionaries with 0, 3 and 200
//                 entries), picked by the second byte, with the remaining
//                 bytes XORed over it (any excess appended). Random bytes
//                 almost never get past the version byte and the entry
//                 count; this shape keeps the fuzzer next to acceptance,
//                 where the order check and the root comparison decide.
//   * checkpoint: raw bytes, or one of the checkpoint files of those three
//                 dictionaries (their parts, and a manifest's part list)
//                 with the remaining bytes XORed over it, picked by the
//                 second byte's low 7 bits; its high bit recomputes the
//                 container CRCs after the XOR, as a structure-aware
//                 mutator would, so mutations reach the meta and arena
//                 checks behind them.
//   * wal:        raw bytes, or a valid wal.log holding every store record
//                 type (bootstrap, issuance, freshness, sync and feed-cursor
//                 records) with the remaining bytes XORed over it, picked
//                 by the second byte's low bit; its high bit recomputes the
//                 record CRCs after the XOR, so mutations reach the record
//                 decoders and the acceptance rules.
// Every cold-start input goes to the snapshot parser both bare and as a
// cold-start object, and must either be rejected or restore to a dictionary
// that
//   * re-encodes (snapshot_into) exactly the bytes restore_from consumed, and
//   * reports the recorded root (the consumed bytes' last 20) as root().
// Every checkpoint input goes to both checkpoint decoders: a part must
// either fail, or adopt into a dictionary whose root() and size equal the
// recorded ones; a part list must either fail or re-encode to exactly its
// bytes. A rejected restore must leave the target dictionary untouched.
// Every WAL input goes to WriteAheadLog::scan, whose valid prefix must
// re-frame to exactly the input's first valid_bytes, with valid_bytes +
// truncated_bytes equal to the input size; and, as the wal.log of an
// otherwise empty directory, to DictionaryStore::recover_from, which must
// return ok without throwing.
//
// Built two ways (CMake), like fuzz_frame: with -DRITM_BUILD_FUZZERS=ON
// (clang) this is a libFuzzer target; otherwise it compiles as a
// self-driving smoke binary that replays a deterministic pseudo-random
// corpus of all four shapes, registered as a ctest (label `fault`).
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "ca/authority.hpp"
#include "common/crc32.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "dict/dictionary.hpp"
#include "persist/recovery.hpp"
#include "persist/shard_checkpoint.hpp"
#include "persist/wal.hpp"
#include "ra/store.hpp"

namespace {

using namespace ritm;

/// A valid encoding plus the offsets the smoke corpus aims its edits at.
struct Base {
  Bytes bytes;
  std::size_t snapshot_at = 0;         // where the dictionary snapshot starts
  std::size_t entries = 0;             // n
  std::vector<std::size_t> len_bytes;  // each serial's length byte
  std::size_t index_at = 0;            // first sorted-index word
};

constexpr std::size_t kCountOffset = 1;  // after the version byte
constexpr std::size_t kHeaderBytes = kCountOffset + 8;

/// The CA a WAL image's records come from: what recovery registers.
struct WalCa {
  cert::CaId id;
  crypto::PublicKey key{};
  UnixSeconds delta = 0;
};

/// Valid encodings to mutate: bare snapshots, then cold-start objects, of
/// three CAs' dictionaries; those dictionaries' checkpoint files; and a
/// wal.log of another CA's records.
struct Corpus {
  std::vector<Base> cold;
  std::vector<Bytes> checkpoint;  // three parts, then a part list
  Bytes wal;
  WalCa wal_ca;
};

/// A temporary directory named after this process, removed at exit.
struct TempDir {
  std::filesystem::path path;

  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             ("ritm-fuzz-" + name + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

Bytes read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

/// The parts of a checkpoint holding `dicts`, read back from a temporary
/// directory, then the part list its manifest carries.
std::vector<Bytes> checkpoint_files(
    const std::vector<dict::DictSections>& dicts) {
  const TempDir dir("snapshot");
  persist::write_checkpoint(dir.path.string(), 1, ByteSpan(), dicts);
  std::vector<Bytes> out;
  std::vector<persist::PartKey> keys;
  for (const dict::DictSections& d : dicts) {
    keys.push_back({d.root, d.n});
    out.push_back(read_file(dir.path / persist::part_name(keys.back())));
  }
  out.push_back(persist::encode_part_list(keys));
  return out;
}

/// The wal.log a live store writes while it applies one record of every
/// type from `ca`: a cold-start bootstrap, a feed-cursor advance, an
/// issuance, a freshness statement, a sync response, and another advance.
Bytes wal_file(ca::CertificationAuthority& ca, Rng& rng) {
  const TempDir dir("wal-corpus");
  persist::WriteAheadLog wal;
  wal.open(persist::Recovery::wal_path(dir.path.string()));
  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  store.attach_wal(&wal);
  const auto serial = [&] {
    return cert::SerialNumber{
        rng.bytes(1 + rng.uniform(cert::kMaxSerialBytes))};
  };
  bool ok = true;
  ca.revoke({serial(), serial(), serial()}, 1000);
  const ca::ColdStartObject obj = ca.cold_start_object(0, 1000);
  ok &= store.bootstrap_replica(ca.id(), ByteSpan(obj.dict_snapshot),
                                obj.signed_root, obj.freshness,
                                1000) == ra::ApplyResult::ok;
  store.advance_feed_cursor(1, 1000);
  ok &= store.apply_issuance(ca.revoke({serial()}, 1010), 1010) ==
        ra::ApplyResult::ok;
  ok &= store.apply_freshness({ca.id(), ca.freshness_at(1030)}, 1030) ==
        ra::ApplyResult::ok;
  ca.revoke({serial(), serial()}, 1040);
  dict::SyncResponse sync;
  sync.ca = ca.id();
  sync.entries = ca.dictionary().entries_from(store.have_n(ca.id()) + 1);
  sync.signed_root = ca.signed_root();
  sync.freshness = ca.freshness_at(1050);
  ok &= store.apply_sync(sync, 1050) == ra::ApplyResult::ok;
  store.advance_feed_cursor(5, 1050);
  if (!ok) throw std::logic_error("fuzz_snapshot: WAL corpus rejected");
  wal.close();
  return read_file(persist::Recovery::wal_path(dir.path.string()));
}

const Corpus& corpus() {
  static const Corpus out = [] {
    std::vector<Base> snapshots, objects;
    std::vector<dict::DictSections> dicts;
    std::vector<ca::CertificationAuthority> cas;
    cas.reserve(4);
    Rng rng(0x5A4B);
    for (const std::size_t n : {0, 3, 200}) {
      ca::CertificationAuthority::Config cfg;
      cfg.id = "CA-FUZZ-" + std::to_string(n);
      cfg.delta = 10;
      cfg.chain_length = 8;
      ca::CertificationAuthority& ca = cas.emplace_back(cfg, rng, 1000);
      std::vector<cert::SerialNumber> serials;
      for (std::size_t i = 0; i < n; ++i) {
        serials.push_back(
            cert::SerialNumber{rng.bytes(1 + rng.uniform(cert::kMaxSerialBytes))});
      }
      ca.revoke(serials, 1000);
      const ca::ColdStartObject obj = ca.cold_start_object(0, 1000);
      dicts.push_back(ca.dictionary().snapshot_sections());

      Base snap;
      snap.bytes = obj.dict_snapshot;
      snap.entries = ca.dictionary().size();
      std::size_t at = kHeaderBytes;
      for (std::size_t i = 0; i < snap.entries; ++i) {
        snap.len_bytes.push_back(at);
        at += 1 + snap.bytes[at];
      }
      snap.index_at = at;

      Base wrapped = snap;
      wrapped.bytes = obj.encode();
      const std::size_t shift = wrapped.bytes.size() - snap.bytes.size();
      wrapped.snapshot_at = shift;
      for (std::size_t& off : wrapped.len_bytes) off += shift;
      wrapped.index_at += shift;

      snapshots.push_back(std::move(snap));
      objects.push_back(std::move(wrapped));
    }
    snapshots.insert(snapshots.end(), objects.begin(), objects.end());

    ca::CertificationAuthority::Config cfg;
    cfg.id = "CA-FUZZ-WAL";
    cfg.delta = 10;
    cfg.chain_length = 8;
    ca::CertificationAuthority& wal_ca = cas.emplace_back(cfg, rng, 1000);
    Bytes wal = wal_file(wal_ca, rng);
    return Corpus{std::move(snapshots), checkpoint_files(dicts),
                  std::move(wal),
                  WalCa{wal_ca.id(), wal_ca.public_key(), wal_ca.delta()}};
  }();
  return out;
}

const std::vector<Base>& bases() { return corpus().cold; }

/// The dictionary each restore targets: non-empty, so "untouched" is a
/// real check.
const dict::Dictionary& victim() {
  static const dict::Dictionary d = [] {
    dict::Dictionary v;
    v.insert({cert::SerialNumber::from_uint(7), cert::SerialNumber::from_uint(3)});
    (void)v.root();
    return v;
  }();
  return d;
}

/// Restores `snapshot` into a copy of victim(); returns whether it was
/// accepted. Traps on any broken invariant.
bool check_restore(ByteSpan snapshot) {
  dict::Dictionary d = victim();
  ByteReader r{snapshot};
  try {
    d.restore_from(r);
  } catch (const std::runtime_error&) {
    if (d.size() != victim().size() || d.root() != victim().root()) {
      __builtin_trap();
    }
    return false;
  }
  const std::size_t used = r.position();
  ByteWriter w;
  d.snapshot_into(w);
  const Bytes& again = w.bytes();
  if (used < 20 || again.size() != used ||
      !std::equal(again.begin(), again.end(), snapshot.begin())) {
    __builtin_trap();
  }
  crypto::Digest20 recorded{};
  std::copy(snapshot.begin() + static_cast<std::ptrdiff_t>(used - 20),
            snapshot.begin() + static_cast<std::ptrdiff_t>(used),
            recorded.begin());
  if (d.root() != recorded) __builtin_trap();
  return true;
}

/// Checks `input` as a bare snapshot and as a cold-start object; returns
/// whether either restored.
bool check(ByteSpan input) {
  bool accepted = check_restore(input);
  if (const auto obj = ca::ColdStartObject::decode(input)) {
    accepted |= check_restore(ByteSpan(obj->dict_snapshot));
  }
  return accepted;
}

/// Decodes `image` as a part and adopts it into a copy of victim();
/// returns whether it was adopted. Traps on any broken invariant.
bool check_part(ByteSpan image) {
  const auto sec = persist::decode_part(image);
  if (!sec) return false;
  dict::Dictionary d = victim();
  try {
    d.restore_sections(*sec, nullptr);  // `image` outlives `d`
  } catch (const std::runtime_error&) {
    if (d.size() != victim().size() || d.root() != victim().root()) {
      __builtin_trap();
    }
    return false;
  }
  if (d.root() != sec->root || d.size() != sec->n) __builtin_trap();
  return true;
}

/// Decodes `data` as a part list; an accepted list must re-encode to
/// exactly `data`. Returns whether it was accepted.
bool check_part_list(ByteSpan data) {
  const auto keys = persist::decode_part_list(data);
  if (!keys) return false;
  const Bytes again = persist::encode_part_list(*keys);
  if (again.size() != data.size() ||
      !std::equal(again.begin(), again.end(), data.begin())) {
    __builtin_trap();
  }
  return true;
}

/// What recovering a store from one WAL image gave.
struct WalReplay {
  std::size_t replayed = 0;
  std::size_t rejected = 0;
  std::uint64_t feed_cursor = 0;
};

/// Checks `image` as a wal.log: the scan's valid prefix must re-frame to
/// exactly the image's first valid_bytes, the rest being the truncated
/// tail, and a store must recover from a directory holding only the image
/// without throwing. Traps on any broken invariant.
WalReplay check_wal(ByteSpan image) {
  const persist::WalScan scan = persist::WriteAheadLog::scan(image);
  if (scan.valid_bytes + scan.truncated_bytes != image.size()) {
    __builtin_trap();
  }
  Bytes framed;
  if (scan.valid_bytes > 0) {
    const Bytes& header = corpus().wal;
    framed.assign(header.begin(),
                  header.begin() + persist::WriteAheadLog::kHeaderSize);
  }
  for (const persist::WalRecord& rec : scan.records) {
    ByteWriter frame;
    frame.u64(rec.seq);
    frame.u8(rec.type);
    frame.raw(ByteSpan(rec.payload));
    ByteWriter w(framed);
    w.u32(static_cast<std::uint32_t>(frame.size()));
    w.raw(ByteSpan(frame.bytes()));
    w.u32(crc32(ByteSpan(frame.bytes())));
  }
  if (framed.size() != scan.valid_bytes ||
      !std::equal(framed.begin(), framed.end(), image.begin())) {
    __builtin_trap();
  }

  static const TempDir dir("wal");
  {
    std::ofstream out(persist::Recovery::wal_path(dir.path.string()),
                      std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
  }
  ra::DictionaryStore store;
  const WalCa& ca = corpus().wal_ca;
  store.register_ca(ca.id, ca.key, ca.delta);
  const auto report = store.recover_from(dir.path.string());
  if (!report.ok || report.replayed + report.rejected > scan.records.size()) {
    __builtin_trap();
  }
  return {report.replayed, report.rejected, store.feed_cursor()};
}

std::uint64_t be_at(const std::uint8_t* p, std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i) v = (v << 8) | p[i];
  return v;
}

void put_be32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
}

/// Recomputes the section and directory CRCs of a container file image in
/// place; entries whose section does not fit the image keep their CRC.
void refresh_crcs(Bytes& image) {
  if (image.size() < persist::kFileHeaderSize + persist::kSectionHeaderSize) {
    return;
  }
  std::uint8_t* base = image.data() + persist::kFileHeaderSize;
  const std::size_t avail = image.size() - persist::kFileHeaderSize;
  const std::uint64_t count = be_at(base + 4, 4);
  if (count > (avail - persist::kSectionHeaderSize) /
                  persist::kSectionDirEntrySize) {
    return;
  }
  std::uint8_t* dir = base + persist::kSectionHeaderSize;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint8_t* e = dir + i * persist::kSectionDirEntrySize;
    const std::uint64_t off = be_at(e + 8, 8);
    const std::uint64_t len = be_at(e + 16, 8);
    if (off > avail || len > avail - off) continue;
    put_be32(e + 4, crc32(ByteSpan(base + off, len)));
  }
  put_be32(base + 8,
           crc32(ByteSpan(dir, count * persist::kSectionDirEntrySize)));
}

/// Recomputes each record's CRC in a wal.log image in place, following the
/// frame lengths from the header; stops at the first frame that does not
/// fit.
void refresh_wal_crcs(Bytes& image) {
  std::size_t pos = persist::WriteAheadLog::kHeaderSize;
  while (pos <= image.size() && image.size() - pos >= 8) {
    const std::uint64_t len = be_at(image.data() + pos, 4);
    if (len > image.size() - pos - 8) return;
    put_be32(image.data() + pos + 4 + len,
             crc32(ByteSpan(image.data() + pos + 4, len)));
    pos += 8 + len;
  }
}

/// XORs `mask` over `base` (any excess appended).
Bytes xor_over(const Bytes& base, const std::uint8_t* mask, std::size_t len) {
  Bytes t = base;
  for (std::size_t i = 0; i < len; ++i) {
    if (i < t.size()) {
      t[i] ^= mask[i];
    } else {
      t.push_back(mask[i]);
    }
  }
  return t;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 1) return 0;
  const std::uint8_t shape = data[0] % 4;
  if (shape == 0) {
    check(ByteSpan(data + 1, size - 1));
    return 0;
  }
  const std::uint8_t pick_byte = size >= 2 ? data[1] : 0;
  const std::uint8_t* mask = data + std::min<std::size_t>(size, 2);
  const std::size_t mask_len = size - std::min<std::size_t>(size, 2);
  if (shape == 1) {
    const Bytes t =
        xor_over(bases()[pick_byte % bases().size()].bytes, mask, mask_len);
    check(ByteSpan(t));
    return 0;
  }
  if (shape == 2) {
    // Copied even when raw: the arenas need the buffer's alignment.
    const auto& files = corpus().checkpoint;
    const std::size_t pick = (pick_byte & 0x7F) % (files.size() + 1);
    Bytes t = xor_over(pick < files.size() ? files[pick] : Bytes(), mask,
                       mask_len);
    if ((pick_byte & 0x80) != 0) refresh_crcs(t);
    check_part(ByteSpan(t));
    check_part_list(ByteSpan(t));
    return 0;
  }
  const bool raw = (pick_byte & 1) != 0;
  Bytes t = xor_over(raw ? Bytes() : corpus().wal, mask, mask_len);
  if ((pick_byte & 0x80) != 0) refresh_wal_crcs(t);
  check_wal(ByteSpan(t));
  return 0;
}

#ifndef RITM_LIBFUZZER
// Self-driving smoke mode, through the same entry point libFuzzer drives.
// Cold-start shapes: raw noise, truncated valid encodings, and valid
// encodings unchanged, with a few flipped bits, with one byte changed, with
// trailing bytes, with a forged entry count, with two sorted-index words
// swapped, or with a serial length of 0 or 21. Checkpoint shape: raw noise,
// truncated files, and files with a few flipped bits or one byte changed,
// with and without refreshed CRCs; and, checked directly, parts whose
// sorted index has two words swapped under refreshed CRCs, which must be
// rejected. WAL shape: raw noise, truncated logs, and logs with a few
// flipped bits, one byte changed or trailing bytes, with and without
// refreshed CRCs; the unchanged log must replay all four mutations and
// end at feed cursor 5.
int main() {
  // The corpus leans on the bases being valid; a broken one would leave
  // only rejections to compare.
  for (const Base& b : bases()) {
    if (!check(ByteSpan(b.bytes))) return 1;
  }
  Rng rng(0xF0226);
  Bytes buf;
  for (int iter = 0; iter < 3000; ++iter) {
    const std::size_t pick = rng.uniform(bases().size());
    const Base& base = bases()[pick];
    const std::uint64_t shape = rng.uniform(10);
    if (shape <= 1) {  // raw: noise, or a valid encoding cut short
      buf.assign(1, 0);
      const Bytes body =
          shape == 0 ? rng.bytes(rng.uniform(200))
                     : Bytes(base.bytes.begin(),
                             base.bytes.begin() + static_cast<std::ptrdiff_t>(
                                                      rng.uniform(base.bytes.size())));
      buf.insert(buf.end(), body.begin(), body.end());
      LLVMFuzzerTestOneInput(buf.data(), buf.size());
      continue;
    }
    // Mutation: an XOR mask over a valid encoding.
    buf.assign(2 + base.bytes.size(), 0);
    buf[0] = 1;
    buf[1] = static_cast<std::uint8_t>(pick);
    // Makes the mutated encoding hold `value` at `offset`.
    const auto set = [&](std::size_t offset, std::uint8_t value) {
      buf[2 + offset] = static_cast<std::uint8_t>(base.bytes[offset] ^ value);
    };
    switch (shape) {
      case 2:  // unchanged
        break;
      case 3: {  // a few bit flips anywhere
        const std::uint64_t flips = 1 + rng.uniform(3);
        for (std::uint64_t f = 0; f < flips; ++f) {
          buf[2 + rng.uniform(base.bytes.size())] ^=
              static_cast<std::uint8_t>(1u << rng.uniform(8));
        }
        break;
      }
      case 4:  // one byte changed
        buf[2 + rng.uniform(base.bytes.size())] =
            static_cast<std::uint8_t>(1 + rng.uniform(255));
        break;
      case 5: {  // trailing bytes: ignored by restore, kept by the object
        const Bytes tail = rng.bytes(1 + rng.uniform(40));
        buf.insert(buf.end(), tail.begin(), tail.end());
        break;
      }
      case 6: {  // a forged entry count, up to far past the input
        const std::uint64_t forged =
            rng.uniform(2) ? base.entries + 1 + rng.uniform(base.bytes.size())
                           : rng.next();
        for (std::size_t i = 0; i < 8; ++i) {
          set(base.snapshot_at + kCountOffset + i,
              static_cast<std::uint8_t>(forged >> (56 - 8 * i)));
        }
        break;
      }
      case 7:  // two adjacent sorted-index words swapped: out of order
        if (base.entries >= 2) {
          const std::size_t w = rng.uniform(base.entries - 1);
          for (std::size_t i = 0; i < 4; ++i) {
            const std::size_t a = base.index_at + 4 * w + i;
            set(a, base.bytes[a + 4]);
            set(a + 4, base.bytes[a]);
          }
        }
        break;
      default:  // a serial length of 0 or 21
        if (base.entries >= 1) {
          set(base.len_bytes[rng.uniform(base.entries)],
              rng.uniform(2) ? 0 : cert::kMaxSerialBytes + 1);
        }
        break;
    }
    LLVMFuzzerTestOneInput(buf.data(), buf.size());
  }

  const auto& files = corpus().checkpoint;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const bool ok = i + 1 < files.size() ? check_part(ByteSpan(files[i]))
                                         : check_part_list(ByteSpan(files[i]));
    if (!ok) return 1;
  }
  for (int iter = 0; iter < 1500; ++iter) {
    const std::size_t pick = rng.uniform(files.size());
    const Bytes& file = files[pick];
    const std::uint64_t kind = rng.uniform(6);
    if (kind == 5) {  // two adjacent sorted-index words swapped
      const auto sec = persist::decode_part(ByteSpan(file));
      if (!sec || sec->n < 2) continue;
      Bytes t = file;
      const std::size_t at =
          static_cast<std::size_t>(sec->sorted.data() - file.data()) +
          4 * rng.uniform(sec->n - 1);
      std::swap_ranges(t.begin() + static_cast<std::ptrdiff_t>(at),
                       t.begin() + static_cast<std::ptrdiff_t>(at + 4),
                       t.begin() + static_cast<std::ptrdiff_t>(at + 4));
      refresh_crcs(t);
      if (check_part(ByteSpan(t))) return 1;
      continue;
    }
    buf.assign(2, 2);
    if (kind <= 1) {  // raw: noise, or a valid file cut short
      buf[1] = static_cast<std::uint8_t>(files.size());
      const Bytes body =
          kind == 0 ? rng.bytes(rng.uniform(300))
                    : Bytes(file.begin(),
                            file.begin() + static_cast<std::ptrdiff_t>(
                                               rng.uniform(file.size())));
      buf.insert(buf.end(), body.begin(), body.end());
      LLVMFuzzerTestOneInput(buf.data(), buf.size());
      continue;
    }
    // An XOR mask over a valid file; kinds 3 and 4 refresh the CRCs after.
    buf[1] = static_cast<std::uint8_t>(pick | (kind >= 3 ? 0x80 : 0));
    buf.resize(2 + file.size(), 0);
    if (kind == 4) {  // one byte changed
      buf[2 + rng.uniform(file.size())] =
          static_cast<std::uint8_t>(1 + rng.uniform(255));
    } else {  // a few bit flips
      const std::uint64_t flips = 1 + rng.uniform(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        buf[2 + rng.uniform(file.size())] ^=
            static_cast<std::uint8_t>(1u << rng.uniform(8));
      }
    }
    LLVMFuzzerTestOneInput(buf.data(), buf.size());
  }

  const Bytes& log = corpus().wal;
  const WalReplay base = check_wal(ByteSpan(log));
  if (base.replayed != 4 || base.rejected != 0 || base.feed_cursor != 5) {
    return 1;
  }
  // Refreshed CRCs keep a mutated record in the valid prefix: the last
  // record is a cursor advance, and its period's low byte sits just before
  // its CRC.
  Bytes raised = log;
  raised[raised.size() - 5] ^= 0x40;
  refresh_wal_crcs(raised);
  if (check_wal(ByteSpan(raised)).feed_cursor != (5 ^ 0x40)) return 1;
  for (int iter = 0; iter < 600; ++iter) {
    const std::uint64_t kind = rng.uniform(8);
    buf.assign(2, 3);
    if (kind <= 1) {  // raw: noise, or a valid log cut short
      buf[1] = 1;
      const Bytes body =
          kind == 0 ? rng.bytes(rng.uniform(300))
                    : Bytes(log.begin(),
                            log.begin() + static_cast<std::ptrdiff_t>(
                                              rng.uniform(log.size())));
      buf.insert(buf.end(), body.begin(), body.end());
      LLVMFuzzerTestOneInput(buf.data(), buf.size());
      continue;
    }
    // An XOR mask over a valid log; kinds 5 to 7 refresh the CRCs after.
    buf[1] = kind >= 5 ? 0x80 : 0;
    buf.resize(2 + log.size(), 0);
    if (kind % 3 == 0) {  // trailing bytes
      const Bytes tail = rng.bytes(1 + rng.uniform(40));
      buf.insert(buf.end(), tail.begin(), tail.end());
    } else if (kind % 3 == 1) {  // one byte changed
      buf[2 + rng.uniform(log.size())] =
          static_cast<std::uint8_t>(1 + rng.uniform(255));
    } else {  // a few bit flips
      const std::uint64_t flips = 1 + rng.uniform(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        buf[2 + rng.uniform(log.size())] ^=
            static_cast<std::uint8_t>(1u << rng.uniform(8));
      }
    }
    LLVMFuzzerTestOneInput(buf.data(), buf.size());
  }
  return 0;
}
#endif
