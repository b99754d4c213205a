#include "dict/dictionary.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <stdexcept>

namespace ritm::dict {

namespace {

void validate_serials(const std::vector<cert::SerialNumber>& serials) {
  for (const auto& s : serials) {
    if (s.value.empty() || s.value.size() > cert::kMaxSerialBytes) {
      throw std::invalid_argument("Dictionary::insert: bad serial length");
    }
  }
}

LogRecord make_record(const cert::SerialNumber& s) {
  LogRecord rec;
  rec.len = static_cast<std::uint8_t>(s.value.size());
  std::memcpy(rec.bytes, s.value.data(), s.value.size());
  return rec;
}

/// The first 8 serial bytes as a big-endian integer, zero-padded. Integer
/// order agrees with ritm::compare wherever two prefixes differ, so only
/// equal prefixes need the bytes.
std::uint64_t prefix_of(ByteSpan serial) noexcept {
  std::uint64_t v = 0;
  const std::size_t m = std::min<std::size_t>(serial.size(), 8);
  for (std::size_t i = 0; i < m; ++i) {
    v |= std::uint64_t{serial[i]} << (56 - 8 * i);
  }
  return v;
}

/// One batch serial in sort order. After the dedup pass, `at` is its
/// insertion position in the pre-batch sorted index.
struct BatchKey {
  std::uint64_t prefix;
  std::uint32_t pos;  // position in the batch
  std::uint32_t at;
};

// How far ahead the log gathers in sorted order prefetch: far enough to hide
// a cache miss behind the per-entry work, near enough to stay in L1.
constexpr std::size_t kPrefetchAhead = 8;

/// True when `sorted` (n in-range indices into `log`) lists serials in
/// strictly increasing order. Strictness also rules out duplicate indices:
/// a repeated index would repeat its serial and fail the comparison.
bool strictly_increasing(const LogRecord* log, const std::uint32_t* sorted,
                         std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      __builtin_prefetch(&log[sorted[i + kPrefetchAhead]]);
    }
    if (compare(log[sorted[i - 1]].serial(), log[sorted[i]].serial()) >= 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

const crypto::Digest20& Dictionary::root() const {
  if (log_.empty()) return empty_root();
  return node(level_count_ - 1, 0);
}

std::size_t Dictionary::lower_bound(ByteSpan serial, std::size_t lo,
                                    std::size_t hi) const {
  const std::uint32_t* first = sorted_.begin();
  const std::uint32_t* it = std::lower_bound(
      first + lo, first + hi, serial, [&](std::uint32_t idx, ByteSpan key) {
        return compare(serial_at(idx), key) < 0;
      });
  return static_cast<std::size_t>(it - first);
}

std::size_t Dictionary::gallop(ByteSpan serial, std::size_t from,
                              std::size_t stride) const {
  // Probe `stride` positions on, doubling the stride until an entry >=
  // serial bounds the answer, then binary-search the last gap.
  const std::size_t n = sorted_.size();
  std::size_t lo = from;
  std::size_t hi = from + stride - 1;
  while (hi < n && compare(serial_at(sorted_[hi]), serial) < 0) {
    lo = hi + 1;
    stride *= 2;
    hi = lo + stride - 1;
  }
  return lower_bound(serial, lo, std::min(hi, n));
}

bool Dictionary::contains(const cert::SerialNumber& serial) const {
  return number_of(serial).has_value();
}

std::optional<std::uint64_t> Dictionary::number_of(
    const cert::SerialNumber& serial) const {
  const ByteSpan key(serial.value);
  const std::size_t pos = lower_bound(key, 0, sorted_.size());
  if (pos < sorted_.size() && compare(serial_at(sorted_[pos]), key) == 0) {
    return sorted_[pos] + 1;  // numbering == log position + 1
  }
  return std::nullopt;
}

std::vector<Entry> Dictionary::insert(
    const std::vector<cert::SerialNumber>& serials) {
  // Validate everything before mutating anything, so a bad serial anywhere
  // in the batch leaves the dictionary untouched.
  validate_serials(serials);
  std::vector<Entry> added;
  if (serials.empty()) return added;

  const auto serial_of = [&](const BatchKey& key) {
    return ByteSpan(serials[key.pos].value);
  };

  // Sort the batch once by (serial, batch position); the prefix settles
  // nearly every comparison without touching the serial bytes.
  std::vector<BatchKey> keys(serials.size());
  for (std::size_t i = 0; i < serials.size(); ++i) {
    keys[i] = BatchKey{prefix_of(ByteSpan(serials[i].value)),
                       static_cast<std::uint32_t>(i), 0};
  }
  std::sort(keys.begin(), keys.end(),
            [&](const BatchKey& a, const BatchKey& b) {
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              if (const int c = compare(serial_of(a), serial_of(b)); c != 0) {
                return c < 0;
              }
              return a.pos < b.pos;
            });

  // Keep the first occurrence of each serial that is not yet revoked. Batch
  // and index are both sorted, so the index search only moves forward.
  // Survivors are compacted to the front of `keys`: step i writes slot
  // m <= i, so keys[i - 1] still names the previous serial at step i.
  // Once the cursor passes the last entry, the rest of the batch sorts
  // above the whole index and needs no search.
  const std::size_t n = sorted_.size();
  std::size_t m = 0;
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const BatchKey key = keys[i];
    if (i > 0 && key.prefix == keys[i - 1].prefix &&
        compare(serial_of(keys[i - 1]), serial_of(key)) == 0) {
      continue;  // a repeat within the batch: the earlier position won
    }
    if (cursor < n) {
      // Stride: the mean gap between the remaining keys over the rest of
      // the index.
      const ByteSpan serial = serial_of(key);
      cursor = gallop(serial, cursor,
                      std::max<std::size_t>(
                          1, (n - cursor) / (keys.size() - i)));
      if (cursor < n && compare(serial_at(sorted_[cursor]), serial) == 0) {
        continue;  // already revoked
      }
    }
    keys[m++] = BatchKey{key.prefix, key.pos,
                         static_cast<std::uint32_t>(cursor)};
  }
  // Nothing new: no arena detaches (a frozen or mapped copy stays shared).
  if (m == 0) return added;

  // Number the survivors in batch order: log_index maps a batch position
  // to the survivor's log index, or to kSkipped for a dropped serial.
  constexpr std::uint32_t kSkipped = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> log_index(serials.size(), kSkipped);
  for (std::size_t j = 0; j < m; ++j) log_index[keys[j].pos] = 0;  // kept
  added.reserve(m);
  for (std::size_t i = 0; i < serials.size(); ++i) {
    if (log_index[i] == kSkipped) continue;
    const std::size_t idx = n + added.size();
    log_index[i] = static_cast<std::uint32_t>(idx);
    added.push_back(Entry{serials[i], idx + 1});
  }

  auto& log = log_.mut();
  for (const Entry& e : added) log.push_back(make_record(e.serial));

  // Splice the survivors into the index from the back: survivor j lands at
  // at_j + j, and each old block moves once, by the number of survivors
  // below it. Positions below the first insertion point never move.
  auto& sorted = sorted_.mut();
  sorted.resize(n + m);
  std::uint32_t* s = sorted.data();
  std::size_t end = n;  // old positions [0, end) are still in place
  for (std::size_t j = m; j-- > 0;) {
    const std::size_t at = keys[j].at;
    std::memmove(s + at + j + 1, s + at, (end - at) * sizeof(std::uint32_t));
    s[at + j] = log_index[keys[j].pos];
    end = at;
  }
  rebuild(keys[0].at);
  return added;
}

bool Dictionary::update(const std::vector<cert::SerialNumber>& serials,
                        const crypto::Digest20& expected_root,
                        std::uint64_t expected_n) {
  const std::uint64_t old_size = size();
  insert(serials);
  const bool matches = size() == expected_n && root() == expected_root;
  // An insert that added nothing changed nothing: no rollback, and no arena
  // that a frozen copy shares detaches.
  if (matches || size() == old_size) return matches;

  // Reject and roll back: drop every entry numbered above old_size and
  // rebuild the tree from scratch (the incremental path only grows), which
  // reproduces the pre-update root byte for byte.
  log_.mut().resize(old_size);
  auto& sorted = sorted_.mut();
  sorted.erase(std::remove_if(sorted.begin(), sorted.end(),
                              [&](std::uint32_t idx) {
                                return idx >= old_size;
                              }),
               sorted.end());
  rebuild_all();
  return false;
}

void Dictionary::rebuild_all() { rebuild(0); }

void Dictionary::compute_layout(std::size_t n) {
  std::size_t cap = 1;
  while (cap < n) cap <<= 1;
  leaf_cap_ = cap;
  std::size_t levels = 1;
  for (std::size_t c = cap; c > 1; c >>= 1) ++levels;
  level_off_.resize(levels);
  level_size_.assign(levels, 0);
  std::size_t off = 0;
  for (std::size_t l = 0; l < levels; ++l) {
    level_off_[l] = off;
    off += cap >> l;
  }
  level_count_ = levels;
}

void Dictionary::hash_leaves(crypto::Digest20* arena, std::size_t lo,
                             std::size_t n) {
  constexpr std::size_t kChunk = 64;
  std::uint8_t enc[kChunk][kLeafPreimageMax];
  ByteSpan spans[kChunk];
  for (std::size_t base = lo; base < n; base += kChunk) {
    const std::size_t m = std::min(kChunk, n - base);
    for (std::size_t j = 0; j < m; ++j) {
      if (base + j + kPrefetchAhead < n) {
        __builtin_prefetch(&log_[sorted_[base + j + kPrefetchAhead]]);
      }
      const std::uint32_t idx = sorted_[base + j];
      spans[j] = ByteSpan(
          enc[j], encode_leaf_preimage(serial_at(idx), idx + 1, enc[j]));
    }
    crypto::hash20_batch(std::span<const ByteSpan>(spans, m),
                         arena + level_off_[0] + base);
    last_rebuild_hashes_ += m;
  }
}

void Dictionary::hash_inner(crypto::Digest20* arena, std::size_t level,
                            std::size_t lo, std::size_t next_size,
                            std::size_t size) {
  // Dirty parents [lo, next_size) at `level + 1` from children at `level`
  // (which holds `size` nodes), fed through the batch entry point in 64-node
  // chunks so the ancestor spine keeps the multi-lane engine saturated, not
  // just the leaves. Only the last parent can lack a right child (when
  // `size` is odd); it is promoted unchanged, outside the batch.
  std::size_t paired_end = next_size;
  if (size % 2 != 0) --paired_end;

  const crypto::Digest20* child = arena + level_off_[level];
  crypto::Digest20* parent = arena + level_off_[level + 1];
  constexpr std::size_t kChunk = 64;
  std::uint8_t enc[kChunk][kNodePreimageSize];
  ByteSpan spans[kChunk];
  for (std::size_t base = lo; base < paired_end; base += kChunk) {
    const std::size_t m = std::min(kChunk, paired_end - base);
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t i = base + j;
      encode_node_preimage(child[2 * i], child[2 * i + 1], enc[j]);
      spans[j] = ByteSpan(enc[j], kNodePreimageSize);
    }
    // Parents are contiguous in the arena, so the batch writes them in
    // place — no copy-out staging.
    crypto::hash20_batch(std::span<const ByteSpan>(spans, m), parent + base);
    last_rebuild_hashes_ += m;
  }
  if (paired_end < next_size && lo <= paired_end) {
    parent[paired_end] = child[2 * paired_end];
  }
}

void Dictionary::rebuild(std::size_t lo) {
  const std::size_t n = sorted_.size();
  last_rebuild_hashes_ = 0;
  if (n == 0) {  // an empty tree needs no nodes
    tree_.clear();
    level_off_.clear();
    level_size_.clear();
    level_count_ = 0;
    leaf_cap_ = 0;
    return;
  }

  // Incremental is possible only while growing within the current arena;
  // otherwise lay out a fresh arena and rehash everything.
  if (lo == 0 || n > leaf_cap_) {
    compute_layout(n);
    tree_.mut().resize(2 * leaf_cap_ - 1);
    lo = 0;
  }

  // One writable pointer for the whole rebuild: the first mutation after a
  // freeze or an mmap adoption pays for the arena clone here, once.
  crypto::Digest20* arena = tree_.mut().data();

  hash_leaves(arena, lo, n);
  level_size_[0] = n;

  std::size_t size = n;
  std::size_t level = 0;
  while (size > 1) {
    const std::size_t next_size = (size + 1) / 2;
    const std::size_t next_lo = lo >> 1;
    hash_inner(arena, level, next_lo, next_size, size);
    level_size_[level + 1] = next_size;
    size = next_size;
    lo = next_lo;
    ++level;
  }
  level_count_ = level + 1;
  total_hashes_ += last_rebuild_hashes_;
}

LeafProof Dictionary::make_leaf_proof(std::size_t sorted_pos) const {
  LeafProof p;
  p.entry = entry_at(sorted_[sorted_pos]);
  p.index = sorted_pos;
  p.path.reserve(level_count_ > 0 ? level_count_ - 1 : 0);
  std::size_t pos = sorted_pos;
  for (std::size_t lvl = 0; lvl + 1 < level_count_; ++lvl) {
    const std::size_t sibling = pos ^ 1;
    if (sibling < level_size_[lvl]) p.path.push_back(node(lvl, sibling));
    pos >>= 1;
  }
  return p;
}

Proof Dictionary::prove(const cert::SerialNumber& serial) const {
  Proof proof;
  if (log_.empty()) {
    proof.type = Proof::Type::absence;
    return proof;
  }
  const ByteSpan key(serial.value);
  const std::size_t pos = lower_bound(key, 0, sorted_.size());
  if (pos < sorted_.size() && compare(serial_at(sorted_[pos]), key) == 0) {
    proof.type = Proof::Type::presence;
    proof.leaf = make_leaf_proof(pos);
    return proof;
  }
  proof.type = Proof::Type::absence;
  if (pos > 0) proof.left = make_leaf_proof(pos - 1);
  if (pos < sorted_.size()) proof.right = make_leaf_proof(pos);
  return proof;
}

std::vector<Entry> Dictionary::entries_from(std::uint64_t first_number) const {
  std::vector<Entry> out;
  if (first_number == 0) first_number = 1;
  if (first_number > log_.size()) return out;
  out.reserve(log_.size() - (first_number - 1));
  for (std::size_t i = first_number - 1; i < log_.size(); ++i) {
    out.push_back(entry_at(i));
  }
  return out;
}

// Snapshot wire format v2 (big-endian, length-prefixed):
//   u8  version
//   u64 n
//   n x (u8 serial_len, serial)      -- the log in numbering order; entry
//                                       numbers are the implied positions
//                                       1..n (insert()'s invariant)
//   n x u32                          -- the sorted-by-serial index
//   20B root                         -- recorded root, checked on restore
constexpr std::uint8_t kSnapshotVersion = 2;

void Dictionary::snapshot_into(ByteWriter& w) const {
  w.u8(kSnapshotVersion);
  w.u64(log_.size());
  for (std::size_t i = 0; i < log_.size(); ++i) w.var8(serial_at(i));
  for (const std::uint32_t idx : sorted_) w.u32(idx);
  w.raw(ByteSpan(root()));
}

void Dictionary::restore_from(ByteReader& r) {
  const auto bad = [](const char* what) -> std::runtime_error {
    return std::runtime_error(std::string("Dictionary::restore_from: ") +
                              what);
  };
  if (r.try_u8().value_or(0xFF) != kSnapshotVersion) {
    throw bad("unsupported snapshot version");
  }
  const auto n64 = r.try_u64();
  if (!n64) throw bad("truncated header");
  // Each entry costs at least 6 bytes (length byte, one serial byte, 4
  // index bytes), so the remaining input bounds n — rejects forged counts
  // before allocating.
  if (*n64 > r.remaining() / 6) throw bad("entry count exceeds input");
  const std::size_t n = static_cast<std::size_t>(*n64);

  std::vector<LogRecord> log(n);
  for (LogRecord& rec : log) {
    const auto serial = cert::read_serial(r);
    if (!serial) throw bad("bad serial");
    rec.len = static_cast<std::uint8_t>(serial->size());
    std::memcpy(rec.bytes, serial->data(), serial->size());
  }
  std::vector<std::uint32_t> sorted(n);
  for (std::uint32_t& idx : sorted) {
    const auto v = r.try_u32();
    if (!v || *v >= n) throw bad("bad sorted index");
    idx = *v;
  }
  if (!strictly_increasing(log.data(), sorted.data(), n)) {
    throw bad("sorted index out of order");
  }
  const auto root_bytes = r.try_raw(20);
  if (!root_bytes) throw bad("truncated root");
  crypto::Digest20 recorded{};
  std::copy(root_bytes->begin(), root_bytes->end(), recorded.begin());

  // Stage into a scratch instance and pay for exactly one full rebuild; the
  // recomputed root must reproduce the recorded one or the snapshot does not
  // describe a state this code ever produced. *this is only replaced on
  // success, so a failed restore leaves the dictionary untouched.
  Dictionary fresh;
  fresh.log_.mut() = std::move(log);
  fresh.sorted_.mut() = std::move(sorted);
  fresh.rebuild_all();
  if (fresh.root() != recorded) throw bad("recorded root mismatch");
  *this = std::move(fresh);
}

DictSections Dictionary::snapshot_sections() const {
  DictSections s;
  s.root = root();
  s.n = log_.size();
  if (s.n == 0) return s;
  s.log = ByteSpan(reinterpret_cast<const std::uint8_t*>(log_.data()),
                   log_.size() * sizeof(LogRecord));
  s.sorted = ByteSpan(reinterpret_cast<const std::uint8_t*>(sorted_.data()),
                      sorted_.size() * sizeof(std::uint32_t));
  s.tree = ByteSpan(reinterpret_cast<const std::uint8_t*>(tree_.data()),
                    tree_.size() * sizeof(crypto::Digest20));
  return s;
}

void Dictionary::restore_sections(const DictSections& s,
                                  std::shared_ptr<const void> keepalive) {
  const auto bad = [](const char* what) -> std::runtime_error {
    return std::runtime_error(std::string("Dictionary::restore_sections: ") +
                              what);
  };
  const std::size_t n = static_cast<std::size_t>(s.n);
  Dictionary fresh;
  if (n == 0) {
    if (!s.log.empty() || !s.sorted.empty() || !s.tree.empty()) {
      throw bad("nonempty sections for empty dictionary");
    }
    if (s.root != empty_root()) throw bad("recorded root mismatch");
    *this = std::move(fresh);
    return;
  }
  if (s.log.size() != n * sizeof(LogRecord)) throw bad("log section size");
  if (s.sorted.size() != n * sizeof(std::uint32_t)) {
    throw bad("sorted section size");
  }
  fresh.compute_layout(n);
  const std::size_t tree_nodes = 2 * fresh.leaf_cap_ - 1;
  if (s.tree.size() != tree_nodes * sizeof(crypto::Digest20)) {
    throw bad("tree section size");
  }
  // O(n) validation, no hashing: record lengths and index bounds keep every
  // later access in range, and the order check keeps prove() answering from
  // a sorted index.
  const auto* log = reinterpret_cast<const LogRecord*>(s.log.data());
  for (std::size_t i = 0; i < n; ++i) {
    if (log[i].len == 0 || log[i].len > cert::kMaxSerialBytes) {
      throw bad("bad serial length");
    }
  }
  const auto* sorted = reinterpret_cast<const std::uint32_t*>(s.sorted.data());
  for (std::size_t i = 0; i < n; ++i) {
    if (sorted[i] >= n) throw bad("sorted index out of range");
  }
  if (!strictly_increasing(log, sorted, n)) {
    throw bad("sorted index out of order");
  }
  const auto* tree = reinterpret_cast<const crypto::Digest20*>(s.tree.data());
  if (tree[fresh.level_off_[fresh.level_count_ - 1]] != s.root) {
    throw bad("recorded root mismatch");
  }
  std::size_t sz = n;
  for (std::size_t l = 0; l < fresh.level_count_; ++l) {
    fresh.level_size_[l] = sz;
    sz = (sz + 1) / 2;
  }
  fresh.log_.adopt(log, n, keepalive);
  fresh.sorted_.adopt(sorted, n, keepalive);
  fresh.tree_.adopt(tree, tree_nodes, std::move(keepalive));
  *this = std::move(fresh);
}

std::size_t Dictionary::storage_bytes() const noexcept {
  // Persisted form: per entry, 1 length byte + serial bytes + 8-byte number.
  std::size_t total = 0;
  for (const LogRecord& rec : log_) total += 1 + rec.len + 8;
  return total;
}

std::size_t Dictionary::memory_bytes() const noexcept {
  return log_.memory_bytes() + sorted_.memory_bytes() + tree_.memory_bytes() +
         (level_off_.capacity() + level_size_.capacity()) *
             sizeof(std::size_t);
}

}  // namespace ritm::dict
