#include "persist/shard_checkpoint.hpp"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <set>
#include <utility>

#include "common/io.hpp"

namespace ritm::persist {

namespace {

constexpr std::string_view kPartMagic = "RITMPART";
constexpr std::uint32_t kPartVersion = 1;

// Section tags inside a part's container.
constexpr std::uint32_t kPartMeta = 1;
constexpr std::uint32_t kPartLog = 2;
constexpr std::uint32_t kPartSorted = 3;
constexpr std::uint32_t kPartTree = 4;

// Section tags inside a manifest.
constexpr std::uint32_t kManifestMeta = 1;
constexpr std::uint32_t kManifestParts = 2;

constexpr std::size_t kPartKeySize = 20 + 8;

const SectionView* find_section(const std::vector<SectionView>& sections,
                                std::uint32_t tag) {
  for (const SectionView& s : sections) {
    if (s.tag == tag) return &s;
  }
  return nullptr;
}

/// The part list of a mapped manifest; nullopt when it has none or it does
/// not decode.
std::optional<std::vector<PartKey>> part_list_of(
    const SnapshotFile::Mapped& manifest) {
  const SectionView* list = find_section(manifest.sections, kManifestParts);
  if (list == nullptr) return std::nullopt;
  return decode_part_list(list->data);
}

/// Deletes every part file that neither of the two newest manifests lists.
/// When either cannot be read, nothing is deleted: a part it lists might
/// go. Best-effort otherwise: a stale file is harmless and the next cycle
/// retries.
void retain_parts(const std::string& dir) {
  std::set<std::string> keep;
  const auto seqs = SnapshotFile::seqs_newest_first(dir);
  for (std::size_t i = 0; i < seqs.size() && i < 2; ++i) {
    const auto manifest = SnapshotFile::map(dir, seqs[i]);
    const auto keys = manifest ? part_list_of(*manifest) : std::nullopt;
    if (!keys) return;
    for (const PartKey& key : *keys) keep.insert(part_name(key));
  }
  std::vector<std::filesystem::path> stale;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("dict-") && name.ends_with(".part") &&
        !keep.contains(name)) {
      stale.push_back(entry.path());
    }
  }
  for (const auto& path : stale) {
    std::error_code rm_ec;
    std::filesystem::remove(path, rm_ec);
  }
}

}  // namespace

std::string part_name(const PartKey& key) {
  char n_hex[17];
  std::snprintf(n_hex, sizeof(n_hex), "%016" PRIx64, key.n);
  return "dict-" + to_hex(ByteSpan(key.root)) + "-" + n_hex + ".part";
}

Bytes encode_part_list(std::vector<PartKey> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  Bytes out;
  ByteWriter w(out);
  w.u32(static_cast<std::uint32_t>(keys.size()));
  for (const PartKey& key : keys) {
    w.raw(ByteSpan(key.root));
    w.u64(key.n);
  }
  return out;
}

std::optional<std::vector<PartKey>> decode_part_list(ByteSpan data) {
  ByteReader r{data};
  const auto count = r.try_u32();
  // The count is bounded by the input before anything is reserved.
  if (!count || *count != r.remaining() / kPartKeySize ||
      r.remaining() % kPartKeySize != 0) {
    return std::nullopt;
  }
  std::vector<PartKey> keys(*count);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto root = r.try_raw(20);
    const auto n = r.try_u64();
    if (!root || !n) return std::nullopt;
    std::copy(root->begin(), root->end(), keys[i].root.begin());
    keys[i].n = *n;
    if (i > 0 && !(keys[i - 1] < keys[i])) return std::nullopt;
  }
  return keys;
}

std::optional<dict::DictSections> decode_part(ByteSpan data) {
  const auto parsed = parse_file(data, kPartMagic, kPartVersion);
  if (!parsed) return std::nullopt;
  const SectionView* meta = find_section(parsed->sections, kPartMeta);
  const SectionView* log = find_section(parsed->sections, kPartLog);
  const SectionView* sorted = find_section(parsed->sections, kPartSorted);
  const SectionView* tree = find_section(parsed->sections, kPartTree);
  if (meta == nullptr || log == nullptr || sorted == nullptr ||
      tree == nullptr) {
    return std::nullopt;
  }
  ByteReader r{meta->data};
  const auto n = r.try_u64();
  const auto root = r.try_raw(20);
  if (!n || *n != parsed->stamp || !root || !r.done()) return std::nullopt;
  dict::DictSections sec;
  sec.n = *n;
  std::copy(root->begin(), root->end(), sec.root.begin());
  sec.log = log->data;
  sec.sorted = sorted->data;
  sec.tree = tree->data;
  return sec;
}

CheckpointWrite write_checkpoint(const std::string& dir, std::uint64_t seq,
                                 ByteSpan meta,
                                 const std::vector<dict::DictSections>& dicts) {
  std::filesystem::create_directories(dir);
  CheckpointWrite out;
  std::vector<PartKey> keys;
  keys.reserve(dicts.size());
  for (const dict::DictSections& d : dicts) {
    const PartKey key{d.root, d.n};
    keys.push_back(key);
    const std::string name = part_name(key);
    if (::access((dir + "/" + name).c_str(), F_OK) == 0) {
      ++out.parts_reused;
      continue;
    }
    Bytes part_meta;
    ByteWriter w(part_meta);
    w.u64(d.n);
    w.raw(ByteSpan(d.root));
    out.bytes += commit_file(dir, name, kPartMagic, kPartVersion, d.n,
                             {{kPartMeta, ByteSpan(part_meta)},
                              {kPartLog, d.log},
                              {kPartSorted, d.sorted},
                              {kPartTree, d.tree}},
                             /*sync_dir=*/false);
    ++out.parts_written;
  }
  // Every part the manifest lists must be durable before the manifest is.
  fsync_dir(dir);
  const Bytes list = encode_part_list(std::move(keys));
  out.bytes += SnapshotFile::write_v2(
      dir, seq, {{kManifestMeta, meta}, {kManifestParts, ByteSpan(list)}});
  retain_parts(dir);
  return out;
}

std::optional<Checkpoint> load_checkpoint(const std::string& dir,
                                          std::uint64_t seq) {
  auto manifest = SnapshotFile::map(dir, seq);
  if (!manifest) return std::nullopt;
  const SectionView* meta = find_section(manifest->sections, kManifestMeta);
  const auto keys = part_list_of(*manifest);
  if (meta == nullptr || !keys) return std::nullopt;
  Checkpoint out;
  out.seq = seq;
  out.meta = meta->data;
  out.manifest = std::move(manifest->file);
  for (const PartKey& key : *keys) {
    auto file = MappedFile::map(dir + "/" + part_name(key));
    if (!file) return std::nullopt;
    const auto sections = decode_part(file->span());
    if (!sections || sections->n != key.n || sections->root != key.root) {
      return std::nullopt;
    }
    out.parts.emplace(key, Checkpoint::Part{*sections, std::move(file)});
  }
  return out;
}

}  // namespace ritm::persist
