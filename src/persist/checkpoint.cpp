#include "persist/checkpoint.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/io.hpp"

namespace ritm::persist {

namespace {

constexpr std::string_view kManifestMagic = "RITMSNAP";
constexpr std::uint32_t kManifestVersion = 2;
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

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("persist: " + what + ": " + std::strerror(errno));
}

std::string manifest_name(std::uint64_t seq) {
  // Zero-padded hex so lexicographic name order equals seq order.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "snap-%016" PRIx64 ".snap", seq);
  return buf;
}

/// Parses "snap-<16 hex>.snap"; nullopt for anything else (.tmp leftovers,
/// the WAL, part files, foreign files).
std::optional<std::uint64_t> parse_manifest_name(const std::string& name) {
  if (name.size() != 26 || name.rfind("snap-", 0) != 0 ||
      name.compare(21, 5, ".snap") != 0) {
    return std::nullopt;
  }
  std::uint64_t seq = 0;
  for (std::size_t i = 5; i < 21; ++i) {
    const char c = name[i];
    std::uint64_t digit;
    if (c >= '0' && c <= '9') digit = std::uint64_t(c - '0');
    else if (c >= 'a' && c <= 'f') digit = std::uint64_t(c - 'a' + 10);
    else return std::nullopt;
    seq = (seq << 4) | digit;
  }
  return seq;
}

bool is_part_name(const std::string& name) {
  return name.starts_with("dict-") && name.ends_with(".part");
}

void write_fd_full(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      fail("write tmp");
    }
    data += static_cast<std::size_t>(n);
    len -= static_cast<std::size_t>(n);
  }
}

/// fsyncs `dir`, making every rename committed into it durable.
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail("open dir for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) fail("fsync dir");
}

/// Commits <dir>/<name> by the protocol in the header: the stamp (`magic`,
/// exactly 8 bytes, then `version` and `stamp` big-endian) and a container
/// of `sections`, streamed straight to the tmp fd (no whole-file staging).
/// `sync_dir` fsyncs the directory after the rename. Returns the file's
/// size in bytes.
std::uint64_t commit_file(const std::string& dir, const std::string& name,
                          std::string_view magic, std::uint32_t version,
                          std::uint64_t stamp,
                          const std::vector<SectionSpec>& sections,
                          bool sync_dir) {
  std::uint8_t header[kFileHeaderSize] = {};
  std::memcpy(header, magic.data(), 8);
  ByteWriter w;
  w.u32(version);
  w.u64(stamp);
  std::memcpy(header + 8, w.bytes().data(), w.bytes().size());

  const std::string final_path = dir + "/" + name;
  const std::string tmp_path = final_path + ".tmp";
  const int fd =
      ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail("open tmp");
  write_fd_full(fd, header, sizeof(header));
  std::uint64_t total = sizeof(header);
  try {
    total += write_container(fd, sections);
  } catch (const std::exception&) {
    ::close(fd);
    fail("write container");
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    fail("fsync tmp");
  }
  if (::close(fd) != 0) fail("close tmp");
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) fail("rename");
  if (sync_dir) fsync_dir(dir);
  return total;
}

/// A file image's stamp and validated sections.
struct StampedSections {
  std::uint64_t stamp = 0;
  std::vector<SectionView> sections;
};

/// Validates a file image (`data` aligned as an mmap or heap buffer is):
/// magic, version, and the whole container (parse_container). The sections
/// alias `data`.
std::optional<StampedSections> parse_file(ByteSpan data,
                                          std::string_view magic,
                                          std::uint32_t version) {
  if (data.size() < kFileHeaderSize ||
      std::memcmp(data.data(), magic.data(), 8) != 0) {
    return std::nullopt;
  }
  ByteReader r{data.subspan(8)};
  if (r.u32() != version) return std::nullopt;
  StampedSections out;
  out.stamp = r.u64();
  auto sections = parse_container(data.subspan(kFileHeaderSize));
  if (!sections) return std::nullopt;
  out.sections = std::move(*sections);
  return out;
}

const SectionView* find_section(const std::vector<SectionView>& sections,
                                std::uint32_t tag) {
  for (const SectionView& s : sections) {
    if (s.tag == tag) return &s;
  }
  return nullptr;
}

/// A validated manifest mapped into memory; `sections` alias `file`.
struct MappedManifest {
  std::shared_ptr<const MappedFile> file;
  std::vector<SectionView> sections;
};

std::optional<MappedManifest> map_manifest(const std::string& dir,
                                           std::uint64_t seq) {
  auto file = MappedFile::map(dir + "/" + manifest_name(seq));
  if (!file) return std::nullopt;
  auto parsed = parse_file(file->span(), kManifestMagic, kManifestVersion);
  if (!parsed || parsed->stamp != seq) return std::nullopt;
  return MappedManifest{std::move(file), std::move(parsed->sections)};
}

/// The part list of a mapped manifest; nullopt when it has none or it does
/// not decode.
std::optional<std::vector<PartKey>> part_list_of(
    const MappedManifest& manifest) {
  const SectionView* list = find_section(manifest.sections, kManifestParts);
  if (list == nullptr) return std::nullopt;
  return decode_part_list(list->data);
}

/// The checkpoint files in `dir`: manifest stamps newest first, and part
/// file names.
struct Listing {
  std::vector<std::uint64_t> manifests;
  std::vector<std::string> parts;
};

Listing list_dir(const std::string& dir) {
  Listing out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (const auto seq = parse_manifest_name(name)) {
      out.manifests.push_back(*seq);
    } else if (is_part_name(name)) {
      out.parts.push_back(std::move(name));
    }
  }
  std::sort(out.manifests.begin(), out.manifests.end(), std::greater<>());
  return out;
}

/// The retention pass: deletes every manifest but the two newest, and every
/// part neither of them lists. When either one's part list cannot be read,
/// no part is deleted: a part it lists might go. Best-effort otherwise: a
/// stale file is harmless and the next write retries.
void retain(const std::string& dir) {
  const Listing listing = list_dir(dir);
  std::vector<std::string> stale;
  for (std::size_t i = 2; i < listing.manifests.size(); ++i) {
    stale.push_back(manifest_name(listing.manifests[i]));
  }
  std::set<std::string> keep;
  bool lists_read = true;
  for (std::size_t i = 0; i < listing.manifests.size() && i < 2; ++i) {
    const auto manifest = map_manifest(dir, listing.manifests[i]);
    const auto keys = manifest ? part_list_of(*manifest) : std::nullopt;
    if (!keys) {
      lists_read = false;
      break;
    }
    for (const PartKey& key : *keys) keep.insert(part_name(key));
  }
  if (lists_read) {
    for (const std::string& part : listing.parts) {
      if (!keep.contains(part)) stale.push_back(part);
    }
  }
  for (const std::string& name : stale) {
    std::error_code ec;
    std::filesystem::remove(dir + "/" + name, ec);
  }
}

}  // namespace

std::shared_ptr<const MappedFile> MappedFile::map(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return nullptr;
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return nullptr;
  }
  const auto len = static_cast<std::size_t>(st.st_size);
  void* base = nullptr;
  if (len > 0) {
    base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base == MAP_FAILED) {
      ::close(fd);
      return nullptr;
    }
  }
  ::close(fd);  // the mapping outlives the descriptor
  return std::shared_ptr<const MappedFile>(new MappedFile(base, len));
}

MappedFile::~MappedFile() {
  if (base_ != nullptr) ::munmap(base_, len_);
}

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
  out.bytes += commit_file(dir, manifest_name(seq), kManifestMagic,
                           kManifestVersion, seq,
                           {{kManifestMeta, meta},
                            {kManifestParts, ByteSpan(list)}},
                           /*sync_dir=*/true);
  retain(dir);
  return out;
}

std::vector<std::uint64_t> manifest_seqs(const std::string& dir) {
  return list_dir(dir).manifests;
}

std::optional<Checkpoint> load_checkpoint(const std::string& dir,
                                          std::uint64_t seq) {
  auto manifest = map_manifest(dir, seq);
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

Recovered recover(const std::string& dir,
                     const std::function<bool(const Checkpoint&)>& install) {
  Recovered result;
  const auto seqs = manifest_seqs(dir);
  for (const std::uint64_t seq : seqs) {
    const auto checkpoint = load_checkpoint(dir, seq);
    if (checkpoint && install(*checkpoint)) {
      result.checkpoint_seq = seq;
      break;
    }
    ++result.snapshots_skipped;
  }
  if (!seqs.empty() && !result.checkpoint_seq) {
    // Starting empty would drop every mutation the WAL reset discarded.
    throw std::runtime_error("persist::recover: none of " +
                             std::to_string(seqs.size()) +
                             " checkpoints restores");
  }
  const std::uint64_t checkpoint_seq = result.checkpoint_seq.value_or(0);

  WalScan scan = WriteAheadLog::scan_file(wal_path(dir));
  result.wal_truncated_bytes = scan.truncated_bytes;
  // Records already covered by the checkpoint are dropped; the rest replay
  // on top of it. (A checkpoint stamped past the whole log — e.g. the crash
  // hit between the manifest commit and the WAL reset — yields an empty
  // tail.)
  result.tail.reserve(scan.records.size());
  for (auto& rec : scan.records) {
    if (rec.seq > checkpoint_seq) result.tail.push_back(std::move(rec));
  }
  return result;
}

}  // namespace ritm::persist
