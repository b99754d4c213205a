#include "persist/snapshot.hpp"

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
#include <stdexcept>
#include <vector>

#include "common/io.hpp"

namespace ritm::persist {

namespace {

constexpr std::string_view kMagic = "RITMSNAP";
constexpr std::uint32_t kVersion = 2;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("persist: " + what + ": " + std::strerror(errno));
}

std::string snapshot_name(std::uint64_t seq) {
  // Zero-padded hex so lexicographic name order equals seq order.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "snap-%016" PRIx64 ".snap", seq);
  return buf;
}

/// Parses "snap-<16 hex>.snap"; nullopt for anything else (.tmp leftovers,
/// the WAL, part files, foreign files).
std::optional<std::uint64_t> parse_snapshot_name(const std::string& name) {
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

/// Retention: drop everything older than the newest `keep` snapshots. The
/// just-committed file is newest, so at least it always survives.
void retain_newest(const std::string& dir, std::size_t keep) {
  const auto seqs = SnapshotFile::seqs_newest_first(dir);
  for (std::size_t i = std::max<std::size_t>(keep, 1); i < seqs.size(); ++i) {
    std::error_code ec;  // best-effort cleanup; stale files are harmless
    std::filesystem::remove(dir + "/" + snapshot_name(seqs[i]), ec);
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

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail("open dir for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) fail("fsync dir");
}

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

std::uint64_t SnapshotFile::write_v2(const std::string& dir, std::uint64_t seq,
                                     const std::vector<SectionSpec>& sections,
                                     std::size_t keep) {
  std::filesystem::create_directories(dir);
  const std::uint64_t total = commit_file(dir, snapshot_name(seq), kMagic,
                                          kVersion, seq, sections, true);
  retain_newest(dir, keep);
  return total;
}

std::vector<std::uint64_t> SnapshotFile::seqs_newest_first(
    const std::string& dir) {
  std::vector<std::uint64_t> seqs;
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return seqs;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (const auto s = parse_snapshot_name(entry.path().filename().string())) {
      seqs.push_back(*s);
    }
  }
  std::sort(seqs.begin(), seqs.end(), std::greater<>());
  return seqs;
}

std::optional<SnapshotFile::Mapped> SnapshotFile::map(const std::string& dir,
                                                      std::uint64_t seq) {
  const auto file = MappedFile::map(dir + "/" + snapshot_name(seq));
  if (!file) return std::nullopt;
  auto parsed = parse_file(file->span(), kMagic, kVersion);
  if (!parsed || parsed->stamp != seq) return std::nullopt;
  return Mapped{seq, file, std::move(parsed->sections)};
}

}  // namespace ritm::persist
