#include "crypto/sha256.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "crypto/cpu_features.hpp"
#include "crypto/sha256_engine.hpp"

namespace ritm::crypto {

namespace detail {

const std::uint32_t kSha256InitState[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

const std::uint32_t kSha256RoundK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

namespace {

inline std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

void sha256_compress_scalar(std::uint32_t state[8],
                            const std::uint8_t* block) noexcept {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = std::uint32_t(block[4 * i]) << 24 |
           std::uint32_t(block[4 * i + 1]) << 16 |
           std::uint32_t(block[4 * i + 2]) << 8 |
           std::uint32_t(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kSha256RoundK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

std::size_t sha256_pad_short(const std::uint8_t* data, std::size_t len,
                             std::uint8_t block[128]) noexcept {
  const std::size_t total = len < 56 ? 64 : 128;
  if (len != 0) std::memcpy(block, data, len);  // data may be null when empty
  block[len] = 0x80;
  std::memset(block + len + 1, 0, total - len - 1 - 8);
  const std::uint64_t bits = std::uint64_t(len) * 8;
  for (int i = 0; i < 8; ++i) {
    block[total - 8 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  }
  return total;
}

}  // namespace detail

namespace {

inline void store_state(const std::uint32_t state[8], std::uint8_t* out,
                        std::size_t words) noexcept {
  for (std::size_t i = 0; i < words; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
}

/// One-shot state of a pre-length-checked short message through the active
/// engine's compression function: pad on the stack, run 1 (len <= 55) or
/// 2 (len <= 119) compressions.
inline void sha256_short_state(const std::uint8_t* data, std::size_t len,
                               std::uint32_t state[8]) noexcept {
  std::uint8_t block[128];
  const std::size_t total = detail::sha256_pad_short(data, len, block);
  std::memcpy(state, detail::kSha256InitState, sizeof(detail::kSha256InitState));
  const auto compress = sha256_engine().compress;
  compress(state, block);
  if (total == 128) compress(state, block + 64);
}

inline Digest20 hash20_short(const std::uint8_t* data,
                             std::size_t len) noexcept {
  std::uint32_t state[8];
  sha256_short_state(data, len, state);
  Digest20 out;
  store_state(state, out.data(), 5);
  return out;
}

// ----------------------------------------------------------- engine table

const Sha256Engine kScalarEngine{Sha256Backend::scalar, "scalar",
                                 &detail::sha256_compress_scalar,
                                 &detail::hash20_batch_scalar};
#if RITM_SHA256_X86_SIMD
// The AVX2 backend only wins on batches; its one-shot path stays scalar.
const Sha256Engine kAvx2Engine{Sha256Backend::avx2, "avx2",
                               &detail::sha256_compress_scalar,
                               &detail::hash20_batch_avx2};
const Sha256Engine kShaniEngine{Sha256Backend::shani, "sha-ni",
                                &detail::sha256_compress_shani,
                                &detail::hash20_batch_shani};
#endif

/// Engine for a backend, or nullptr when not compiled in / not supported by
/// this CPU.
const Sha256Engine* engine_for(Sha256Backend b) noexcept {
  switch (b) {
    case Sha256Backend::scalar:
      return &kScalarEngine;
#if RITM_SHA256_X86_SIMD
    case Sha256Backend::avx2:
      if (cpu_features().avx2 && cpu_features().ssse3) return &kAvx2Engine;
      return nullptr;
    case Sha256Backend::shani:
      if (cpu_features().sha_ni && cpu_features().sse41) return &kShaniEngine;
      return nullptr;
#else
    case Sha256Backend::avx2:
    case Sha256Backend::shani:
      return nullptr;
#endif
  }
  return nullptr;
}

const Sha256Engine* detect_engine() noexcept {
  if (const char* env = std::getenv("RITM_SHA256_BACKEND")) {
    Sha256Backend want = Sha256Backend::scalar;
    bool known = true;
    if (std::strcmp(env, "scalar") == 0) {
      want = Sha256Backend::scalar;
    } else if (std::strcmp(env, "avx2") == 0) {
      want = Sha256Backend::avx2;
    } else if (std::strcmp(env, "shani") == 0 ||
               std::strcmp(env, "sha-ni") == 0) {
      want = Sha256Backend::shani;
    } else {
      known = false;  // unknown name: fall through to auto-detection
    }
    if (known) {
      if (const Sha256Engine* e = engine_for(want)) return e;
    }
  }
#if RITM_SHA256_X86_SIMD
  // SHA-NI beats AVX2 on both the one-shot and the batch path, so it wins
  // when both are present; bench_throughput reports each backend's ns/hash.
  if (const Sha256Engine* e = engine_for(Sha256Backend::shani)) return e;
  if (const Sha256Engine* e = engine_for(Sha256Backend::avx2)) return e;
#endif
  return &kScalarEngine;
}

// Detection is deterministic, so the benign first-use race (two threads both
// running detect_engine) stores the same pointer either way.
std::atomic<const Sha256Engine*> g_engine{nullptr};

}  // namespace

const Sha256Engine& sha256_engine() noexcept {
  const Sha256Engine* e = g_engine.load(std::memory_order_acquire);
  if (e == nullptr) {
    e = detect_engine();
    g_engine.store(e, std::memory_order_release);
  }
  return *e;
}

std::vector<Sha256Backend> sha256_available_backends() {
  std::vector<Sha256Backend> out{Sha256Backend::scalar};
  if (engine_for(Sha256Backend::avx2)) out.push_back(Sha256Backend::avx2);
  if (engine_for(Sha256Backend::shani)) out.push_back(Sha256Backend::shani);
  return out;
}

bool sha256_select_backend(Sha256Backend b) noexcept {
  const Sha256Engine* e = engine_for(b);
  if (e == nullptr) return false;
  g_engine.store(e, std::memory_order_release);
  return true;
}

void sha256_reset_backend() noexcept {
  g_engine.store(detect_engine(), std::memory_order_release);
}

const char* sha256_backend_name(Sha256Backend b) noexcept {
  switch (b) {
    case Sha256Backend::scalar:
      return "scalar";
    case Sha256Backend::avx2:
      return "avx2";
    case Sha256Backend::shani:
      return "sha-ni";
  }
  return "?";
}

// ------------------------------------------------------------- public API

namespace detail {

void hash20_batch_scalar(const ByteSpan* inputs, std::size_t n,
                         Digest20* out) noexcept {
  // Portable backend: one-shot per lane, shared by the dispatcher's scalar
  // engine and by SIMD backends as their long-message fallback.
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = hash20(inputs[i]);
  }
}

}  // namespace detail

Sha256::Sha256() noexcept {
  std::memcpy(state_, detail::kSha256InitState, sizeof(state_));
}

void Sha256::compress(const std::uint8_t* block) noexcept {
  sha256_engine().compress(state_, block);
}

void Sha256::update(ByteSpan data) noexcept {
  if (data.empty()) return;  // an empty span may carry a null pointer
  length_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t need = 64 - buf_len_;
    const std::size_t take = data.size() < need ? data.size() : need;
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ == 64) {
      compress(buf_);
      buf_len_ = 0;
    }
  }
  while (off + 64 <= data.size()) {
    compress(data.data() + off);
    off += 64;
  }
  if (off < data.size()) {
    std::memcpy(buf_, data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Sha256Digest Sha256::finish() noexcept {
  const std::uint64_t bit_len = length_ * 8;
  const std::uint8_t pad = 0x80;
  update(ByteSpan(&pad, 1));
  const std::uint8_t zero = 0x00;
  while (buf_len_ != 56) update(ByteSpan(&zero, 1));
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(ByteSpan(len_bytes, 8));
  Sha256Digest out;
  store_state(state_, out.data(), 8);
  return out;
}

Sha256Digest Sha256::hash(ByteSpan data) noexcept {
  if (data.size() <= kSha256ShortMax) return sha256_short(data);
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256Digest sha256_short(ByteSpan data) noexcept {
  std::uint32_t state[8];
  sha256_short_state(data.data(), data.size(), state);
  Sha256Digest out;
  store_state(state, out.data(), 8);
  return out;
}

Digest20 hash20(ByteSpan data) noexcept {
  if (data.size() <= kSha256ShortMax) {
    return hash20_short(data.data(), data.size());
  }
  const Sha256Digest full = Sha256::hash(data);
  Digest20 out;
  std::memcpy(out.data(), full.data(), out.size());
  return out;
}

Digest20 rehash20(const Digest20& d) noexcept {
  return hash20_short(d.data(), d.size());
}

void hash20_batch(std::span<const ByteSpan> inputs, Digest20* out) noexcept {
  if (inputs.empty()) return;
  sha256_engine().batch20(inputs.data(), inputs.size(), out);
}

}  // namespace ritm::crypto
