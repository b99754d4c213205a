#include "ra/service.hpp"

#include <stdexcept>

#include "common/io.hpp"

namespace ritm::ra {

namespace {

void write_ca_serial(Bytes& out, const cert::CaId& ca, ByteSpan serial) {
  ByteWriter w(out);
  w.var8(ByteSpan(reinterpret_cast<const std::uint8_t*>(ca.data()),
                  ca.size()));
  w.var8(serial);
}

}  // namespace

Bytes encode_status_query(const cert::CaId& ca,
                          const cert::SerialNumber& serial) {
  Bytes body;
  write_ca_serial(body, ca, ByteSpan(serial.value));
  return body;
}

Bytes encode_status_batch(const cert::CaId& ca,
                          const std::vector<cert::SerialNumber>& serials) {
  Bytes body;
  ByteWriter w(body);
  w.var8(ByteSpan(reinterpret_cast<const std::uint8_t*>(ca.data()),
                  ca.size()));
  w.u32(static_cast<std::uint32_t>(serials.size()));
  for (const auto& s : serials) w.var8(ByteSpan(s.value));
  return body;
}

std::optional<std::vector<Bytes>> decode_status_batch_reply(ByteSpan body) {
  ByteReader r(body);
  const auto count = r.try_u32();
  if (!count) return std::nullopt;
  // A wire-supplied count is hostile input: each element needs at least a
  // var24 length prefix, so any count past remaining/3 cannot decode —
  // reject it before reserve() turns it into a giant allocation.
  if (*count > r.remaining() / 3) return std::nullopt;
  std::vector<Bytes> statuses;
  statuses.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto bytes = r.try_var24();
    if (!bytes) return std::nullopt;
    statuses.push_back(std::move(*bytes));
  }
  if (!r.done()) return std::nullopt;
  return statuses;
}

Bytes encode_gossip_roots(const std::vector<dict::SignedRoot>& roots) {
  Bytes body;
  ByteWriter w(body);
  w.u32(static_cast<std::uint32_t>(roots.size()));
  for (const auto& root : roots) w.var16(ByteSpan(root.encode()));
  return body;
}

Bytes encode_gossip_reply(const GossipReply& reply) {
  Bytes body = encode_gossip_roots(reply.roots);
  ByteWriter w(body);
  w.u32(static_cast<std::uint32_t>(reply.evidence.size()));
  for (const auto& e : reply.evidence) {
    w.var16(ByteSpan(e.ours.encode()));
    w.var16(ByteSpan(e.theirs.encode()));
  }
  return body;
}

std::optional<GossipReply> decode_gossip_reply(ByteSpan body) {
  ByteReader r(body);
  GossipReply reply;
  const auto root_count = r.try_u32();
  if (!root_count) return std::nullopt;
  if (*root_count > r.remaining() / 2) return std::nullopt;  // var16 each
  reply.roots.reserve(*root_count);
  for (std::uint32_t i = 0; i < *root_count; ++i) {
    const auto bytes = r.try_var16();
    if (!bytes) return std::nullopt;
    auto root = dict::SignedRoot::decode(ByteSpan(*bytes));
    if (!root) return std::nullopt;
    reply.roots.push_back(std::move(*root));
  }
  const auto evidence_count = r.try_u32();
  if (!evidence_count) return std::nullopt;
  if (*evidence_count > r.remaining() / 4) return std::nullopt;  // 2x var16
  reply.evidence.reserve(*evidence_count);
  for (std::uint32_t i = 0; i < *evidence_count; ++i) {
    const auto ours = r.try_var16();
    if (!ours) return std::nullopt;
    const auto theirs = r.try_var16();
    if (!theirs) return std::nullopt;
    auto our_root = dict::SignedRoot::decode(ByteSpan(*ours));
    auto their_root = dict::SignedRoot::decode(ByteSpan(*theirs));
    if (!our_root || !their_root) return std::nullopt;
    reply.evidence.push_back({std::move(*our_root), std::move(*their_root)});
  }
  if (!r.done()) return std::nullopt;
  return reply;
}

Bytes encode_gossip_digest(const GossipDigest& digest) {
  Bytes body;
  ByteWriter w(body);
  w.u32(static_cast<std::uint32_t>(digest.runs.size()));
  for (const auto& [ca, runs] : digest.runs) {
    w.var8(ByteSpan(reinterpret_cast<const std::uint8_t*>(ca.data()),
                    ca.size()));
    w.u32(static_cast<std::uint32_t>(runs.size()));
    for (const auto& run : runs) {
      w.u64(run.lo);
      w.u64(run.hi);
      w.raw(ByteSpan(run.hash));
    }
  }
  return body;
}

std::optional<GossipDigest> decode_gossip_digest(ByteSpan body) {
  ByteReader r(body);
  const auto ca_count = r.try_u32();
  if (!ca_count) return std::nullopt;
  // Hostile counts: each CA entry needs >= var8 + u32 = 5 bytes; each run
  // is a fixed 8+8+20 = 36 bytes.
  if (*ca_count > r.remaining() / 5) return std::nullopt;
  GossipDigest digest;
  for (std::uint32_t i = 0; i < *ca_count; ++i) {
    const auto ca_bytes = r.try_var8();
    const auto run_count = r.try_u32();
    if (!ca_bytes || !run_count) return std::nullopt;
    if (*run_count > r.remaining() / 36) return std::nullopt;
    const cert::CaId ca(ca_bytes->begin(), ca_bytes->end());
    auto& runs = digest.runs[ca];
    runs.reserve(*run_count);
    std::uint64_t prev_hi = 0;
    for (std::uint32_t j = 0; j < *run_count; ++j) {
      GossipRun run;
      const auto lo = r.try_u64();
      const auto hi = r.try_u64();
      const auto hash = r.try_raw(run.hash.size());
      if (!lo || !hi || !hash) return std::nullopt;
      run.lo = *lo;
      run.hi = *hi;
      // Runs must be well-formed, ascending, and disjoint — the diff logic
      // binary-searches on lo, so a lying peer doesn't get to confuse it.
      if (run.lo > run.hi) return std::nullopt;
      if (j > 0 && run.lo <= prev_hi) return std::nullopt;
      prev_hi = run.hi;
      std::copy(hash->begin(), hash->end(), run.hash.begin());
      runs.push_back(run);
    }
  }
  if (!r.done()) return std::nullopt;
  return digest;
}

Bytes encode_gossip_pull(const GossipWant& want,
                         const std::vector<dict::SignedRoot>& push) {
  Bytes body;
  ByteWriter w(body);
  w.u32(static_cast<std::uint32_t>(want.ranges.size()));
  for (const auto& [ca, ranges] : want.ranges) {
    w.var8(ByteSpan(reinterpret_cast<const std::uint8_t*>(ca.data()),
                    ca.size()));
    w.u32(static_cast<std::uint32_t>(ranges.size()));
    for (const auto& [lo, hi] : ranges) {
      w.u64(lo);
      w.u64(hi);
    }
  }
  w.u32(static_cast<std::uint32_t>(push.size()));
  for (const auto& root : push) w.var16(ByteSpan(root.encode()));
  return body;
}

std::optional<GossipPullRequest> decode_gossip_pull(ByteSpan body) {
  ByteReader r(body);
  GossipPullRequest pull;
  const auto ca_count = r.try_u32();
  if (!ca_count) return std::nullopt;
  if (*ca_count > r.remaining() / 5) return std::nullopt;
  for (std::uint32_t i = 0; i < *ca_count; ++i) {
    const auto ca_bytes = r.try_var8();
    const auto range_count = r.try_u32();
    if (!ca_bytes || !range_count) return std::nullopt;
    if (*range_count > r.remaining() / 16) return std::nullopt;
    const cert::CaId ca(ca_bytes->begin(), ca_bytes->end());
    auto& ranges = pull.want.ranges[ca];
    ranges.reserve(*range_count);
    for (std::uint32_t j = 0; j < *range_count; ++j) {
      const auto lo = r.try_u64();
      const auto hi = r.try_u64();
      if (!lo || !hi || *lo > *hi) return std::nullopt;
      ranges.emplace_back(*lo, *hi);
    }
  }
  const auto push_count = r.try_u32();
  if (!push_count) return std::nullopt;
  if (*push_count > r.remaining() / 2) return std::nullopt;  // var16 each
  pull.push.reserve(*push_count);
  for (std::uint32_t i = 0; i < *push_count; ++i) {
    const auto bytes = r.try_var16();
    if (!bytes) return std::nullopt;
    auto root = dict::SignedRoot::decode(ByteSpan(*bytes));
    if (!root) return std::nullopt;
    pull.push.push_back(std::move(*root));
  }
  if (!r.done()) return std::nullopt;
  return pull;
}

RaService::RaService(const DictionaryStore* store, GossipPool* gossip)
    : store_(store), gossip_(gossip) {
  if (store_ == nullptr) throw std::invalid_argument("RaService: null store");
}

svc::ServeResult RaService::handle(const svc::Request& req) {
  svc::ServeResult out;
  switch (req.method) {
    case svc::Method::status_query: out.response = status_query(req); break;
    case svc::Method::status_batch: out.response = status_batch(req); break;
    case svc::Method::gossip_digest:
      out.response = gossip_digest(req);
      break;
    case svc::Method::gossip_pull: out.response = gossip_pull(req); break;
    default:
      out.response = svc::reject(req, svc::Status::unknown_method);
      break;
  }
  if (out.response.status != svc::Status::ok) {
    stats_.rejected.fetch_add(1, std::memory_order_relaxed);
  }
  return out;
}

RaService::Stats RaService::stats() const noexcept {
  Stats s;
  s.single_queries = stats_.single_queries.load(std::memory_order_relaxed);
  s.batch_queries = stats_.batch_queries.load(std::memory_order_relaxed);
  s.serials_served = stats_.serials_served.load(std::memory_order_relaxed);
  s.gossip_digests = stats_.gossip_digests.load(std::memory_order_relaxed);
  s.gossip_pulls = stats_.gossip_pulls.load(std::memory_order_relaxed);
  s.rejected = stats_.rejected.load(std::memory_order_relaxed);
  return s;
}

svc::Response RaService::status_query(const svc::Request& req) {
  stats_.single_queries.fetch_add(1, std::memory_order_relaxed);
  ByteReader r(ByteSpan(req.body));
  const auto ca_bytes = r.try_var8();
  const auto serial_bytes = r.try_var8();
  if (!ca_bytes || !serial_bytes || serial_bytes->empty() || !r.done()) {
    return svc::reject(req, svc::Status::malformed);
  }
  const cert::CaId ca(ca_bytes->begin(), ca_bytes->end());
  if (!store_->knows(ca)) return svc::reject(req, svc::Status::unknown_ca);
  const auto cached =
      store_->status_bytes_for(ca, cert::SerialNumber{*serial_bytes});
  if (!cached) return svc::reject(req, svc::Status::unavailable);

  svc::Response resp;
  resp.request_id = req.request_id;
  resp.body = *cached->bytes;
  stats_.serials_served.fetch_add(1, std::memory_order_relaxed);
  return resp;
}

svc::Response RaService::status_batch(const svc::Request& req) {
  stats_.batch_queries.fetch_add(1, std::memory_order_relaxed);
  ByteReader r(ByteSpan(req.body));
  const auto ca_bytes = r.try_var8();
  const auto count = r.try_u32();
  if (!ca_bytes || !count) return svc::reject(req, svc::Status::malformed);
  if (*count > kMaxBatchSerials) {
    // The response would blow the frame limit; fail the envelope up front
    // instead of building a reply the requester must reject.
    return svc::reject(req, svc::Status::frame_too_large);
  }
  const cert::CaId ca(ca_bytes->begin(), ca_bytes->end());
  if (!store_->knows(ca)) return svc::reject(req, svc::Status::unknown_ca);

  svc::Response resp;
  resp.request_id = req.request_id;
  ByteWriter w(resp.body);
  w.u32(*count);
  cert::SerialNumber serial;
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto serial_bytes = r.try_var8();
    if (!serial_bytes || serial_bytes->empty()) {
      return svc::reject(req, svc::Status::malformed);
    }
    serial.value = *serial_bytes;
    // Each serial fans out over the status-byte cache — the same warm path
    // the DPI pipeline uses, amortized N per envelope.
    const auto cached = store_->status_bytes_for(ca, serial);
    if (!cached) return svc::reject(req, svc::Status::unavailable);
    w.var24(ByteSpan(*cached->bytes));
  }
  if (!r.done()) return svc::reject(req, svc::Status::malformed);
  stats_.serials_served.fetch_add(*count, std::memory_order_relaxed);
  return resp;
}

svc::Response RaService::gossip_digest(const svc::Request& req) {
  stats_.gossip_digests.fetch_add(1, std::memory_order_relaxed);
  if (gossip_ == nullptr) return svc::reject(req, svc::Status::unavailable);
  // The caller's digest rides the request so a future server could diff it
  // proactively; today we only validate it and answer with our own.
  if (!decode_gossip_digest(ByteSpan(req.body))) {
    return svc::reject(req, svc::Status::malformed);
  }
  svc::Response resp;
  resp.request_id = req.request_id;
  std::lock_guard<std::mutex> lock(gossip_mu_);
  resp.body = encode_gossip_digest(gossip_->digest());
  return resp;
}

svc::Response RaService::gossip_pull(const svc::Request& req) {
  stats_.gossip_pulls.fetch_add(1, std::memory_order_relaxed);
  if (gossip_ == nullptr) return svc::reject(req, svc::Status::unavailable);
  const auto pull = decode_gossip_pull(ByteSpan(req.body));
  if (!pull) return svc::reject(req, svc::Status::malformed);

  std::lock_guard<std::mutex> lock(gossip_mu_);

  // Snapshot the wanted roots *before* observing the pushes — the
  // symmetric-snapshot rule of GossipPool::exchange — so a root the peer
  // pushes is never echoed straight back in the same exchange.
  GossipReply reply;
  reply.roots = gossip_->roots_in(pull->want);
  for (const auto& root : pull->push) {
    if (auto e = gossip_->observe(root)) {
      reply.evidence.push_back(std::move(*e));
    }
  }

  svc::Response resp;
  resp.request_id = req.request_id;
  resp.body = encode_gossip_reply(reply);
  return resp;
}

}  // namespace ritm::ra
