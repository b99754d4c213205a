#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

thread_local std::vector<std::uint64_t> tls_scopes;

}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<Buffer>();
    buf = owned.get();
    std::lock_guard lock(mu_);
    buffers_.push_back(std::move(owned));
  }
  return *buf;
}

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t request_id) {
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t parent = tls_scopes.empty() ? 0 : tls_scopes.back();
  Buffer& b = local();
  std::lock_guard lock(b.mu);
  b.spans.push_back(Span{name, id, parent, start_ns, end_ns, request_id});
}

Tracer::Scope::Scope(Tracer& t, const char* name)
    : t_(t),
      name_(name),
      id_(t.next_id_.fetch_add(1, std::memory_order_relaxed)),
      parent_(tls_scopes.empty() ? 0 : tls_scopes.back()),
      start_(now_ns()) {
  tls_scopes.push_back(id_);
}

Tracer::Scope::~Scope() {
  tls_scopes.pop_back();
  if (!t_.active()) return;
  Buffer& b = t_.local();
  std::lock_guard lock(b.mu);
  b.spans.push_back(Span{name_, id_, parent_, start_, now_ns(), 0});
}

void Tracer::counter(const std::string& name, double value) {
  std::lock_guard lock(mu_);
  counters_[name] = value;
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  std::lock_guard lock(mu_);
  for (const auto& b : buffers_) {
    std::lock_guard block(b->mu);
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

std::map<std::string, double> Tracer::counters() const {
  std::lock_guard lock(mu_);
  return counters_;
}

void Tracer::dump(const std::string& path) const {
  std::ofstream out(path);
  for (const auto& s : spans()) {
    out << "span\t" << s.name << '\t' << s.id << '\t' << s.parent << '\t'
        << s.start_ns << '\t' << s.end_ns << '\t' << s.request_id << '\n';
  }
  out.precision(17);
  for (const auto& [name, value] : counters()) {
    out << "counter\t" << name << '\t' << value << '\n';
  }
}

bool load_dump(const std::string& path, std::vector<Span>& spans,
               std::map<std::string, double>& counters) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream f(line);
    std::string kind;
    f >> kind;
    if (kind == "span") {
      Span s;
      f >> s.name >> s.id >> s.parent >> s.start_ns >> s.end_ns >>
          s.request_id;
      spans.push_back(std::move(s));
    } else if (kind == "counter") {
      std::string name;
      double v = 0.0;
      f >> name >> v;
      counters[name] = v;
    }
  }
  return true;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::map<std::string, double> summarize(
    const std::vector<Span>& spans,
    const std::map<std::string, double>& counters) {
  std::unordered_map<std::string, std::vector<const Span*>> by_name;
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const auto& s : spans) {
    by_name[s.name].push_back(&s);
    by_id[s.id] = &s;
  }
  auto durations = [&](const std::string& name, double scale) {
    std::vector<double> v;
    for (const Span* s : by_name[name]) v.push_back(s->us() * scale);
    return v;
  };
  auto q = [&](const std::string& name, double qq, double scale) {
    auto v = durations(name, scale);
    return quantile(v, qq);
  };
  auto c = [&](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  // Sum of a span's children named `child`, per parent named `parent`.
  auto child_sums = [&](const std::string& parent, const std::string& child) {
    std::unordered_map<std::uint64_t, double> sums;
    for (const Span* p : by_name[parent]) sums[p->id] = 0.0;
    for (const Span* s : by_name[child]) {
      auto it = sums.find(s->parent);
      if (it != sums.end()) it->second += s->us();
    }
    return sums;
  };

  std::map<std::string, double> m;
  for (const char* name : {"revocation_visible_p50_ms", "mass_visible_ms",
                           "restart_ms", "client.status_p90_us",
                           "client.status_p99_us"}) {
    m[name] = c(name);
  }
  m["svc.call_p50_us"] = q("svc.call", 0.5, 1.0);
  m["svc.call_p99_us"] = q("svc.call", 0.99, 1.0);
  {
    std::unordered_map<std::uint64_t, double> handle;
    for (const Span* s : by_name["ra.handle"]) handle[s->request_id] = s->us();
    std::vector<double> self;
    for (const Span* s : by_name["svc.call"]) {
      const auto it = handle.find(s->request_id);
      if (it != handle.end()) self.push_back(s->us() - it->second);
    }
    m["svc.transport_self_p50_us"] = quantile(self, 0.5);
  }
  m["svc.bytes_out_per_status"] = ratio(c("svc.bytes_out"), c("svc.statuses"));
  m["svc.backpressure_pauses"] = c("svc.backpressure_pauses");
  m["svc.refused"] = c("svc.refused");

  m["ra.handle_p50_us"] = q("ra.handle", 0.5, 1.0);
  m["ra.handle_p99_us"] = q("ra.handle", 0.99, 1.0);
  m["ra.cache_hit_rate"] =
      ratio(c("ra.cache_hits"), c("ra.cache_hits") + c("ra.cache_misses"));
  m["ra.cache_evictions"] = c("ra.cache_evictions");
  m["ra.cache_invalidations"] = c("ra.cache_invalidations");
  m["ra.status_hit_ns"] = q("ra.status_hit", 0.5, 1e3);
  m["ra.status_miss_us"] = q("ra.status_miss", 0.5, 1.0);
  // Total, not a percentile: a reactor that meets the writer blocks once
  // for the whole hold while its later requests wait in the socket, so
  // only a handful of requests per pull ever see a lock wait.
  {
    double blocked = 0.0;
    for (const Span* s : by_name["ra.lock_wait"]) blocked += s->us();
    m["ra.read_lock_blocked_ms"] = blocked / 1e3;
  }
  m["ra.write_lock_hold_ms"] = q("ra.write_lock", 0.5, 1e-3);
  m["ra.pull_ms"] = q("ra.pull", 0.5, 1e-3);
  {
    const auto fetched = child_sums("ra.pull", "cdn.get");
    std::vector<double> self;
    for (const Span* p : by_name["ra.pull"]) {
      self.push_back((p->us() - fetched.at(p->id)) / 1e3);
    }
    m["ra.apply_self_ms"] = quantile(self, 0.5);
    // Feed GETs only: the bootstrap's cold-start GETs are not children of
    // a pull.
    std::vector<double> gets;
    for (const Span* s : by_name["cdn.get"]) {
      const auto it = by_id.find(s->parent);
      if (it != by_id.end() && it->second->name == "ra.pull") {
        gets.push_back(s->us());
      }
    }
    m["cdn.get_us"] = quantile(gets, 0.5);
  }
  m["cdn.bytes_per_period"] = ratio(c("cdn.feed_bytes"), c("cdn.periods"));

  m["dict.prove_us"] = q("dict.prove", 0.5, 1.0);
  m["dict.update_ms"] = q("dict.update", 0.5, 1e-3);
  m["dict.hashes_per_revocation"] =
      ratio(c("dict.update_hashes"), c("dict.update_revocations"));
  m["dict.verify_proof_us"] = q("dict.verify", 0.5, 1.0);
  m["crypto.sig_verify_us"] = q("crypto.sig", 0.5, 1.0);
  m["crypto.freshness_walk_us"] = q("crypto.fresh", 0.5, 1.0);

  {
    std::vector<double> revoke;
    for (const auto& [id, us] : child_sums("writer.period", "ca.revoke")) {
      revoke.push_back(us / 1e3);
    }
    m["ca.revoke_ms"] = quantile(revoke, 0.5);
  }
  m["ca.publish_ms"] = q("ca.publish", 0.5, 1e-3);

  m["persist.checkpoint_stall_mean_us"] = c("persist.checkpoint_stall_mean_us");
  m["persist.checkpoint_stall_max_us"] = c("persist.checkpoint_stall_max_us");
  m["persist.recover_ms"] = q("persist.recover", 0.5, 1e-3);
  m["persist.snapshot_bytes"] = c("persist.snapshot_bytes");
  m["persist.wal_replayed"] = c("persist.wal_replayed");

  m["gen.late_p99_us"] = c("gen.late_p99_us");
  m["gen.backlog"] = c("gen.backlog");
  m["trace.overhead_frac"] =
      c("trace.p50_off_us") > 0
          ? c("trace.p50_on_us") / c("trace.p50_off_us") - 1.0
          : 0.0;
  return m;
}

}  // namespace perfbench
