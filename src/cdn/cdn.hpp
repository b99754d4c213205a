// CDN substrate: a distribution point (origin) plus geo-distributed edge
// servers with TTL caching and a pull protocol — the dissemination network
// of paper §III, modelled after Amazon CloudFront (§VII-B used CloudFront
// with TTL=0 to measure the worst case).
//
// Latency is sampled from the geo path model; every byte served is metered
// per edge (EdgeServer::stats).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/geo.hpp"

namespace ritm::cdn {

/// A versioned object at the distribution point.
struct Object {
  Bytes data;
  TimeMs published_at = 0;
  std::uint64_t version = 0;
};

/// The distribution point the CA uploads to.
class Origin {
 public:
  explicit Origin(sim::GeoPoint location) : location_(location) {}

  /// Publishes (or replaces) an object; bumps its version.
  void put(const std::string& path, Bytes data, TimeMs now);

  const Object* get(const std::string& path) const;

  const sim::GeoPoint& location() const noexcept { return location_; }
  std::uint64_t bytes_uploaded() const noexcept { return bytes_uploaded_; }
  std::uint64_t requests_served() const noexcept { return requests_served_; }
  std::uint64_t bytes_served() const noexcept { return bytes_served_; }

  /// Called by edges on cache miss (metering).
  const Object* origin_fetch(const std::string& path);

 private:
  sim::GeoPoint location_;
  std::map<std::string, Object> objects_;
  std::uint64_t bytes_uploaded_ = 0;
  std::uint64_t requests_served_ = 0;
  std::uint64_t bytes_served_ = 0;
};

/// Per-edge service counters, used for billing and cache studies.
struct EdgeStats {
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t bytes_served = 0;       // edge -> clients (billed)
  std::uint64_t origin_fetches = 0;
  std::uint64_t origin_bytes = 0;       // origin -> edge
};

/// What a client (RA) observes for one GET. The payload is *owned*: a
/// republish (`Origin::put`) or edge cache refresh overlapping a pull can
/// never mutate or free bytes a caller is still holding — the interior
/// `const Object*` this struct used to carry made that a real hazard
/// (regression-tested in tests/cdn_test.cpp).
struct FetchResult {
  bool found = false;
  bool cache_hit = false;
  std::size_t bytes = 0;
  double latency_ms = 0.0;
  Bytes data;                    // owned copy of the object payload
  std::uint64_t version = 0;     // Object::version at serve time
  TimeMs published_at = 0;       // Object::published_at at serve time
};

class EdgeServer {
 public:
  EdgeServer(std::string name, std::string region, sim::GeoPoint location,
             Origin* origin, TimeMs cache_ttl_ms,
             sim::PathModel path_model = {});

  /// Serves a GET issued by a client at `client_loc` at simulated time
  /// `now`: client<->edge round trips + (on miss or expiry) edge<->origin
  /// fetch. TTL=0 forces an origin fetch on every request (the paper's
  /// worst-case configuration).
  FetchResult serve(const std::string& path, TimeMs now,
                    const sim::GeoPoint& client_loc, Rng& rng);

  /// Drops any cached copy of `path` (operator purge).
  void purge(const std::string& path);

  const std::string& name() const noexcept { return name_; }
  const std::string& region() const noexcept { return region_; }
  const sim::GeoPoint& location() const noexcept { return location_; }
  const EdgeStats& stats() const noexcept { return stats_; }
  TimeMs cache_ttl_ms() const noexcept { return cache_ttl_ms_; }

 private:
  struct CacheEntry {
    Object object;
    TimeMs fetched_at = 0;
  };

  std::string name_;
  std::string region_;
  sim::GeoPoint location_;
  Origin* origin_;
  TimeMs cache_ttl_ms_;
  sim::PathModel path_model_;
  std::map<std::string, CacheEntry> cache_;
  EdgeStats stats_;
};

/// A fleet of edge servers in front of one origin. Clients are routed to the
/// geographically nearest edge (the DNS abstraction of §II).
class Cdn {
 public:
  Cdn(sim::GeoPoint origin_location, TimeMs cache_ttl_ms);

  void add_edge(std::string name, std::string region, sim::GeoPoint location);

  Origin& origin() noexcept { return origin_; }
  const Origin& origin() const noexcept { return origin_; }

  EdgeServer& nearest_edge(const sim::GeoPoint& client_loc);
  std::vector<EdgeServer>& edges() noexcept { return edges_; }
  const std::vector<EdgeServer>& edges() const noexcept { return edges_; }

  /// Convenience: route + serve in one call.
  FetchResult get(const std::string& path, TimeMs now,
                  const sim::GeoPoint& client_loc, Rng& rng);

  /// Total bytes served to clients across all edges (the billed quantity).
  std::uint64_t total_bytes_served() const noexcept;

 private:
  Origin origin_;
  TimeMs cache_ttl_ms_;
  std::vector<EdgeServer> edges_;
};

/// A CloudFront-like default topology: 20 edge locations across 7 regions.
/// Used by benches and examples.
Cdn make_global_cdn(TimeMs cache_ttl_ms);

}  // namespace ritm::cdn
