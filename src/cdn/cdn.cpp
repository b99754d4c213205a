#include "cdn/cdn.hpp"

#include <limits>
#include <stdexcept>

namespace ritm::cdn {

void Origin::put(const std::string& path, Bytes data, TimeMs now) {
  auto& obj = objects_[path];
  bytes_uploaded_ += data.size();
  obj.data = std::move(data);
  obj.published_at = now;
  obj.version += 1;
}

const Object* Origin::get(const std::string& path) const {
  const auto it = objects_.find(path);
  return it == objects_.end() ? nullptr : &it->second;
}

const Object* Origin::origin_fetch(const std::string& path) {
  const Object* obj = get(path);
  ++requests_served_;
  if (obj) bytes_served_ += obj->data.size();
  return obj;
}

EdgeServer::EdgeServer(std::string name, std::string region,
                       sim::GeoPoint location, Origin* origin,
                       TimeMs cache_ttl_ms, sim::PathModel path_model)
    : name_(std::move(name)),
      region_(std::move(region)),
      location_(location),
      origin_(origin),
      cache_ttl_ms_(cache_ttl_ms),
      path_model_(path_model) {
  if (origin_ == nullptr) {
    throw std::invalid_argument("EdgeServer: null origin");
  }
}

FetchResult EdgeServer::serve(const std::string& path, TimeMs now,
                              const sim::GeoPoint& client_loc, Rng& rng) {
  FetchResult result;
  ++stats_.requests;

  auto it = cache_.find(path);
  const bool fresh = it != cache_.end() && cache_ttl_ms_ > 0 &&
                     now - it->second.fetched_at < cache_ttl_ms_;

  double edge_internal_ms = 0.0;
  const Object* obj = nullptr;
  if (fresh) {
    ++stats_.cache_hits;
    result.cache_hit = true;
    obj = &it->second.object;
  } else {
    // Miss or expired: pull from the origin over the edge<->origin path.
    const Object* origin_obj = origin_->origin_fetch(path);
    if (origin_obj != nullptr) {
      ++stats_.origin_fetches;
      stats_.origin_bytes += origin_obj->data.size();
      const double rtt =
          path_model_.rtt_ms(location_, origin_->location(), rng);
      edge_internal_ms = path_model_.fetch_ms(rtt, origin_obj->data.size());
      auto& entry = cache_[path];
      entry.object = *origin_obj;
      entry.fetched_at = now;
      obj = &cache_[path].object;
    } else {
      cache_.erase(path);
    }
  }

  const double client_rtt = path_model_.rtt_ms(location_, client_loc, rng);
  if (obj == nullptr) {
    // 404: still costs the client round trips.
    result.latency_ms = path_model_.fetch_ms(client_rtt, 0) + edge_internal_ms;
    return result;
  }

  result.found = true;
  result.bytes = obj->data.size();
  result.data = obj->data;  // owned: survives republish / cache refresh
  result.version = obj->version;
  result.published_at = obj->published_at;
  result.latency_ms =
      path_model_.fetch_ms(client_rtt, obj->data.size()) + edge_internal_ms;
  stats_.bytes_served += obj->data.size();
  return result;
}

void EdgeServer::purge(const std::string& path) { cache_.erase(path); }

Cdn::Cdn(sim::GeoPoint origin_location, TimeMs cache_ttl_ms)
    : origin_(origin_location), cache_ttl_ms_(cache_ttl_ms) {}

void Cdn::add_edge(std::string name, std::string region,
                   sim::GeoPoint location) {
  edges_.emplace_back(std::move(name), std::move(region), location, &origin_,
                      cache_ttl_ms_);
}

EdgeServer& Cdn::nearest_edge(const sim::GeoPoint& client_loc) {
  if (edges_.empty()) throw std::logic_error("Cdn: no edge servers");
  EdgeServer* best = nullptr;
  double best_km = std::numeric_limits<double>::infinity();
  for (auto& e : edges_) {
    const double km = sim::great_circle_km(e.location(), client_loc);
    if (km < best_km) {
      best_km = km;
      best = &e;
    }
  }
  return *best;
}

FetchResult Cdn::get(const std::string& path, TimeMs now,
                     const sim::GeoPoint& client_loc, Rng& rng) {
  return nearest_edge(client_loc).serve(path, now, client_loc, rng);
}

std::uint64_t Cdn::total_bytes_served() const noexcept {
  std::uint64_t total = 0;
  for (const auto& e : edges_) total += e.stats().bytes_served;
  return total;
}

Cdn make_global_cdn(TimeMs cache_ttl_ms) {
  // Origin in N. Virginia (us-east-1-like), edges across the CloudFront
  // regions.
  Cdn cdn(sim::GeoPoint{38.9, -77.4}, cache_ttl_ms);
  // North America
  cdn.add_edge("iad", "NA", {38.9, -77.4});
  cdn.add_edge("sfo", "NA", {37.6, -122.4});
  cdn.add_edge("ord", "NA", {41.9, -87.6});
  cdn.add_edge("yyz", "NA", {43.7, -79.4});
  // Europe
  cdn.add_edge("lhr", "EU", {51.5, -0.1});
  cdn.add_edge("fra", "EU", {50.1, 8.7});
  cdn.add_edge("ams", "EU", {52.3, 4.8});
  cdn.add_edge("cdg", "EU", {49.0, 2.5});
  // Asia
  cdn.add_edge("nrt", "AS", {35.7, 139.7});
  cdn.add_edge("sin", "AS", {1.35, 103.9});
  cdn.add_edge("hkg", "AS", {22.3, 114.2});
  cdn.add_edge("icn", "AS", {37.5, 126.9});
  // India
  cdn.add_edge("bom", "IN", {19.1, 72.9});
  cdn.add_edge("del", "IN", {28.6, 77.2});
  // South America
  cdn.add_edge("gru", "SA", {-23.5, -46.6});
  cdn.add_edge("eze", "SA", {-34.6, -58.4});
  // Oceania
  cdn.add_edge("syd", "OC", {-33.9, 151.2});
  cdn.add_edge("akl", "OC", {-36.8, 174.8});
  // Africa / Middle East
  cdn.add_edge("jnb", "ME", {-26.2, 28.0});
  cdn.add_edge("dxb", "ME", {25.3, 55.4});
  return cdn;
}

}  // namespace ritm::cdn
