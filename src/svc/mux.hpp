// Service composition for the envelope API.
//
// MuxService routes requests to per-method backend services, so one port
// (or one in-process dispatch) can expose the RA status endpoints, the CDN
// object store, and the feed sync endpoint together — the shape of a real
// deployment where an edge node fronts several roles. Unrouted methods go to
// the default backend, or answer unknown_method exactly like a server that
// never implemented them; every backend answers the retired ids 2 and 3
// with unknown_method too.
//
// SharedLockService wraps a service's handle calls in a caller-supplied
// std::shared_mutex taken shared, for callers that exclude those calls
// from their own writers by taking the same mutex exclusively. The RA
// serving path no longer needs it: ra::DictionaryStore locks itself, so a
// lock around RaService is correct but redundant.
#pragma once

#include <array>
#include <shared_mutex>

#include "svc/service.hpp"

namespace ritm::svc {

class MuxService final : public Service {
 public:
  /// Routes `method` to `backend` (which must outlive the mux). Re-routing
  /// a method replaces the previous backend.
  void route(Method method, Service* backend) noexcept;

  /// Fallback for unrouted methods; nullptr (the default) answers
  /// unknown_method.
  void set_default(Service* backend) noexcept { default_ = backend; }

  Response handle(const Request& req) override;

 private:
  // Method ids are small and dense; a flat table keeps routing off the
  // allocator and branch-predictable on the serving path.
  static constexpr std::size_t kMaxMethod = 64;
  std::array<Service*, kMaxMethod> routes_{};
  Service* default_ = nullptr;
};

class SharedLockService final : public Service {
 public:
  /// Both must outlive the service. Mutators of the state behind `inner`
  /// must hold `mu` exclusively.
  SharedLockService(Service* inner, std::shared_mutex* mu) noexcept
      : inner_(inner), mu_(mu) {}

  Response handle(const Request& req) override {
    std::shared_lock lock(*mu_);
    return inner_->handle(req);
  }

 private:
  Service* inner_;
  std::shared_mutex* mu_;
};

}  // namespace ritm::svc
