#include "svc/mux.hpp"

namespace ritm::svc {

void MuxService::route(Method method, Service* backend) noexcept {
  const auto idx = static_cast<std::size_t>(method);
  if (idx < kMaxMethod) routes_[idx] = backend;
}

Response MuxService::handle(const Request& req) {
  const auto idx = static_cast<std::size_t>(req.method);
  Service* backend = idx < kMaxMethod ? routes_[idx] : nullptr;
  if (backend == nullptr) backend = default_;
  if (backend == nullptr) {
    return reject(req, Status::unknown_method);
  }
  return backend->handle(req);
}

}  // namespace ritm::svc
