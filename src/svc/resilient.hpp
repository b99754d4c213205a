// Client-side resilience for the envelope API: a ResilientTransport wraps
// any svc::Transport and turns its one-shot `call` into a bounded-effort,
// never-hanging operation:
//
//   * per-request deadline — the retry loop never outlives `deadline_ms`,
//     whatever the inner transport does per attempt
//   * capped exponential backoff with deterministic jitter, keyed off the
//     envelope's idempotent u64 request_id: every retry of one logical
//     request re-sends the SAME id, so a server (or its cache) can detect
//     replays and a duplicated response is attributable
//   * retry_after honoring — an `overloaded` response carrying the server's
//     hint floors the next backoff at it
//   * stale-response rejection — a response whose request_id is not the one
//     in flight (a duplicate delivered late) is discarded and retried, never
//     surfaced to the caller
//   * a per-endpoint circuit breaker — after `failure_threshold`
//     consecutive failures the breaker opens and calls fail fast with
//     Status::circuit_open for `open_ms`, then one probe is let through
//     (half-open); its outcome closes or re-opens the breaker
//
// Retry policy: a failed round trip (transport verdict != ok) is always
// retryable; a served response retries only on overloaded / unavailable /
// internal. Application verdicts (not_found, unknown_ca, malformed, the
// acceptance rules...) are answers, not failures — they return immediately
// and count as breaker successes.
//
// Every ra::RaUpdater wraps its CDN and sync transports in one, with the
// default policies, and ritm_query calls through one. Time is injectable
// (SleepFn/ClockFn) so the fault matrix runs those updaters through
// thousands of schedules on a virtual clock with zero real sleeping.
#pragma once

#include <cstdint>
#include <functional>

#include "common/rng.hpp"
#include "svc/transport.hpp"

namespace ritm::svc {

struct RetryPolicy {
  /// Total attempts per logical request (1 = no retries).
  std::uint32_t max_attempts = 8;
  /// First backoff; doubles per retry up to max_backoff_ms.
  std::uint32_t base_backoff_ms = 5;
  std::uint32_t max_backoff_ms = 1000;
  /// Fraction of each backoff randomized (0 = deterministic full backoff,
  /// 1 = uniform in [0, backoff]). Decorrelates a fleet of retriers.
  double jitter = 0.5;
  /// Per-request wall ceiling across all attempts and backoffs.
  std::uint32_t deadline_ms = 10'000;
};

struct BreakerPolicy {
  /// Consecutive failures that open the breaker (0 disables it).
  std::uint32_t failure_threshold = 16;
  /// While open, calls fail fast for this long; then one probe is allowed.
  std::uint32_t open_ms = 2'000;
};

class ResilientTransport final : public Transport {
 public:
  using SleepFn = std::function<void(std::uint32_t ms)>;
  /// Monotonic milliseconds; only differences are used.
  using ClockFn = std::function<std::uint64_t()>;

  struct Stats {
    std::uint64_t calls = 0;
    std::uint64_t attempts = 0;
    std::uint64_t retries = 0;
    std::uint64_t failures = 0;          // calls exhausted / deadline hit
    std::uint64_t deadline_exhausted = 0;
    std::uint64_t stale_rejected = 0;    // request_id-mismatch responses
    std::uint64_t retry_after_honored = 0;
    std::uint64_t breaker_opens = 0;
    std::uint64_t breaker_fast_fails = 0;
    std::uint64_t backoff_ms_total = 0;
  };

  /// `inner` must outlive the wrapper. `jitter_seed` drives backoff jitter
  /// (deterministic per seed).
  ResilientTransport(Transport* inner, RetryPolicy retry = {},
                     BreakerPolicy breaker = {},
                     std::uint64_t jitter_seed = 0x7e57);

  CallResult call(const Request& req) override;

  /// Injectable time for tests/simulation: `sleep` replaces real backoff
  /// sleeping, `clock` the monotonic source for deadlines and the breaker.
  void set_time(SleepFn sleep, ClockFn clock);

  bool circuit_open() const;
  const Stats& stats() const noexcept { return stats_; }

 private:
  std::uint64_t now_ms() const;
  void sleep_ms(std::uint32_t ms);
  /// Served-status codes worth another attempt (transport-verdict failures
  /// are always retryable).
  static bool retryable_served(Status s) noexcept;

  Transport* inner_;
  RetryPolicy retry_;
  BreakerPolicy breaker_;
  Rng rng_;
  SleepFn sleep_;
  ClockFn clock_;
  std::uint64_t next_id_ = 1;
  std::uint32_t consecutive_failures_ = 0;
  std::uint64_t open_until_ms_ = 0;  // breaker open while now < this
  Stats stats_;
};

}  // namespace ritm::svc
