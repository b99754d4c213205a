// The RA's dissemination client: every ∆ it pulls the per-period feed
// object through the serving envelope (Method::cdn_get) and applies it to
// the dictionary store; on a detected numbering gap it runs the sync
// protocol over its sync transport (Method::feed_delta); and it can run the
// consistency-checking procedure of §III (fetch a random edge's copy of a
// CA's signed root and compare against the local replica).
//
// The feed cursor is the store's (DictionaryStore::feed_cursor). The
// updater advances it one period at a time and only past periods it
// fetched: a gap sync never moves it, because the periods after it may
// carry other CAs' messages. A gap sync that fails is retried at the CA's
// next feed message — its next issuance or freshness statement. bootstrap()
// (below) moves it past a period without fetching only when every other CA
// holding a root already covers that period.
//
// The updater speaks svc::Transport only — the same versioned wire
// protocol whether the endpoints are in-process simulations or real TCP
// servers.
//
// Resilience: enable_resilience() wraps both transports in
// svc::ResilientTransport (deadlines, capped backoff with jitter, circuit
// breaker), and the updater tracks an explicit Health: a failed pull never
// advances the cursor (the period would be skipped forever) — instead the
// updater enters degraded mode, keeps serving the last-verified replica
// through the store, and reports how stale it is via staleness_s().
//
// Durable mode: enable_persistence() opens a write-ahead log and attaches
// it to the store, which logs every accepted feed message and every cursor
// advance; checkpoint() commits a store checkpoint — replicas and cursor —
// into the same directory. recover() then restores the store from
// checkpoint + WAL tail and resumes pulling at the recovered cursor,
// instead of re-syncing the entire issuance history. bootstrap() is the
// CDN cold-start path: one GET for the snapshot+delta object replaces the
// full replay entirely.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ca/distribution.hpp"
#include "ca/feed.hpp"
#include "common/rng.hpp"
#include "persist/wal.hpp"
#include "ra/store.hpp"
#include "sim/geo.hpp"
#include "svc/resilient.hpp"
#include "svc/transport.hpp"

namespace ritm::ra {

class RaUpdater {
 public:
  struct Config {
    sim::GeoPoint location{};
  };

  /// Dissemination health. While `degraded`, the replica is still served —
  /// the store keeps answering queries from the last verified state — but
  /// the answers may be stale; staleness_s() quantifies by how much.
  struct Health {
    bool degraded = false;
    std::uint64_t consecutive_failures = 0;  // failed pulls since a success
    TimeMs last_success = -1;                // last cursor advance (-1 never)
    TimeMs degraded_since = -1;
    svc::Status last_error = svc::Status::ok;
  };

  struct Totals {
    std::uint64_t pulls = 0;
    std::uint64_t bytes = 0;             // feed bytes downloaded
    std::uint64_t messages = 0;          // feed messages applied
    std::uint64_t applied_ok = 0;
    std::uint64_t rejected = 0;          // total rejections (all causes)
    /// Per-code breakdown of `rejected` — the svc::Status taxonomy
    /// (bad_signature vs stale_root vs unknown_ca vs malformed ...), so a
    /// fleet operator can tell a hostile feed from a version skew.
    std::map<svc::Status, std::uint64_t> rejected_by;
    std::uint64_t syncs = 0;             // feed_delta calls made
    std::uint64_t sync_bytes = 0;
    std::uint64_t bootstraps = 0;        // cold-start objects installed
    std::uint64_t consistency_checks = 0;
    std::uint64_t misbehaviour_detected = 0;
  };

  /// One pull's outcome (used by the dissemination benches).
  struct PullResult {
    std::uint64_t bytes = 0;
    std::size_t messages = 0;
  };

  /// `cdn_rpc` serves Method::cdn_get (feed objects, signed roots,
  /// cold-start objects); `sync_rpc` (optional) serves Method::feed_delta.
  /// Both must outlive the updater.
  RaUpdater(Config config, DictionaryStore* store, svc::Transport* cdn_rpc,
            svc::Transport* sync_rpc = nullptr);

  /// Detaches the owned WAL from the store (the store may outlive this
  /// updater; it must not be left logging into a freed log).
  ~RaUpdater();

  /// Pulls and applies every feed period in [next_period, upto_period].
  PullResult pull_up_to(std::uint64_t upto_period, TimeMs now);

  /// §III consistency checking: downloads a random-CA signed root from the
  /// nearest edge and cross-checks it against the local replica. Returns
  /// evidence if a split view is found.
  std::optional<MisbehaviourEvidence> consistency_check(
      const cert::CaId& ca, TimeMs now);

  /// The store's feed cursor: the period the next pull fetches first.
  std::uint64_t next_period() const noexcept { return store_->feed_cursor(); }
  const Totals& totals() const noexcept { return totals_; }

  // ------------------------------------------------------------ resilience

  /// Wraps both transports in svc::ResilientTransport (per-request
  /// deadlines, capped backoff with jitter, circuit breaker). Call once,
  /// before the first pull; throws std::logic_error on a second call.
  void enable_resilience(svc::RetryPolicy retry = {},
                         svc::BreakerPolicy breaker = {},
                         std::uint64_t jitter_seed = 0x7e57);

  /// The owned resilient wrappers (nullptr until enable_resilience);
  /// exposed so tests can inject virtual time and read retry stats.
  svc::ResilientTransport* resilient_cdn() noexcept {
    return resilient_cdn_.get();
  }
  svc::ResilientTransport* resilient_sync() noexcept {
    return resilient_sync_.get();
  }

  const Health& health() const noexcept { return health_; }

  /// Seconds since the last successful cursor advance; -1 before the first
  /// success. Meaningful staleness reporting for degraded-mode serving.
  double staleness_s(TimeMs now) const noexcept {
    if (health_.last_success < 0) return -1.0;
    return double(now - health_.last_success) / 1000.0;
  }

  // ------------------------------------------------------------ durability

  /// Switches to durable operation backed by `dir`: opens (or resumes)
  /// <dir>/wal.log — truncating any torn tail — and attaches it to the
  /// store. From then on the store logs every accepted feed message and
  /// every cursor advance, fsync-batched every `opts.sync_every` records.
  void enable_persistence(const std::string& dir,
                          persist::WalOptions opts = {});

  /// True once enable_persistence()/recover() has been called.
  bool persistent() const noexcept { return wal_ != nullptr; }

  /// Commits a checkpoint of the store (replicas and feed cursor) into the
  /// persistence directory and resets the WAL — the O(history) part of a
  /// restart collapses into the checkpoint; only the log tail is replayed.
  /// Runs one full cycle on the calling thread (freeze → persist →
  /// DictionaryStore::reset_wal_if_unchanged); waits for a background cycle
  /// in flight, and is safe against concurrent pulls.
  void checkpoint();

  // ------------------------------------------- background checkpointing

  /// Spawns a thread that checkpoints every `interval_s` seconds while the
  /// RA keeps serving. The mutating calls (pull_up_to, bootstrap) and the
  /// checkpoint thread synchronize on an internal freeze mutex; the thread
  /// holds it only for the O(#CAs) arena-sharing freeze(). The measured
  /// stall is that freeze window, timed once the mutex is held: neither the
  /// file write nor the wait for a pull in progress counts. The WAL is
  /// reset only when nothing was logged while the checkpoint was written;
  /// otherwise the log stays intact (recovery filters records the
  /// checkpoint already covers) and the next cycle retries. Serving reads
  /// never touch the freeze mutex. Requires persistence; throws
  /// std::logic_error otherwise or if already running.
  void start_checkpoints(double interval_s);

  /// Stops and joins the background checkpoint thread (no-op when none is
  /// running). Does not run a final checkpoint — call checkpoint() for a
  /// clean shutdown snapshot.
  void stop_checkpoints();

  struct CheckpointStats {
    std::uint64_t checkpoints = 0;       // completed checkpoint commits
    std::uint64_t wal_resets = 0;        // cycles that emptied the log
    std::uint64_t wal_reset_skipped = 0; // mutations raced the file write
    std::uint64_t last_bytes = 0;        // bytes the newest cycle wrote
    std::uint64_t last_stall_us = 0;     // newest freeze window
    std::uint64_t max_stall_us = 0;
    std::uint64_t total_stall_us = 0;
    std::uint64_t bytes_written = 0;     // every cycle: parts + manifests
    std::uint64_t parts_written = 0;
    std::uint64_t parts_reused = 0;      // unchanged since an earlier cycle
  };
  /// Thread-safe snapshot of the checkpoint counters (sync + background).
  CheckpointStats checkpoint_stats() const;

  /// Crash-consistent restart: recovers the store — replicas and feed
  /// cursor — from the newest valid checkpoint plus the WAL tail
  /// (DictionaryStore::recover_from), and stays in durable mode (implies
  /// enable_persistence(dir)). The next pull_up_to() fetches only periods
  /// the recovered state does not cover. CAs must be registered with the
  /// store first.
  DictionaryStore::RecoveryReport recover(const std::string& dir,
                                          persist::WalOptions opts = {});

  /// CDN cold start (§VIII): one GET for the CA's snapshot+delta object,
  /// installed via DictionaryStore::bootstrap_replica. On success the feed
  /// cursor fast-forwards past the periods the snapshot covers, but only
  /// past those every other CA holding a root covers too; later pulls skip
  /// this CA's messages in periods its snapshot covers. Non-ok codes say
  /// why: not_found (no object), malformed, or an acceptance-rule
  /// rejection.
  svc::Status bootstrap(const cert::CaId& ca, TimeMs now);

 private:
  void apply_message(const ca::FeedMessage& msg, UnixSeconds now);
  /// One checkpoint cycle under cycle_mu_: freeze under freeze_mu_,
  /// persist off-lock, then the store's conditional WAL reset.
  /// `sync_log_first` additionally fsyncs the WAL inside the freeze window,
  /// so the synchronous checkpoint() makes the log durable before the
  /// checkpoint; the background thread skips it to keep the stall minimal
  /// (the checkpoint supersedes those records).
  void checkpoint_once(bool sync_log_first);
  void checkpoint_loop(double interval_s);
  void run_sync(const cert::CaId& ca, UnixSeconds now);
  void count_rejected(svc::Status code);
  void record_failure(svc::Status code, TimeMs now);
  void record_success(TimeMs now);
  /// One envelope GET through cdn_rpc_.
  svc::CallResult fetch_object(const std::string& path, TimeMs now);

  Config config_;
  DictionaryStore* store_;
  svc::Transport* cdn_rpc_ = nullptr;
  svc::Transport* sync_rpc_ = nullptr;
  /// CA -> the first feed period its bootstrapped snapshot does not cover.
  /// In memory only: after a restart those periods are re-applied, and the
  /// store rejects them as stale.
  std::map<cert::CaId, std::uint64_t> boot_next_;
  Totals totals_;
  Health health_;
  std::string persist_dir_;
  std::unique_ptr<persist::WriteAheadLog> wal_;
  /// Makes a checkpoint freeze between feed periods: a pull or bootstrap
  /// holds it for its whole batch, and a checkpoint holds it to sync the
  /// log and freeze, never across the file write. A checkpoint taken
  /// mid-period would hold some of the period's messages but not the
  /// cursor past it, and re-applying an issuance the replica already holds
  /// reports gap_detected and marks the replica desynchronized.
  std::mutex freeze_mu_;
  /// Held for a whole checkpoint cycle: checkpoint() and the background
  /// thread never write the same tmp names at once.
  std::mutex cycle_mu_;
  std::thread ckpt_thread_;
  std::mutex ckpt_mu_;             // guards ckpt_stop_ with ckpt_cv_
  std::condition_variable ckpt_cv_;
  bool ckpt_stop_ = false;
  mutable std::mutex stats_mu_;
  CheckpointStats ckpt_stats_;
  // Owned resilient wrappers installed by enable_resilience().
  std::unique_ptr<svc::ResilientTransport> resilient_cdn_;
  std::unique_ptr<svc::ResilientTransport> resilient_sync_;
};

}  // namespace ritm::ra
