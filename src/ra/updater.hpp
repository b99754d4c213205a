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
// servers. Pulls, cold starts and consistency checks share one GET path,
// and the store's install rule decides every replica change.
//
// Resilience: the constructor wraps both transports in
// svc::ResilientTransport (deadlines, capped backoff with jitter, circuit
// breaker), so every RA pulls through the path the fault matrix proves. A
// pull whose retries run out never advances the cursor (the period would
// be skipped forever) — instead the updater's Health enters degraded mode,
// the store keeps serving the last-verified replica, and staleness_s()
// reports how stale it is.
//
// Durable mode: enable_persistence() opens a write-ahead log and attaches
// it to the store, which logs every accepted feed message and every cursor
// advance; checkpoint() and the background thread run the store's one
// checkpoint cycle (DictionaryStore::persist_to) into the same directory.
// recover() then restores the store from checkpoint + WAL tail and resumes
// pulling at the recovered cursor, instead of re-syncing the entire
// issuance history. bootstrap() is the CDN cold-start path: one GET for the
// snapshot+delta object replaces the full replay entirely.
//
// Locking: the updater takes no lock around the store. The store's writer
// mutex orders every mutation, cursor advance and checkpoint copy, so a
// checkpoint may land between two messages of one feed period; a restart
// that lost the WAL past it re-pulls the period, and the store answers the
// issuances it already holds with ok (re-delivery). pull_up_to(),
// bootstrap() and consistency_check() share the updater's own counters:
// call them from one thread.
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
    std::uint64_t bytes = 0;             // object bytes downloaded
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
  /// Both get a svc::ResilientTransport and must outlive the updater.
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

  /// The resilient wrappers every request goes through (resilient_sync()
  /// is nullptr without a sync transport); exposed so tests can inject
  /// virtual time and read retry stats.
  svc::ResilientTransport* resilient_cdn() noexcept { return cdn_rpc_.get(); }
  svc::ResilientTransport* resilient_sync() noexcept {
    return sync_rpc_.get();
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
  /// every cursor advance, fsync-batched at the log's default
  /// (persist::WalOptions::sync_every records).
  void enable_persistence(const std::string& dir);

  /// True once enable_persistence()/recover() has been called.
  bool persistent() const noexcept { return wal_ != nullptr; }

  /// Commits a checkpoint of the store (replicas and feed cursor) into the
  /// persistence directory and resets the WAL — the O(history) part of a
  /// restart collapses into the checkpoint; only the log tail is replayed.
  /// Runs DictionaryStore::persist_to on the calling thread with the WAL
  /// fsynced before the copy; waits for a background cycle in flight, and
  /// is safe against concurrent pulls.
  void checkpoint();

  // ------------------------------------------- background checkpointing

  /// Spawns a thread that runs DictionaryStore::persist_to every
  /// `interval_s` seconds while the RA keeps serving and pulling (without
  /// the WAL fsync checkpoint() adds: the checkpoint supersedes those
  /// records). The measured stall is the cycle's hold of the store's writer
  /// mutex, timed once held: neither the file write nor the wait for a
  /// mutation in progress counts. The WAL is reset only when nothing was
  /// logged while the checkpoint was written; otherwise the log stays
  /// intact (recovery filters records the checkpoint already covers) and
  /// the next cycle retries. Serving reads never wait for a checkpoint.
  /// Requires persistence; throws std::logic_error otherwise or if already
  /// running.
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
    std::uint64_t last_stall_us = 0;     // newest writer-mutex hold
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
  DictionaryStore::RecoveryReport recover(const std::string& dir);

  /// CDN cold start (§VIII): one GET for the CA's snapshot+delta object,
  /// installed via DictionaryStore::bootstrap_replica. On success the feed
  /// cursor fast-forwards past the periods the snapshot covers, but only
  /// past those every other CA holding a root covers too; later pulls skip
  /// this CA's messages in periods its snapshot covers. Non-ok codes say
  /// why: not_found (no object), malformed, or an acceptance-rule
  /// rejection (a signed root that names another CA is unknown_ca: the
  /// object's own unsigned CA field decides nothing).
  svc::Status bootstrap(const cert::CaId& ca, TimeMs now);

 private:
  void apply_message(const ca::FeedMessage& msg, UnixSeconds now);
  /// One DictionaryStore::persist_to cycle, counted into checkpoint_stats().
  void checkpoint_once(bool sync_log_first);
  void checkpoint_loop(double interval_s);
  void run_sync(const cert::CaId& ca, UnixSeconds now);
  /// Counts one outcome: applied_ok, or a rejection under its code.
  void count(svc::Status code);
  void record_failure(svc::Status code, TimeMs now);
  void record_success(TimeMs now);
  /// The one GET path: calls cdn_get through cdn_rpc_, unwraps the body
  /// (cdn::decode_get_response) into `data` and counts its bytes into
  /// totals().bytes. Otherwise returns the transport or served status, or
  /// malformed for a body that does not decode.
  svc::Status get_object(const std::string& path, TimeMs now, Bytes& data);

  Config config_;
  DictionaryStore* store_;
  std::unique_ptr<svc::ResilientTransport> cdn_rpc_;
  std::unique_ptr<svc::ResilientTransport> sync_rpc_;  // null: no sync
  /// CA -> the first feed period its bootstrapped snapshot does not cover.
  /// In memory only: after a restart those periods are re-applied, and the
  /// store rejects their older roots as stale and answers the snapshot's
  /// own root as a re-delivery.
  std::map<cert::CaId, std::uint64_t> boot_next_;
  Totals totals_;
  Health health_;
  std::string persist_dir_;
  std::unique_ptr<persist::WriteAheadLog> wal_;
  std::thread ckpt_thread_;
  std::mutex ckpt_mu_;             // guards ckpt_stop_ with ckpt_cv_
  std::condition_variable ckpt_cv_;
  bool ckpt_stop_ = false;
  mutable std::mutex stats_mu_;
  CheckpointStats ckpt_stats_;
};

}  // namespace ritm::ra
