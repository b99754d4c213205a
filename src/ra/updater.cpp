#include "ra/updater.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "ca/sync_service.hpp"
#include "cdn/service.hpp"
#include "persist/recovery.hpp"

namespace ritm::ra {

RaUpdater::RaUpdater(Config config, DictionaryStore* store,
                     svc::Transport* cdn_rpc, svc::Transport* sync_rpc)
    : config_(config),
      store_(store),
      cdn_rpc_(cdn_rpc),
      sync_rpc_(sync_rpc) {
  if (store_ == nullptr || cdn_rpc_ == nullptr) {
    throw std::invalid_argument("RaUpdater: null store or cdn transport");
  }
}

void RaUpdater::enable_resilience(svc::RetryPolicy retry,
                                  svc::BreakerPolicy breaker,
                                  std::uint64_t jitter_seed) {
  if (resilient_cdn_) {
    throw std::logic_error("RaUpdater: resilience already enabled");
  }
  resilient_cdn_ = std::make_unique<svc::ResilientTransport>(
      cdn_rpc_, retry, breaker, jitter_seed);
  cdn_rpc_ = resilient_cdn_.get();
  if (sync_rpc_ != nullptr) {
    resilient_sync_ = std::make_unique<svc::ResilientTransport>(
        sync_rpc_, retry, breaker, jitter_seed ^ 0x9e3779b97f4a7c15ull);
    sync_rpc_ = resilient_sync_.get();
  }
}

void RaUpdater::record_failure(svc::Status code, TimeMs now) {
  ++health_.consecutive_failures;
  health_.last_error = code;
  if (!health_.degraded) {
    health_.degraded = true;
    health_.degraded_since = now;
  }
}

void RaUpdater::record_success(TimeMs now) {
  health_.consecutive_failures = 0;
  health_.degraded = false;
  health_.degraded_since = -1;
  health_.last_success = now;
}

void RaUpdater::count_rejected(svc::Status code) {
  ++totals_.rejected;
  ++totals_.rejected_by[code];
}

svc::CallResult RaUpdater::fetch_object(const std::string& path, TimeMs now) {
  svc::Request req;
  req.method = svc::Method::cdn_get;
  req.body = cdn::encode_get_request(path, now, config_.location);
  svc::CallResult result = cdn_rpc_->call(req);
  totals_.latency_ms += result.latency_ms;
  return result;
}

void RaUpdater::apply_message(const ca::FeedMessage& msg, UnixSeconds now) {
  const cert::CaId& from = msg.type == ca::FeedMessage::Type::issuance
                               ? msg.issuance->signed_root.ca
                               : msg.freshness->ca;
  const auto boot = boot_next_.find(from);
  if (boot != boot_next_.end() && next_period() < boot->second) {
    return;  // the CA's bootstrapped snapshot already reflects this period
  }
  ++totals_.messages;
  ApplyResult result;
  if (msg.type == ca::FeedMessage::Type::issuance) {
    result = store_->apply_issuance(*msg.issuance, now);
    if (result == ApplyResult::gap_detected) {
      run_sync(msg.issuance->signed_root.ca, now);
      return;
    }
  } else {
    const cert::CaId& ca = msg.freshness->ca;
    if (store_->knows(ca) &&
        (!store_->has_root(ca) || store_->needs_sync(ca))) {
      // A freshness statement is useless without the signed root it chains
      // to: a replica with no root (§VIII bootstrapping), or one whose gap
      // sync has not yet succeeded, fetches the full state first. This is
      // also what retries a failed gap sync at the next period.
      run_sync(ca, now);
      return;
    }
    result = store_->apply_freshness(*msg.freshness, now);
  }
  if (result == ApplyResult::ok) {
    ++totals_.applied_ok;
  } else {
    count_rejected(result);
  }
}

void RaUpdater::run_sync(const cert::CaId& ca, UnixSeconds now) {
  if (sync_rpc_ == nullptr) return;
  ++totals_.syncs;
  svc::Request req;
  req.method = svc::Method::feed_delta;
  req.body = ca::encode_delta_request({ca, store_->have_n(ca)}, now,
                                      next_period());
  const svc::CallResult result = sync_rpc_->call(req);
  totals_.latency_ms += result.latency_ms;
  if (!result.ok()) {
    count_rejected(result.error());
    return;
  }
  // Skip the leading resume_period: the cursor keeps pulling every period,
  // since a period the sync subsumes for this CA can still carry another
  // CA's messages.
  const ByteSpan body(result.response.body);
  std::optional<dict::SyncResponse> resp;
  if (body.size() >= 8) resp = dict::SyncResponse::decode(body.subspan(8));
  if (!resp) {
    count_rejected(svc::Status::malformed);
    return;
  }
  totals_.sync_bytes += resp->wire_size();
  const ApplyResult applied = store_->apply_sync(*resp, now);
  if (applied == ApplyResult::ok) {
    ++totals_.applied_ok;
  } else {
    count_rejected(applied);
  }
}

RaUpdater::PullResult RaUpdater::pull_up_to(std::uint64_t upto_period,
                                            TimeMs now) {
  // Exclude the checkpoint's freeze for the whole batch, so it sees the
  // replicas and the cursor between periods.
  std::lock_guard<std::mutex> freeze_lock(freeze_mu_);
  PullResult result;
  const UnixSeconds now_s = to_seconds(now);
  while (next_period() <= upto_period) {
    const std::uint64_t period = next_period();
    const auto fetch = fetch_object(ca::feed_path(period), now);
    ++totals_.pulls;
    result.latency_ms += fetch.latency_ms;
    if (fetch.ok()) {
      const auto payload =
          cdn::decode_get_response(ByteSpan(fetch.response.body));
      if (payload) {
        result.bytes += payload->data.size();
        totals_.bytes += payload->data.size();
        const auto feed = ca::decode_feed(ByteSpan(payload->data));
        if (feed) {
          for (const auto& msg : *feed) {
            apply_message(msg, now_s);
            ++result.messages;
          }
        } else {
          count_rejected(svc::Status::malformed);  // feed bytes corrupt
          record_failure(svc::Status::malformed, now);
          break;
        }
      } else {
        count_rejected(svc::Status::malformed);  // envelope body corrupt
        record_failure(svc::Status::malformed, now);
        break;
      }
    } else if (fetch.error() != svc::Status::not_found) {
      // A missing period object is normal (nothing published yet). Any
      // other failure — transport error, version skew, a served error, or
      // (above) a body that will not decode — must NOT advance the cursor:
      // marking the period covered would skip its feed forever. Count the
      // failure, enter degraded mode (the replica keeps serving its
      // last-verified state, visibly stale), and retry the same period on
      // the next pull instead.
      count_rejected(fetch.error());
      record_failure(fetch.error(), now);
      break;
    }
    store_->advance_feed_cursor(period + 1, now_s);
    record_success(now);
  }
  return result;
}

RaUpdater::~RaUpdater() {
  stop_checkpoints();
  // The store must never keep a pointer into the WAL this updater owns.
  if (wal_ && store_->wal() == wal_.get()) store_->attach_wal(nullptr);
}

void RaUpdater::enable_persistence(const std::string& dir,
                                   persist::WalOptions opts) {
  persist_dir_ = dir;
  std::filesystem::create_directories(dir);
  wal_ = std::make_unique<persist::WriteAheadLog>();
  wal_->open(persist::Recovery::wal_path(dir), opts);
  store_->attach_wal(wal_.get());
}

void RaUpdater::checkpoint() {
  if (!wal_) {
    throw std::logic_error("RaUpdater::checkpoint: persistence not enabled");
  }
  checkpoint_once(/*sync_log_first=*/true);
}

void RaUpdater::checkpoint_once(bool sync_log_first) {
  using Clock = std::chrono::steady_clock;
  std::lock_guard<std::mutex> cycle(cycle_mu_);
  DictionaryStore::FrozenStore frozen;
  std::uint64_t stall_us = 0;
  {
    // The freeze window — the only stall mutation drivers can observe.
    // Timed from the moment the lock is held: waiting for a pull to finish
    // stalls the checkpointer, not the pull.
    std::lock_guard<std::mutex> lock(freeze_mu_);
    const auto t0 = Clock::now();
    if (sync_log_first) wal_->sync();
    frozen = store_->freeze();
    stall_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              t0)
            .count());
  }
  // The expensive part — serialization and the fsync'd file commits — runs
  // off-lock against the frozen arenas while pulls keep landing.
  const persist::CheckpointWrite written =
      DictionaryStore::persist_frozen(frozen, persist_dir_);
  const bool reset = store_->reset_wal_if_unchanged(frozen);
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++ckpt_stats_.checkpoints;
  if (reset) ++ckpt_stats_.wal_resets;
  else ++ckpt_stats_.wal_reset_skipped;
  ckpt_stats_.last_bytes = written.bytes;
  ckpt_stats_.bytes_written += written.bytes;
  ckpt_stats_.parts_written += written.parts_written;
  ckpt_stats_.parts_reused += written.parts_reused;
  ckpt_stats_.last_stall_us = stall_us;
  ckpt_stats_.max_stall_us = std::max(ckpt_stats_.max_stall_us, stall_us);
  ckpt_stats_.total_stall_us += stall_us;
}

void RaUpdater::checkpoint_loop(double interval_s) {
  const auto interval = std::chrono::duration<double>(interval_s);
  std::unique_lock<std::mutex> lk(ckpt_mu_);
  while (!ckpt_stop_) {
    if (ckpt_cv_.wait_for(lk, interval, [this] { return ckpt_stop_; })) {
      break;
    }
    lk.unlock();
    checkpoint_once(/*sync_log_first=*/false);
    lk.lock();
  }
}

void RaUpdater::start_checkpoints(double interval_s) {
  if (!wal_) {
    throw std::logic_error(
        "RaUpdater::start_checkpoints: persistence not enabled");
  }
  if (ckpt_thread_.joinable()) {
    throw std::logic_error("RaUpdater::start_checkpoints: already running");
  }
  if (interval_s <= 0) {
    throw std::invalid_argument(
        "RaUpdater::start_checkpoints: interval must be > 0");
  }
  ckpt_stop_ = false;
  ckpt_thread_ = std::thread([this, interval_s] { checkpoint_loop(interval_s); });
}

void RaUpdater::stop_checkpoints() {
  if (!ckpt_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    ckpt_stop_ = true;
  }
  ckpt_cv_.notify_all();
  ckpt_thread_.join();
}

RaUpdater::CheckpointStats RaUpdater::checkpoint_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return ckpt_stats_;
}

DictionaryStore::RecoveryReport RaUpdater::recover(const std::string& dir,
                                                   persist::WalOptions opts) {
  auto report = store_->recover_from(dir);
  // Stay durable: reopen the WAL for appending (this truncates the torn
  // tail recovery skipped) and resume logging.
  enable_persistence(dir, opts);
  return report;
}

svc::Status RaUpdater::bootstrap(const cert::CaId& ca, TimeMs now) {
  std::lock_guard<std::mutex> freeze_lock(freeze_mu_);  // mutation driver
  const auto fetch = fetch_object(ca::cold_start_path(ca), now);
  if (!fetch.ok()) return fetch.error();
  const auto payload = cdn::decode_get_response(ByteSpan(fetch.response.body));
  if (!payload) return svc::Status::malformed;
  totals_.bytes += payload->data.size();
  const auto obj = ca::ColdStartObject::decode(ByteSpan(payload->data));
  if (!obj || obj->ca != ca) return svc::Status::malformed;
  const ApplyResult applied = store_->bootstrap_replica(
      ca, ByteSpan(obj->dict_snapshot), obj->signed_root, obj->freshness,
      to_seconds(now));
  if (applied != ApplyResult::ok) {
    count_rejected(applied);
    return applied;
  }
  ++totals_.bootstraps;
  ++totals_.applied_ok;
  // The snapshot covers this CA through upto_period. The cursor may skip a
  // period only if every other CA holding a root covers it too — through
  // the pulls below the cursor or its own bootstrap — or that CA's messages
  // in it would never be fetched. Never rewind a fresher cursor.
  std::uint64_t& covered = boot_next_[ca];
  covered = std::max(covered, obj->upto_period + 1);
  const std::uint64_t cursor = next_period();
  std::uint64_t next = covered;
  for (const cert::CaId& other : store_->ca_ids()) {
    if (other == ca || !store_->has_root(other)) continue;
    const auto it = boot_next_.find(other);
    next = std::min(next, it == boot_next_.end()
                              ? cursor
                              : std::max(cursor, it->second));
  }
  store_->advance_feed_cursor(next, to_seconds(now));
  return svc::Status::ok;
}

std::optional<MisbehaviourEvidence> RaUpdater::consistency_check(
    const cert::CaId& ca, TimeMs now) {
  ++totals_.consistency_checks;
  const auto fetch = fetch_object(ca::DistributionPoint::root_path(ca), now);
  if (!fetch.ok()) return std::nullopt;
  const auto payload = cdn::decode_get_response(ByteSpan(fetch.response.body));
  if (!payload) return std::nullopt;
  totals_.bytes += payload->data.size();
  const auto root = dict::SignedRoot::decode(ByteSpan(payload->data));
  if (!root) return std::nullopt;
  auto evidence = store_->cross_check(*root);
  if (evidence) ++totals_.misbehaviour_detected;
  return evidence;
}

std::optional<MisbehaviourEvidence> RaUpdater::gossip_check(
    const dict::SignedRoot& peer_root) {
  ++totals_.consistency_checks;
  auto evidence = store_->cross_check(peer_root);
  if (evidence) ++totals_.misbehaviour_detected;
  return evidence;
}

}  // namespace ritm::ra
