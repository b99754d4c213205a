#include "ra/updater.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "ca/sync_service.hpp"
#include "cdn/service.hpp"

namespace ritm::ra {

RaUpdater::RaUpdater(Config config, DictionaryStore* store,
                     svc::Transport* cdn_rpc, svc::Transport* sync_rpc)
    : config_(config), store_(store) {
  if (store_ == nullptr || cdn_rpc == nullptr) {
    throw std::invalid_argument("RaUpdater: null store or cdn transport");
  }
  cdn_rpc_ = std::make_unique<svc::ResilientTransport>(cdn_rpc);
  if (sync_rpc != nullptr) {  // its own jitter seed: backoffs do not align
    sync_rpc_ = std::make_unique<svc::ResilientTransport>(
        sync_rpc, svc::RetryPolicy{}, svc::BreakerPolicy{},
        0x7e57 ^ 0x9e3779b97f4a7c15ull);
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

void RaUpdater::count(svc::Status code) {
  if (code == svc::Status::ok) {
    ++totals_.applied_ok;
    return;
  }
  ++totals_.rejected;
  ++totals_.rejected_by[code];
}

svc::Status RaUpdater::get_object(const std::string& path, TimeMs now,
                                  Bytes& data) {
  svc::Request req;
  req.method = svc::Method::cdn_get;
  req.body = cdn::encode_get_request(path, now, config_.location);
  const svc::CallResult result = cdn_rpc_->call(req);
  if (!result.ok()) return result.error();
  auto payload = cdn::decode_get_response(ByteSpan(result.response.body));
  if (!payload) return svc::Status::malformed;  // envelope body corrupt
  totals_.bytes += payload->data.size();
  data = std::move(payload->data);
  return svc::Status::ok;
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
  count(result);
}

void RaUpdater::run_sync(const cert::CaId& ca, UnixSeconds now) {
  if (sync_rpc_ == nullptr) return;
  ++totals_.syncs;
  svc::Request req;
  req.method = svc::Method::feed_delta;
  req.body = ca::encode_delta_request({ca, store_->have_n(ca)}, now,
                                      next_period());
  const svc::CallResult result = sync_rpc_->call(req);
  if (!result.ok()) {
    count(result.error());
    return;
  }
  // Skip the leading resume_period: the cursor keeps pulling every period,
  // since a period the sync subsumes for this CA can still carry another
  // CA's messages.
  const ByteSpan body(result.response.body);
  std::optional<dict::SyncResponse> resp;
  if (body.size() >= 8) resp = dict::SyncResponse::decode(body.subspan(8));
  if (!resp) {
    count(svc::Status::malformed);
    return;
  }
  totals_.sync_bytes += resp->wire_size();
  count(store_->apply_sync(*resp, now));
}

RaUpdater::PullResult RaUpdater::pull_up_to(std::uint64_t upto_period,
                                            TimeMs now) {
  PullResult result;
  const UnixSeconds now_s = to_seconds(now);
  while (next_period() <= upto_period) {
    const std::uint64_t period = next_period();
    Bytes data;
    svc::Status got = get_object(ca::feed_path(period), now, data);
    ++totals_.pulls;
    if (got == svc::Status::ok) {
      result.bytes += data.size();
      const auto feed = ca::decode_feed(ByteSpan(data));
      if (feed) {
        for (const auto& msg : *feed) {
          apply_message(msg, now_s);
          ++result.messages;
        }
      } else {
        got = svc::Status::malformed;  // feed bytes corrupt
      }
    }
    // A missing period object is normal (nothing published yet). Any other
    // failure — transport error, version skew, a served error, or bytes
    // that will not decode — must NOT advance the cursor: marking the
    // period covered would skip its feed forever. Count the failure, enter
    // degraded mode (the replica keeps serving its last-verified state,
    // visibly stale), and retry the same period on the next pull instead.
    if (got != svc::Status::ok && got != svc::Status::not_found) {
      count(got);
      record_failure(got, now);
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

void RaUpdater::enable_persistence(const std::string& dir) {
  persist_dir_ = dir;
  std::filesystem::create_directories(dir);
  wal_ = std::make_unique<persist::WriteAheadLog>();
  wal_->open(persist::wal_path(dir));
  store_->attach_wal(wal_.get());
}

void RaUpdater::checkpoint() {
  if (!wal_) {
    throw std::logic_error("RaUpdater::checkpoint: persistence not enabled");
  }
  checkpoint_once(/*sync_log_first=*/true);
}

void RaUpdater::checkpoint_once(bool sync_log_first) {
  const DictionaryStore::CheckpointCycle cycle =
      store_->persist_to(persist_dir_, sync_log_first);
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++ckpt_stats_.checkpoints;
  if (cycle.wal_reset) ++ckpt_stats_.wal_resets;
  else ++ckpt_stats_.wal_reset_skipped;
  ckpt_stats_.last_bytes = cycle.bytes;
  ckpt_stats_.bytes_written += cycle.bytes;
  ckpt_stats_.parts_written += cycle.parts_written;
  ckpt_stats_.parts_reused += cycle.parts_reused;
  ckpt_stats_.last_stall_us = cycle.stall_us;
  ckpt_stats_.max_stall_us = std::max(ckpt_stats_.max_stall_us, cycle.stall_us);
  ckpt_stats_.total_stall_us += cycle.stall_us;
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

DictionaryStore::RecoveryReport RaUpdater::recover(const std::string& dir) {
  auto report = store_->recover_from(dir);
  // Stay durable: reopen the WAL for appending (this truncates the torn
  // tail recovery skipped) and resume logging.
  enable_persistence(dir);
  return report;
}

svc::Status RaUpdater::bootstrap(const cert::CaId& ca, TimeMs now) {
  Bytes data;
  const svc::Status got = get_object(ca::cold_start_path(ca), now, data);
  if (got != svc::Status::ok) return got;
  const auto obj = ca::ColdStartObject::decode(ByteSpan(data));
  if (!obj) return svc::Status::malformed;
  const ApplyResult applied = store_->bootstrap_replica(
      ca, ByteSpan(obj->dict_snapshot), obj->signed_root, obj->freshness,
      to_seconds(now));
  count(applied);
  if (applied != ApplyResult::ok) return applied;
  ++totals_.bootstraps;
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
  Bytes data;
  if (get_object(ca::DistributionPoint::root_path(ca), now, data) !=
      svc::Status::ok) {
    return std::nullopt;
  }
  const auto root = dict::SignedRoot::decode(ByteSpan(data));
  if (!root) return std::nullopt;
  auto evidence = store_->cross_check(*root);
  if (evidence) ++totals_.misbehaviour_detected;
  return evidence;
}

}  // namespace ritm::ra
