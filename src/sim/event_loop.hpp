// Deterministic discrete-event simulator: a clock and a queue of callbacks
// in simulated time. integration_test's end-to-end worlds and the
// heartbleed_replay example run on it (sim_test pins the loop itself); the
// paper benches and the scenario engine keep their own time.
//
// Events at the same timestamp run in scheduling order (a stable tiebreaker),
// so a given seed reproduces an entire experiment bit-for-bit.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/time.hpp"

namespace ritm::sim {

using EventId = std::uint64_t;

class EventLoop {
 public:
  TimeMs now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now). Returns a cancellable id.
  EventId schedule_at(TimeMs t, std::function<void()> fn);

  /// Schedules `fn` after `delay` milliseconds.
  EventId schedule_after(TimeMs delay, std::function<void()> fn);

  /// Schedules `fn(now)` every `period` starting at `start`, until cancelled.
  /// Returns the id to cancel the whole series.
  EventId schedule_every(TimeMs start, TimeMs period,
                         std::function<void(TimeMs)> fn);

  /// Cancels a pending event (or periodic series). No-op if already fired.
  void cancel(EventId id);

  /// Runs the next event; returns false if the queue is empty.
  bool step();

  /// Runs until the queue is empty.
  void run();

  /// Runs every event with time <= `t`, then sets now to `t`.
  void run_until(TimeMs t);

  std::size_t pending() const noexcept;

 private:
  struct Scheduled {
    TimeMs time;
    std::uint64_t seq;  // FIFO tiebreaker for same-time events
    EventId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Scheduled& a, const Scheduled& b) const noexcept {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  TimeMs now_ = 0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::priority_queue<Scheduled, std::vector<Scheduled>, Later> queue_;
  std::unordered_set<EventId> cancelled_;
};

}  // namespace ritm::sim
