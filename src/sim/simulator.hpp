// Discrete-event simulation core: a nanosecond-resolution virtual clock and
// an ordered event queue. Every timing experiment in the reproduction (event
// scheduler accuracy, recirculation bandwidth, flow-installation latency)
// runs on this substrate.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace lucid::sim {

/// Simulation time in nanoseconds.
using Time = std::int64_t;

constexpr Time kNs = 1;
constexpr Time kUs = 1'000;
constexpr Time kMs = 1'000'000;
constexpr Time kSec = 1'000'000'000;

/// How Simulator::run ended.
enum class RunStatus {
  kQuiescent,    // the queue drained
  kGuardTripped  // max_events fired with events still pending
};

/// A single-threaded discrete-event scheduler. Callbacks scheduled for the
/// same instant run in FIFO order (stable by sequence number), which keeps
/// every simulation deterministic.
class Simulator {
 public:
  using Callback = std::function<void()>;

  /// Schedule `cb` at absolute time `t` (clamped to `now()`).
  void at(Time t, Callback cb);
  /// Schedule `cb` `delta` ns from now.
  void after(Time delta, Callback cb) { at(now_ + delta, std::move(cb)); }

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Runs one event; returns false when the queue is empty.
  bool step();
  /// Runs all events with time <= t; the clock ends at exactly t.
  void run_until(Time t);
  /// Runs to quiescence, or until `max_events` fire — a runaway guard for
  /// self-rearming timers (the PFC release ticker never lets the queue
  /// drain; bound such runs with run_until). A trip returns kGuardTripped
  /// and counts in `lucid_sim_guard_trips_total`.
  RunStatus run(std::uint64_t max_events = 100'000'000);

 private:
  struct Entry {
    Time t;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace lucid::sim
