#include "sim/simulator.hpp"

#include <utility>

#include "obs/metrics.hpp"

namespace lucid::sim {

void Simulator::at(Time t, Callback cb) {
  if (t < now_) t = now_;
  queue_.push(Entry{t, seq_++, std::move(cb)});
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  // priority_queue::top returns const&; the callback must be moved out via
  // a copy of the entry before pop.
  Entry e = queue_.top();
  queue_.pop();
  now_ = e.t;
  e.cb();
  return true;
}

void Simulator::run_until(Time t) {
  while (!queue_.empty() && queue_.top().t <= t) {
    step();
  }
  if (now_ < t) now_ = t;
}

RunStatus Simulator::run(std::uint64_t max_events) {
  for (std::uint64_t i = 0; i < max_events; ++i) {
    if (!step()) return RunStatus::kQuiescent;
  }
  if (queue_.empty()) return RunStatus::kQuiescent;
  static obs::Counter& trips = obs::Registry::global().counter(
      "lucid_sim_guard_trips_total",
      "Simulator::run calls stopped by the max_events runaway guard");
  trips.add();
  return RunStatus::kGuardTripped;
}

}  // namespace lucid::sim
