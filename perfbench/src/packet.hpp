// The native packet path: seeded injections in bounded slices through
// Replica::schedule_inject, the event loop in Replica::run_until, and the
// generated run_batch kernel on its own.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "native/engine.hpp"

namespace perfbench {

struct AppPackets {
  std::string app;
  std::uint64_t injected = 0;
  std::uint64_t rejected = 0;
  std::uint64_t executed = 0;
  std::uint64_t recirculations = 0;
  std::uint64_t delayed_enqueues = 0;
  std::uint64_t fingerprint = 0;
  std::string check_error;  // interp-replay mismatch; empty when identical
};

/// One replica per paper app. Constructing it is part of set-up.
class PacketSection {
 public:
  PacketSection(
      const Options& opt,
      std::vector<std::shared_ptr<const lucid::native::Program>> progs);
  ~PacketSection();
  PacketSection(const PacketSection&) = delete;
  PacketSection& operator=(const PacketSection&) = delete;

  /// Runs the apps one after another, `slices_per_app` slices each, then
  /// drains each (timed), replays a prefix of its slices through the
  /// interpreter, compares register state and counters, and releases the
  /// app's replica. Returns the passes executed and the wall of the timed
  /// calls over all apps; `apps` receives the per-app counts and checks.
  Round run(int slices_per_app, std::vector<AppPackets>* apps);

 private:
  struct App;
  const Options& opt_;
  std::vector<std::unique_ptr<App>> apps_;
};

/// Raw generated-kernel cost: the app's handled events through
/// Module::raw_run_batch at the shape's batch size, timed by a Probe
/// ("native.kernel"). Outside the packet wall.
void kernel_probe(const Options& opt, const lucid::native::Program& prog);

/// Inputs only (no engine): the fingerprint of the first `slices` slices of
/// seeded injections for the program (self-test hook).
std::uint64_t input_fingerprint(const Options& opt,
                                const lucid::ir::ProgramIR& ir,
                                std::size_t app_index, int slices);

}  // namespace perfbench
