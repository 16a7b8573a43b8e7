// Control in the loop: the stateful firewall (SFW) on the interpreter
// testbed, carrying paired outbound/return flows while a ctrl::ControlPlane
// submits batched remote installs into the same cuckoo-table arrays.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "ctrl/control_plane.hpp"

namespace perfbench {

struct ChurnRun {
  std::uint64_t packets = 0;    // pkt_out + pkt_in arrivals registered
  std::uint64_t passes = 0;     // interpreter handler executions
  std::uint64_t pkt_in = 0;     // executed pkt_in handlers
  std::int64_t allowed = 0;
  std::int64_t denied = 0;
  /// Per applied batch: simulated time from the submit() call to the apply
  /// point that committed it.
  std::vector<std::int64_t> apply_ns;
  lucid::ctrl::ControlPlaneStats stats;
  std::uint64_t fingerprint = 0;
};

/// SFW on a one-switch interp::Testbed with a ctrl::RuntimeControl attached.
/// Constructing it (the SFW front end, the testbed, the plane) is part of
/// set-up.
class ChurnSection {
 public:
  explicit ChurnSection(const Options& opt);
  ~ChurnSection();
  ChurnSection(const ChurnSection&) = delete;
  ChurnSection& operator=(const ChurnSection&) = delete;

  /// Empty when the testbed built; else the compile diagnostics.
  [[nodiscard]] std::string error() const;

  /// `slices` slices of arrivals, each with its control batches submitted
  /// at evenly spaced simulated times across the slice, then a timed settle.
  /// Returns the passes, installs and wall of the timed calls; `out` gets
  /// the counts read after flushing the queue outside timing.
  Round run(int slices, ChurnRun* out);

 private:
  struct State;
  const Options& opt_;
  std::unique_ptr<State> s_;
};

/// Empty when the run is consistent: every batch applied, the queue
/// drained, and allowed + denied equals the executed pkt_in count.
std::string check_churn(const ChurnRun& run);

/// Inputs only: the fingerprint of the first `slices` slices of churn
/// arrivals and batches for this seed (self-test hook).
std::uint64_t churn_fingerprint(const Options& opt, int slices);

}  // namespace perfbench
