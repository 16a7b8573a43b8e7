// The program lifecycle: .lucid source -> Parse/Sema/Lower/Layout -> emit
// -> JIT compile -> dlopen -> first executed packet, for the ten paper apps.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "native/engine.hpp"

namespace perfbench {

/// One app's trip from source to its first executed packet. Every layer
/// call on the way is timed by a Probe (and traced as a span).
struct AppBuild {
  std::string app;
  bool ok = false;
  std::string error;
  double compile_ms = 0;  // Module::compile_ms inside Program::build
  std::shared_ptr<const lucid::native::Program> prog;
};

struct Lifecycle {
  std::vector<AppBuild> apps;  // Figure 9 order
  int threads = 1;
  double wall_s = 0;           // all apps, source -> first packet
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

/// Builds every paper app, serially or on min(nproc, 4) threads. The timed
/// region covers exactly the per-app source -> first packet work.
Lifecycle build_apps(const Options& opt, bool parallel);

/// Outside every timed region: probes one emit_source call per app and runs
/// the interpreter-vs-native differential on a short seeded schedule.
void check_apps(const Options& opt, Lifecycle& lc);

}  // namespace perfbench
