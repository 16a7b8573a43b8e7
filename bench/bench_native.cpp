// Native engine speedup: the JIT-compiled execution engine (src/native) vs
// the reference AST-walking interpreter, on the ten paper applications.
//
// Methodology: for each app, build one randomized schedule (the same
// differential harness the test suite uses — timer events seeded once,
// traffic round-robin with ~1 us spacing), then run it through both engines
// several times and keep each engine's best wall time. Throughput is
// pipeline passes per second of wall time. The speedup only counts if the
// runs are indistinguishable, so every row re-checks the differential-state
// contract: byte-identical register state plus every shared counter.
//
// A second column measures the module's raw batch entry point
// (lucid_native_run_batch) on a synthetic 64k-packet vector for ~100 ms
// (bench::raw_kernel_pps) — the ceiling once the event-loop bookkeeping is
// amortized away.
//
// Exit status is the acceptance gate: non-zero unless every app holds the
// state contract AND runs >= 10x faster than the interpreter.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "bench/bench_common.hpp"
#include "native/differential.hpp"

namespace {

using namespace lucid;

constexpr int kTrafficEvents = 2000;
constexpr int kReps = 3;
constexpr double kRequiredSpeedup = 10.0;

struct AppRow {
  std::string key;
  bool state_identical = false;
  std::string detail;
  std::uint64_t passes = 0;  // pipeline passes executed (identical per rep)
  double interp_s = 0.0;     // best of kReps
  double native_s = 0.0;     // best of kReps
  double interp_pps = 0.0;
  double native_pps = 0.0;
  double speedup = 0.0;
  double batch_pps = 0.0;    // raw run_batch, no event loop
  double compile_ms = 0.0;
  std::string jit_origin;    // compiled | disk: what compile_ms measures
};

AppRow run_app(const apps::AppSpec& spec, std::uint64_t seed) {
  AppRow row;
  row.key = spec.key;

  interp::TestbedConfig probe_cfg;
  probe_cfg.program_name = spec.key;
  interp::Testbed probe(spec.source, probe_cfg);
  if (!probe.ok()) {
    row.detail = "compile failed: " + probe.diagnostics();
    return row;
  }
  const auto sched = native::diff::make_schedule(probe.compilation().ir(),
                                                 seed, kTrafficEvents);

  std::string err;
  const auto prog =
      native::Program::build(probe.compilation_ptr(), &err);
  if (prog == nullptr) {
    row.detail = "native build failed: " + err;
    return row;
  }
  row.compile_ms = prog->module().compile_ms();
  row.jit_origin = native::origin_name(prog->module().origin());

  // Both engines are deterministic, so reps only tighten the timing — the
  // state compared below is the same on every rep.
  native::diff::EngineResult iref;
  native::diff::EngineResult nref;
  for (int rep = 0; rep < kReps; ++rep) {
    auto i = native::diff::run_interp(spec.source, spec.key, sched);
    auto n = native::diff::run_native(prog, sched);
    if (!i.ok || !n.ok) {
      row.detail = !i.ok ? i.error : n.error;
      return row;
    }
    if (rep == 0 || i.wall_s < iref.wall_s) iref = std::move(i);
    if (rep == 0 || n.wall_s < nref.wall_s) nref = std::move(n);
  }

  row.detail = native::diff::compare(prog->ir(), iref, nref);
  row.state_identical = row.detail.empty();
  row.passes = iref.executed;
  row.interp_s = iref.wall_s;
  row.native_s = nref.wall_s;
  if (row.interp_s > 0) {
    row.interp_pps = static_cast<double>(row.passes) / row.interp_s;
  }
  if (row.native_s > 0) {
    row.native_pps = static_cast<double>(row.passes) / row.native_s;
  }
  if (row.native_s > 0) row.speedup = row.interp_s / row.native_s;
  bench::KernelWorkload w = bench::make_kernel_workload(*prog, seed * 31 + 7);
  row.batch_pps = bench::raw_kernel_pps(*prog, w, 0.1);
  return row;
}

}  // namespace

int main() {
  bench::print_header(
      "Native engine",
      "JIT-compiled pipeline vs reference interpreter, ten paper apps "
      "(differential-state contract enforced per row)");

  std::vector<AppRow> rows;
  std::uint64_t seed = 0xBE11C0DE;
  for (const auto& spec : apps::all_apps()) {
    rows.push_back(run_app(spec, seed++));
  }

  std::printf("  %-8s | %9s | %11s | %11s | %7s | %12s | %5s\n", "app",
              "passes", "interp pps", "native pps", "speedup", "batch pps",
              "state");
  bench::print_rule();
  bool all_ok = true;
  double min_speedup = 0.0;
  double log_sum = 0.0;
  std::size_t timed = 0;
  for (const auto& r : rows) {
    std::printf("  %-8s | %9llu | %11.0f | %11.0f | %6.1fx | %12.0f | %s\n",
                r.key.c_str(),
                static_cast<unsigned long long>(r.passes), r.interp_pps,
                r.native_pps, r.speedup, r.batch_pps,
                r.state_identical ? "ok" : "DIFF");
    if (!r.state_identical) {
      std::printf("    !! %s\n", r.detail.c_str());
      all_ok = false;
    }
    if (r.speedup < kRequiredSpeedup) all_ok = false;
    if (timed == 0 || r.speedup < min_speedup) min_speedup = r.speedup;
    if (r.speedup > 0) {
      log_sum += std::log(r.speedup);
      ++timed;
    }
  }
  const double geomean =
      timed > 0 ? std::exp(log_sum / static_cast<double>(timed)) : 0.0;
  bench::print_rule();
  std::printf("  min speedup %.1fx, geomean %.1fx (gate: every app >= "
              "%.0fx with byte-identical state)\n",
              min_speedup, geomean, kRequiredSpeedup);

  bench::JsonWriter j;
  j.obj_open()
      .field("bench", "bench_native")
      .field("traffic_events", kTrafficEvents)
      .field("reps", kReps)
      .field("required_speedup", kRequiredSpeedup);
  j.arr_open("apps");
  for (const auto& r : rows) {
    j.obj_open()
        .field("key", r.key)
        .field("state_identical", r.state_identical)
        .field("passes", r.passes)
        .field("interp_s", r.interp_s)
        .field("native_s", r.native_s)
        .field("interp_pps", r.interp_pps)
        .field("native_pps", r.native_pps)
        .field("speedup", r.speedup)
        .field("batch_pps", r.batch_pps)
        .field("compile_ms", r.compile_ms)
        .field("jit_origin", r.jit_origin)
        .obj_close();
  }
  j.arr_close();
  j.field("min_speedup", min_speedup)
      .field("geomean_speedup", geomean)
      .field("gate_passed", all_ok)
      .obj_close();
  j.save("BENCH_native.json");

  if (!all_ok) {
    std::fprintf(stderr,
                 "FAIL: native engine gate not met (state contract or "
                 "%.0fx floor)\n",
                 kRequiredSpeedup);
    return 1;
  }
  return 0;
}
