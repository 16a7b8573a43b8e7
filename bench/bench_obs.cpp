// Observability overhead gate + sample trace/metrics producer.
//
// Part 1 (the gate): for each of the ten paper apps, pump a 64k synthetic
// packet vector through the native module three ways and compare pps:
//
//   raw      the module's generated entry point via Module::raw_run_batch()
//            — no instrumentation anywhere;
//   obs-off  Module::run_batch — batch-boundary metrics compiled in, tracing
//            compiled in but DISABLED (the shipping configuration);
//   obs-256  same, with tracing ENABLED at 1/256 sampling.
//
// Gates (geomean across apps, best-of-reps per mode — single-app jitter on a
// shared CI box is noise, a geometric regression is not):
//   obs-off >= (1 - 5%)  of raw
//   obs-256 >= (1 - 10%) of raw
//
// Part 2: a ten-app traced interpreter run (full sampling) that writes
// trace.json (Chrome trace-event JSON, loadable in Perfetto) and
// metrics.prom (Prometheus text exposition) next to BENCH_obs.json — CI
// validates both with tools/validate_obs.py and uploads the trace artifact.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "bench/bench_common.hpp"
#include "native/differential.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace lucid;

constexpr int kReps = 3;
constexpr double kMaxDisabledOverhead = 0.05;  // obs-off vs raw
constexpr double kMaxSampledOverhead = 0.10;   // obs-256 vs raw
constexpr double kMeasureSeconds = 0.08;

struct Workload {
  std::shared_ptr<const native::Program> prog;
  bench::KernelWorkload kernel;
};

bool build_workload(const apps::AppSpec& spec, std::uint64_t seed,
                    Workload* w, std::string* err) {
  interp::TestbedConfig probe_cfg;
  probe_cfg.program_name = spec.key;
  interp::Testbed probe(spec.source, probe_cfg);
  if (!probe.ok()) {
    *err = "compile failed: " + probe.diagnostics();
    return false;
  }
  w->prog = native::Program::build(probe.compilation_ptr(), err);
  if (w->prog == nullptr) return false;
  w->kernel = bench::make_kernel_workload(*w->prog, seed);
  if (w->kernel.packets.empty()) {
    *err = "no handled events";
    return false;
  }
  return true;
}

struct AppRow {
  std::string key;
  bool ok = false;
  std::string detail;
  double raw_pps = 0.0;
  double off_pps = 0.0;      // tracing compiled in, disabled
  double sampled_pps = 0.0;  // tracing enabled, 1/256 sampling
  [[nodiscard]] double off_ratio() const {
    return raw_pps > 0 ? off_pps / raw_pps : 0.0;
  }
  [[nodiscard]] double sampled_ratio() const {
    return raw_pps > 0 ? sampled_pps / raw_pps : 0.0;
  }
};

AppRow run_app(const apps::AppSpec& spec, std::uint64_t seed) {
  AppRow row;
  row.key = spec.key;
  Workload w;
  if (!build_workload(spec, seed, &w, &row.detail)) return row;

  // All three modes pump the same synthetic batch; raw is the shared
  // raw-kernel measurement, the other two go through the instrumented call.
  const native::Module& mod = w.prog->module();
  bench::KernelWorkload& k = w.kernel;
  auto instr_pps = [&] {
    return bench::pump_pps(k, kMeasureSeconds, [&] {
      mod.run_batch(k.ptrs.data(), k.packets.data(), k.chunk, k.out.data(),
                    k.counts.data());
    });
  };

  // Interleave modes per rep and keep each mode's best — back-to-back
  // measurements see the same machine state, so drift hits all three alike.
  obs::Tracer::global().disable();
  for (int rep = 0; rep < kReps; ++rep) {
    row.raw_pps = std::max(row.raw_pps,
                           bench::raw_kernel_pps(*w.prog, k, kMeasureSeconds));
    row.off_pps = std::max(row.off_pps, instr_pps());
    obs::TracerConfig cfg;
    cfg.sample_every = 256;
    obs::Tracer::global().enable(cfg);
    row.sampled_pps = std::max(row.sampled_pps, instr_pps());
    obs::Tracer::global().disable();
  }
  row.ok = true;
  return row;
}

double geomean(const std::vector<AppRow>& rows, double (AppRow::*m)() const) {
  double log_sum = 0.0;
  std::size_t n = 0;
  for (const auto& r : rows) {
    const double v = (r.*m)();
    if (v > 0) {
      log_sum += std::log(v);
      ++n;
    }
  }
  return n > 0 ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

/// Part 2: run all ten apps through the interpreter with full tracing and
/// write the sample trace + metrics snapshot (the artifacts CI validates).
bool write_sample_artifacts() {
  obs::Tracer::global().clear();
  obs::TracerConfig cfg;
  cfg.sample_every = 1;
  obs::Tracer::global().enable(cfg);
  bool ok = true;
  std::uint64_t seed = 0x0B5EC0DE;
  for (const auto& spec : apps::all_apps()) {
    const auto dopts = [&] {
      DriverOptions o;
      o.program_name = spec.key;
      return o;
    }();
    const CompilationPtr comp = CompilerDriver(dopts).run(spec.source);
    if (!comp->ok()) {
      ok = false;
      continue;
    }
    const auto sched = native::diff::make_schedule(comp->ir(), seed++, 500);
    const auto res = native::diff::run_interp(spec.source, spec.key, sched);
    if (!res.ok) ok = false;
  }
  obs::Tracer::global().disable();
  {
    std::ofstream out("trace.json");
    out << obs::Tracer::global().chrome_json();
    std::printf("\nwrote trace.json (%llu events retained)\n",
                static_cast<unsigned long long>(
                    obs::Tracer::global().retained()));
  }
  {
    std::ofstream out("metrics.prom");
    out << obs::Registry::global().prometheus();
    std::printf("wrote metrics.prom\n");
  }
  return ok;
}

}  // namespace

int main() {
  bench::print_header(
      "Observability overhead",
      "Native batch path: raw vs metrics-on/tracing-off vs 1/256 sampling");

  std::vector<AppRow> rows;
  std::uint64_t seed = 0x0B5011D;
  for (const auto& spec : apps::all_apps()) {
    rows.push_back(run_app(spec, seed++));
  }

  std::printf("  %-8s | %12s | %12s | %12s | %8s | %8s\n", "app", "raw pps",
              "obs-off pps", "obs-256 pps", "off/raw", "256/raw");
  bench::print_rule();
  bool all_ran = true;
  for (const auto& r : rows) {
    if (!r.ok) {
      std::printf("  %-8s | !! %s\n", r.key.c_str(), r.detail.c_str());
      all_ran = false;
      continue;
    }
    std::printf("  %-8s | %12.0f | %12.0f | %12.0f | %8.3f | %8.3f\n",
                r.key.c_str(), r.raw_pps, r.off_pps, r.sampled_pps,
                r.off_ratio(), r.sampled_ratio());
  }
  bench::print_rule();

  const double off_geomean = geomean(rows, &AppRow::off_ratio);
  const double sampled_geomean = geomean(rows, &AppRow::sampled_ratio);
  const bool off_gate = off_geomean >= 1.0 - kMaxDisabledOverhead;
  const bool sampled_gate = sampled_geomean >= 1.0 - kMaxSampledOverhead;
  std::printf("  geomean obs-off/raw: %.3f (gate >= %.2f)  geomean "
              "obs-256/raw: %.3f (gate >= %.2f)\n",
              off_geomean, 1.0 - kMaxDisabledOverhead, sampled_geomean,
              1.0 - kMaxSampledOverhead);

  const bool artifacts_ok = write_sample_artifacts();

  bench::JsonWriter j;
  j.obj_open()
      .field("bench", "bench_obs")
      .field("reps", kReps)
      .field("max_disabled_overhead", kMaxDisabledOverhead)
      .field("max_sampled_overhead", kMaxSampledOverhead);
  j.arr_open("apps");
  for (const auto& r : rows) {
    j.obj_open()
        .field("key", r.key)
        .field("ok", r.ok)
        .field("raw_pps", r.raw_pps)
        .field("obs_off_pps", r.off_pps)
        .field("obs_sampled_pps", r.sampled_pps)
        .field("off_ratio", r.off_ratio())
        .field("sampled_ratio", r.sampled_ratio())
        .obj_close();
  }
  j.arr_close()
      .field("off_geomean", off_geomean)
      .field("sampled_geomean", sampled_geomean)
      .field("trace_events_retained", obs::Tracer::global().retained())
      .field("gate_passed", all_ran && off_gate && sampled_gate &&
                                artifacts_ok)
      .obj_close();
  j.save("BENCH_obs.json");

  if (!all_ran || !off_gate || !sampled_gate || !artifacts_ok) {
    std::fprintf(stderr,
                 "FAIL: observability gate (ran=%d off=%d sampled=%d "
                 "artifacts=%d)\n",
                 all_ran, off_gate, sampled_gate, artifacts_ok);
    return 1;
  }
  return 0;
}
