// Multi-core native data path: the sharded ReplicaFleet and the batched
// event loop, measured on the ten paper applications.
//
// Three acceptance gates, in the order they are checked:
//
//   (a) State: per-shard register state from a fleet run must be
//       byte-identical to a single-threaded Replica run of that shard's
//       injection subsequence (re-derived here with ReplicaFleet::route_of
//       and replayed on separate replicas). Checked on every
//       app. The same rows also pin the single-replica loop against the
//       reference interpreter on the burst schedules the timing uses.
//
//   (b) Scaling: aggregate event-loop pps at 8 shards >= 4x the 1-shard
//       baseline on the heaviest app. Requires real cores — below 8
//       hardware threads the gate is skipped and the skip is recorded in
//       the JSON (the sweep still runs so the trajectory has the numbers).
//
//   (c) Loop vs kernel: with one shard, the event loop's pps over the raw
//       generated kernel's pps must reach kMinLoopKernelRatio, geomean
//       across apps. The kernel side runs the schedule's own injections
//       through run_batch in burst-sized calls (bench::make_schedule_
//       workload) — the loop's traffic in the shape of its drains, without
//       the loop — on the same module and machine, so the ratio is the
//       share of kernel speed the event loop keeps. (Against bench_native's
//       synthetic round-robin batch the same ratio swung 0.32-0.52 between
//       runs on one box, because the two sides ran different handler work;
//       on the schedule's injections it holds within about 2%.) Each side
//       is the median of kSamples interleaved samples of >= kSampleSeconds
//       of work.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "bench/bench_common.hpp"
#include "native/differential.hpp"
#include "native/fleet.hpp"

namespace {

using namespace lucid;

constexpr int kBursts = 600;
constexpr int kBurstSize = 32;
constexpr int kScaleBursts = 400;
constexpr int kReps = 7;
constexpr int kSamples = 7;
constexpr double kSampleSeconds = 0.1;
constexpr int kStateShards = 4;
// Gate (c) floor. It replaces the old gate "batched loop >= 1.3x the
// per-entry loop", which went away with the per-entry loop. Calibrated on
// the last commit that still had that loop, with this bench's method (per
// app, the median of 7 interleaved samples of >= 100 ms each; a 4-thread
// x86-64 box, g++ 12, RelWithDebInfo): the geomean over the ten apps of
// per-entry loop pps / raw kernel pps came out 0.1085, 0.1079 and 0.1092
// in three runs. The floor is 1.3x the largest, rounded up, so it asks the
// batched loop for the same 1.3x over the per-entry loop as the old gate.
constexpr double kCalibratedEntryLoopKernelRatio = 0.1092;
constexpr double kBatchingFactor = 1.3;
constexpr double kMinLoopKernelRatio = 0.142;
static_assert(kMinLoopKernelRatio >=
              kBatchingFactor * kCalibratedEntryLoopKernelRatio);
constexpr double kRequiredScaling = 4.0;
constexpr int kScalingShards[] = {1, 2, 4, 8};

/// Median and median absolute deviation of a sample set.
struct Spread {
  double median = 0.0;
  double mad = 0.0;
};

Spread spread(std::vector<double> v) {
  if (v.empty()) return {};
  auto median_of = [](std::vector<double>& x) {
    std::sort(x.begin(), x.end());
    const std::size_t n = x.size();
    return n % 2 == 1 ? x[n / 2] : 0.5 * (x[n / 2 - 1] + x[n / 2]);
  };
  Spread s;
  s.median = median_of(v);
  for (double& x : v) x = std::fabs(x - s.median);
  s.mad = median_of(v);
  return s;
}

struct AppRow {
  std::string key;
  std::string detail;            // first failure, empty when clean
  bool interp_state_ok = false;  // single replica vs interpreter
  bool fleet_state_ok = false;   // per-shard differential-state contract
  std::uint64_t passes = 0;      // pipeline passes per schedule run
  Spread loop_pps;               // batched event loop, one replica
  Spread raw_pps;                // raw run_batch on the same injections
  [[nodiscard]] double ratio() const {
    return raw_pps.median > 0 ? loop_pps.median / raw_pps.median : 0.0;
  }
};

struct ScalePoint {
  int shards = 0;
  std::uint64_t executed = 0;
  double wall_s = 0.0;
  double pps = 0.0;
};

/// One event-loop sample: replays the schedule on fresh replicas until the
/// timed run_until calls add up to kSampleSeconds; packets per second.
double loop_sample(const std::shared_ptr<const native::Program>& prog,
                   const native::diff::Schedule& sched) {
  double wall = 0.0;
  std::uint64_t executed = 0;
  while (wall < kSampleSeconds) {
    const auto r = native::diff::run_native(prog, sched);
    wall += r.wall_s;
    executed += r.executed;
  }
  return static_cast<double>(executed) / wall;
}

/// Gate (a): run the schedule through a fleet, then re-derive each shard's
/// injection subsequence with the fleet's routing and replay it on a
/// plain single-threaded Replica. Every shard's register slab must match
/// byte for byte, and the merged pass count must equal the references' sum.
std::string check_fleet_state(
    const std::shared_ptr<const native::Program>& prog,
    const native::diff::Schedule& sched, int shards) {
  native::FleetConfig fcfg;
  fcfg.shards = shards;
  fcfg.label_metrics = false;  // keep the obs registry out of the bench
  native::ReplicaFleet fleet(prog, fcfg);
  for (const auto& e : sched.entries) {
    if (!fleet.schedule_inject(e.t, e.event, e.args)) {
      return "fleet rejected event " + e.event;
    }
  }
  fleet.run_until(sched.horizon);

  std::uint64_t ref_executed = 0;
  for (int s = 0; s < shards; ++s) {
    native::Replica ref(prog, native::ReplicaConfig{});
    for (const auto& e : sched.entries) {
      if (fleet.route_of(e.event, e.args) != static_cast<std::size_t>(s)) {
        continue;
      }
      if (!ref.schedule_inject(e.t, e.event, e.args)) {
        return "reference rejected event " + e.event;
      }
    }
    ref.run_until(sched.horizon);
    ref_executed += ref.stats().executed;

    const native::Replica& live = fleet.shard(static_cast<std::size_t>(s));
    for (std::size_t a = 0; a < ref.array_count(); ++a) {
      const auto& want = ref.array_cells(a);
      const auto& got = live.array_cells(a);
      for (std::size_t j = 0; j < want.size(); ++j) {
        if (want[j] != got[j]) {
          return "shard " + std::to_string(s) + " array " +
                 prog->ir().arrays[a].name + "[" + std::to_string(j) +
                 "]: reference=" + std::to_string(want[j]) +
                 " fleet=" + std::to_string(got[j]);
        }
      }
    }
    if (ref.stats().executed != live.stats().executed) {
      return "shard " + std::to_string(s) + " executed: reference=" +
             std::to_string(ref.stats().executed) +
             " fleet=" + std::to_string(live.stats().executed);
    }
  }
  if (fleet.merged_stats().executed != ref_executed) {
    return "merged executed differs from reference sum";
  }
  return {};
}

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
  const auto sched = native::diff::make_burst_schedule(
      probe.compilation().ir(), seed, kBursts, kBurstSize);
  std::string err;
  const auto prog = native::Program::build(probe.compilation_ptr(), &err);
  if (prog == nullptr) {
    row.detail = "native build failed: " + err;
    return row;
  }

  // The loop being timed must mean what the interpreter means on these
  // bursts; both engines are deterministic, so one run each decides it.
  const auto iref = native::diff::run_interp(spec.source, spec.key, sched);
  const auto nref = native::diff::run_native(prog, sched);
  row.detail = native::diff::compare(prog->ir(), iref, nref);
  row.interp_state_ok = row.detail.empty();
  if (!row.interp_state_ok) return row;
  row.passes = nref.executed;

  // Gate (c) timing: loop and kernel samples interleaved, so machine-speed
  // drift hits both sides of the ratio alike. The kernel runs the same
  // injections in burst-sized calls, so both sides do the same handler work.
  bench::KernelWorkload w =
      bench::make_schedule_workload(*prog, sched, kBurstSize);
  std::vector<double> loop;
  std::vector<double> raw;
  for (int i = 0; i < kSamples; ++i) {
    loop.push_back(loop_sample(prog, sched));
    raw.push_back(bench::raw_kernel_pps(*prog, w, kSampleSeconds));
  }
  row.loop_pps = spread(loop);
  row.raw_pps = spread(raw);

  // Gate (a): the per-shard differential-state contract.
  row.detail = check_fleet_state(prog, sched, kStateShards);
  row.fleet_state_ok = row.detail.empty();
  return row;
}

/// Gate (b) sweep: one burst schedule, partitioned by the fleet at 1/2/4/8
/// shards. The merged pass count is shard-count invariant (each injection
/// lands on exactly one shard and cascades there), so pps comparisons are
/// over identical work.
std::vector<ScalePoint> run_scaling(
    const std::shared_ptr<const native::Program>& prog,
    const native::diff::Schedule& sched) {
  std::vector<ScalePoint> points;
  for (const int shards : kScalingShards) {
    ScalePoint p;
    p.shards = shards;
    for (int rep = 0; rep < kReps; ++rep) {
      native::FleetConfig fcfg;
      fcfg.shards = shards;
      fcfg.label_metrics = false;
      native::ReplicaFleet fleet(prog, fcfg);
      for (const auto& e : sched.entries) {
        fleet.schedule_inject(e.t, e.event, e.args);
      }
      const auto t0 = std::chrono::steady_clock::now();
      fleet.run_until(sched.horizon);
      const auto t1 = std::chrono::steady_clock::now();
      const double wall = std::chrono::duration<double>(t1 - t0).count();
      if (rep == 0 || wall < p.wall_s) p.wall_s = wall;
      p.executed = fleet.merged_stats().executed;
    }
    if (p.wall_s > 0) {
      p.pps = static_cast<double>(p.executed) / p.wall_s;
    }
    points.push_back(p);
  }
  return points;
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  bench::print_header(
      "Multi-core native data path",
      "sharded ReplicaFleet + batched event loop vs raw kernel "
      "(per-shard differential-state contract enforced per row)");

  std::vector<AppRow> rows;
  std::uint64_t seed = 0x5CA1AB1E;
  for (const auto& spec : apps::all_apps()) {
    rows.push_back(run_app(spec, seed++));
  }

  std::printf("  %-8s | %9s | %11s | %11s | %10s | %5s\n", "app", "passes",
              "loop pps", "kernel pps", "loop/kern", "state");
  bench::print_rule();
  bool all_state = true;
  double log_sum = 0.0;
  std::size_t timed = 0;
  for (const auto& r : rows) {
    std::printf("  %-8s | %9llu | %11.0f | %11.0f | %10.3f | %s\n",
                r.key.c_str(), static_cast<unsigned long long>(r.passes),
                r.loop_pps.median, r.raw_pps.median, r.ratio(),
                r.interp_state_ok && r.fleet_state_ok ? "ok" : "DIFF");
    if (!r.interp_state_ok || !r.fleet_state_ok) {
      std::printf("    !! %s\n", r.detail.c_str());
      all_state = false;
    }
    if (r.ratio() > 0) {
      log_sum += std::log(r.ratio());
      ++timed;
    }
  }
  const double ratio_geomean =
      timed > 0 ? std::exp(log_sum / static_cast<double>(timed)) : 0.0;
  const bool loop_ok = all_state && ratio_geomean >= kMinLoopKernelRatio;

  // Scaling sweep on the heaviest app (longest batched wall == most passes
  // per second of real work, so pool overhead is smallest relative to it).
  std::size_t heavy = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].passes > rows[heavy].passes) heavy = i;
  }
  const apps::AppSpec& hspec = apps::all_apps()[heavy];
  interp::TestbedConfig hcfg;
  hcfg.program_name = hspec.key;
  interp::Testbed hprobe(hspec.source, hcfg);
  std::string herr;
  const auto hprog = native::Program::build(hprobe.compilation_ptr(), &herr);
  std::vector<ScalePoint> scale;
  double scaling8 = 0.0;
  if (hprog != nullptr) {
    const auto hsched = native::diff::make_burst_schedule(
        hprog->ir(), 0xF1EE7, kScaleBursts, kBurstSize);
    scale = run_scaling(hprog, hsched);
    if (!scale.empty() && scale.front().pps > 0) {
      scaling8 = scale.back().pps / scale.front().pps;
    }
  }
  const bool scaling_measurable = hw >= 8;
  const bool scaling_ok =
      !scaling_measurable || scaling8 >= kRequiredScaling;

  bench::print_rule();
  std::printf("  scaling sweep (%s, %u hw threads):", hspec.key.c_str(), hw);
  for (const auto& p : scale) {
    std::printf("  %d-shard %.0f pps", p.shards, p.pps);
  }
  std::printf("\n");
  std::printf("  loop/kernel geomean %.3f (gate >= %.3f = %.1fx the "
              "per-entry loop's calibrated %.4f); 8-shard scaling %.2fx "
              "(gate >= %.1fx%s)\n",
              ratio_geomean, kMinLoopKernelRatio, kBatchingFactor,
              kCalibratedEntryLoopKernelRatio, scaling8, kRequiredScaling,
              scaling_measurable ? "" : ", SKIPPED: < 8 hw threads");

  bench::JsonWriter j;
  j.obj_open()
      .field("bench", "bench_native_mt")
      .field("bursts", kBursts)
      .field("burst_size", kBurstSize)
      .field("samples", kSamples)
      .field("sample_seconds", kSampleSeconds)
      .field("state_shards", kStateShards)
      .field("hw_threads", static_cast<std::uint64_t>(hw))
      .field("calibrated_entry_loop_kernel_ratio",
             kCalibratedEntryLoopKernelRatio)
      .field("batching_factor", kBatchingFactor)
      .field("required_loop_kernel_ratio", kMinLoopKernelRatio)
      .field("required_scaling", kRequiredScaling);
  j.arr_open("apps");
  for (const auto& r : rows) {
    j.obj_open()
        .field("key", r.key)
        .field("interp_state_identical", r.interp_state_ok)
        .field("fleet_state_identical", r.fleet_state_ok)
        .field("passes", r.passes)
        .field("loop_pps", r.loop_pps.median)
        .field("loop_pps_mad", r.loop_pps.mad)
        .field("raw_kernel_pps", r.raw_pps.median)
        .field("raw_kernel_pps_mad", r.raw_pps.mad)
        .field("loop_kernel_ratio", r.ratio())
        .obj_close();
  }
  j.arr_close();
  j.field("scaling_app", hspec.key);
  j.arr_open("scaling");
  for (const auto& p : scale) {
    j.obj_open()
        .field("shards", p.shards)
        .field("executed", p.executed)
        .field("wall_s", p.wall_s)
        .field("pps", p.pps)
        .obj_close();
  }
  j.arr_close();
  j.field("loop_kernel_geomean", ratio_geomean)
      .field("scaling_8_shard", scaling8)
      .field("scaling_gate_skipped", !scaling_measurable)
      .field("gate_passed", all_state && loop_ok && scaling_ok)
      .obj_close();
  j.save("BENCH_native_mt.json");

  if (!(all_state && loop_ok && scaling_ok)) {
    std::fprintf(stderr,
                 "FAIL: multi-core native gate not met (state contract, "
                 "%.3f loop/kernel floor, or %.1fx scaling floor)\n",
                 kMinLoopKernelRatio, kRequiredScaling);
    return 1;
  }
  return 0;
}
