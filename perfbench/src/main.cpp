// lucid_perfbench: one benchmark process. perfbench/run.py starts nine per
// run (three rounds of the three lifecycle phases). Each builds the ten
// paper apps in its phase's way, then runs its share of the steady-state
// sections, checks every output, and prints one JSON object with its walls,
// counts and checks as the last line of stdout.
//
//   lucid_perfbench --workload burst|trickle --phase cold|restart|parallel
//                   --seed N [--stream K] --seconds S [--trace-out FILE]
//   lucid_perfbench --inputs --workload W --seed N [--stream K] --seconds S
//       prints only the fingerprints of the seeded inputs (no JIT, no run)
//
// --seconds sizes this process's steady-state work; the work per second is
// a fixed constant, so every count repeats exactly for a given seed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "churn.hpp"
#include "common.hpp"
#include "core/driver.hpp"
#include "lifecycle.hpp"
#include "packet.hpp"
#include "support/json.hpp"

namespace perfbench {

// Work per measured second, sized so the packet and the control sections
// each take about half of --seconds on a 4-thread x86 box.
constexpr double kPacketsPerAppPerSecond = 100'000;
constexpr double kChurnPacketsPerSecond = 60'000;

namespace {

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "lucid_perfbench: %s\n", why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv, bool* inputs_only) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--phase") {
      o.phase = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--stream") {
      o.stream = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace-out") {
      o.trace_out = value();
      o.trace = true;
    } else if (a == "--inputs") {
      *inputs_only = true;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (o.workload == "burst") {
    o.shape = Shape::kBurst;
  } else if (o.workload == "trickle") {
    o.shape = Shape::kTrickle;
  } else {
    usage("--workload must be burst or trickle");
  }
  if (!*inputs_only && o.phase != "cold" && o.phase != "restart" &&
      o.phase != "parallel") {
    usage("--phase must be cold, restart or parallel");
  }
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

int packet_slices(const Options& o) {
  return std::max(1, static_cast<int>(std::lround(
                         o.seconds * kPacketsPerAppPerSecond / kSliceSize)));
}
int churn_slices(const Options& o) {
  return std::max(1, static_cast<int>(std::lround(
                         o.seconds * kChurnPacketsPerSecond /
                         kChurnSlicePackets)));
}

int print_inputs(const Options& o) {
  lucid::support::JsonWriter j;
  j.obj_open()
      .field("workload", o.workload)
      .field("seed", o.seed)
      .field("stream", o.stream);
  j.obj_open("packet");
  const auto& specs = lucid::apps::all_apps();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto comp = lucid::CompilerDriver().run(specs[i].source);
    if (!comp->ok()) usage("app failed to compile: " + specs[i].key);
    j.field(specs[i].key,
            hex(input_fingerprint(o, comp->ir(), i, packet_slices(o))));
  }
  j.obj_close();
  j.field("churn", hex(churn_fingerprint(o, churn_slices(o))));
  j.obj_close();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

struct Steady {
  Round packet;
  Round churn;
  std::vector<AppPackets> apps;
  ChurnRun control;
};

/// The timed steady-state work: the packet section over every app, then
/// the control-plane churn, each followed by its checks; in a traced run
/// also the kernel probe per app.
Steady run_steady(
    const Options& o,
    const std::vector<std::shared_ptr<const lucid::native::Program>>& progs,
    PacketSection& packets, ChurnSection& churn) {
  Steady s;
  s.packet = packets.run(packet_slices(o), &s.apps);
  s.churn = churn.run(churn_slices(o), &s.control);
  if (o.trace) {  // a per-layer number only; it lands in the trace
    for (const auto& p : progs) kernel_probe(o, *p);
  }
  return s;
}

void write_round(lucid::support::JsonWriter& j, const Round& r) {
  j.field("work", r.work).field("installs", r.installs).field("wall_s",
                                                              r.wall_s);
}

}  // namespace

int main_impl(int argc, char** argv) {
  const auto t_main = Clock::now();
  bool inputs_only = false;
  const Options o = parse(argc, argv, &inputs_only);
  if (inputs_only) return print_inputs(o);

  auto& tracer = lucid::obs::Tracer::global();
  // The harness's own spans bypass sampling; the library's per-handler and
  // per-stage spans are sampled down so they stay a small share of a run.
  const lucid::obs::TracerConfig tcfg{1u << 18, 4096};
  if (o.trace) tracer.enable(tcfg);

  // Set-up: the lifecycle phase builds every app, then the steady-state
  // engines are constructed. Every phase process does the same set-up.
  Lifecycle lc = build_apps(o, o.phase == "parallel");
  std::vector<std::shared_ptr<const lucid::native::Program>> progs;
  for (const auto& a : lc.apps) {
    if (a.ok) progs.push_back(a.prog);
  }
  auto packets = std::make_unique<PacketSection>(o, progs);
  auto churn = std::make_unique<ChurnSection>(o);
  const double setup_s = seconds_since(t_main);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  auto fail = [&](std::string why) {
    ++failed;
    errors.push_back(std::move(why));
  };
  if (const auto e = churn->error(); !e.empty()) fail("SFW testbed: " + e);

  Steady st;
  double untraced_steady_s = 0;
  double traced_steady_s = 0;
  const bool steady = progs.size() == lc.apps.size() && churn->error().empty();
  if (steady) {
    if (o.trace) {
      // Same work once with tracing off, then on fresh engines with it on:
      // the ratio of the two walls is the tracing overhead.
      tracer.disable();
      const auto t0 = Clock::now();
      run_steady(o, progs, *packets, *churn);
      untraced_steady_s = seconds_since(t0);
      packets = std::make_unique<PacketSection>(o, progs);
      churn = std::make_unique<ChurnSection>(o);
      tracer.enable(tcfg);
      const auto t1 = Clock::now();
      st = run_steady(o, progs, *packets, *churn);
      traced_steady_s = seconds_since(t1);
    } else {
      st = run_steady(o, progs, *packets, *churn);
    }
    for (const auto& a : st.apps) {
      attempted += a.injected + 1;
      failed += a.rejected;
      if (a.rejected != 0) {
        errors.push_back(a.app + ": " + std::to_string(a.rejected) +
                         " injections rejected");
      }
      if (!a.check_error.empty()) {
        fail(a.app + ": interp replay differs: " + a.check_error);
      }
    }
    attempted += st.control.stats.batches_submitted + 1;
    failed += st.control.stats.batches_rejected;
    if (const auto e = check_churn(st.control); !e.empty()) {
      fail("SFW churn: " + e);
    }
  } else {
    fail("steady-state sections skipped: set-up failed");
  }
  check_apps(o, lc);  // emit timing + interp/native differential per app
  attempted += lc.attempted;
  failed += lc.failed;
  errors.insert(errors.end(), lc.errors.begin(), lc.errors.end());

  if (o.trace) {
    std::ofstream out(o.trace_out);
    out << tracer.chrome_json();
    if (!out) fail("cannot write trace " + o.trace_out);
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  lucid::support::JsonWriter j;
  j.obj_open()
      .field("phase", o.phase)
      .field("compiler", PERFBENCH_CXX_ID)
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("threads", lc.threads)
      .field("setup_s", setup_s)
      .field("lifecycle_s", lc.wall_s)
      .field("peak_rss_kb", static_cast<std::int64_t>(ru.ru_maxrss));
  j.arr_open("apps");
  for (const auto& a : lc.apps) {
    j.obj_open()
        .field("app", a.app)
        .field("compile_ms", a.compile_ms)
        .obj_close();
  }
  j.arr_close();
  if (steady) {
    j.obj_open("packet");
    write_round(j, st.packet);
    j.arr_open("apps");
    for (const auto& a : st.apps) {
      j.obj_open()
          .field("app", a.app)
          .field("injected", a.injected)
          .field("executed", a.executed)
          .field("recirculations", a.recirculations)
          .field("delayed_enqueues", a.delayed_enqueues)
          .field("fingerprint", hex(a.fingerprint))
          .obj_close();
    }
    j.arr_close().obj_close();
    const ChurnRun& c = st.control;
    j.obj_open("churn");
    write_round(j, st.churn);
    j.field("passes", c.passes);
    j.arr_open("apply_ns");
    for (const std::int64_t ns : c.apply_ns) j.item(ns);
    j.arr_close();
    j.field("apply_points", c.stats.apply_points)
        .field("max_queue_depth", c.stats.max_queue_depth)
        .field("modeled_busy_ns", c.stats.update_path_busy_ns)
        .field("fingerprint", hex(c.fingerprint))
        .obj_close();
    if (o.trace) {
      j.field("untraced_steady_s", untraced_steady_s)
          .field("traced_steady_s", traced_steady_s);
    }
  }
  j.field("attempted", attempted).field("failed", failed);
  j.arr_open("errors");
  for (const auto& e : errors) j.item(e);
  j.arr_close().obj_close();
  std::printf("%s\n", j.str().c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main_impl(argc, argv); }
