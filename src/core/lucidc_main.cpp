// lucidc — the Lucid compiler command-line driver, on the staged
// CompilerDriver pipeline (Parse → Sema → Lower → Layout → Emit).
//
//   lucidc build [options] FILE          compile; print a layout summary,
//                                        or with --ir / --layout a dump
//   lucidc emit BACKEND [options] FILE   emit through a registered backend
//                                        (p4, ebpf, interp, native)
//   lucidc sweep GRID [options] FILE     compile against a resource-model
//                                        grid (e.g. stages=8,12;salus=2,4),
//                                        sharing one front-end run across
//                                        all variants, emitting in parallel
//   lucidc fit SPEC [options] FILE       binary-search the smallest resource
//                                        model the program fits (e.g.
//                                        stages=1..20;salus=2,4)
//   lucidc run [--shards=N] FILE         JIT-compile the program and run a
//                                        synthetic burst schedule on the
//                                        sharded native data path
//   lucidc --list-backends | --version | --help
//
// Each subcommand accepts only its own flags (see usage()); the
// observability flags (--trace-out, --trace-sample, --metrics-out) apply to
// every subcommand. Exit status: 0 on success, 1 on compilation/input
// errors, 2 on usage errors (unknown subcommand or flag, missing file
// operand, unknown stage/backend, malformed grid or spec).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/backends.hpp"
#include "core/cache.hpp"
#include "core/sweep.hpp"
#include "native/differential.hpp"
#include "native/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/strings.hpp"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;

void usage(std::ostream& os) {
  os << "usage: lucidc build [options] FILE.lucid\n"
        "       lucidc emit BACKEND [options] FILE.lucid\n"
        "       lucidc sweep GRID [options] FILE.lucid\n"
        "       lucidc fit SPEC [options] FILE.lucid\n"
        "       lucidc run [options] FILE.lucid\n"
        "       lucidc --list-backends | --version | --help\n"
        "build: compile and print a layout summary\n"
        "  --stop-after=STAGE stop after parse|sema|lower|layout\n"
        "  --ir               dump the atomic table graphs\n"
        "  --layout           dump the merged pipeline\n"
        "emit: emit via a registered backend (see --list-backends)\n"
        "  --cache-dir=DIR    reuse/store emitted artifacts under DIR\n"
        "build and emit:\n"
        "  --incremental-from=OLD\n"
        "                     recompile reusing a previous compile of OLD:\n"
        "                     only changed decls (and dependents) re-run\n"
        "                     Sema/Lower\n"
        "  --time-passes[=json]\n"
        "                     print per-stage wall-clock timings to stderr\n"
        "                     (json: one machine-readable object)\n"
        "  --sema-workers=N   worker threads for Sema's per-decl body checks\n"
        "                     (default 1; diagnostics identical at any count)\n"
        "sweep: compile against a resource-model grid, e.g.\n"
        "       stages=8,12;salus=2,4 (fields: stages|tables|salus|rules|\n"
        "       members|aluops)\n"
        "  --backends=LIST    backends to emit (default: p4,ebpf,interp)\n"
        "  --cache-dir=DIR    reuse/store emitted artifacts under DIR\n"
        "fit: bisect the smallest fitting resource model, e.g.\n"
        "     stages=1..20;salus=2,4 (one MIN..MAX range field; exits 1 if\n"
        "     any row cannot fit)\n"
        "sweep and fit:\n"
        "  --jobs=N           worker threads (default: all cores)\n"
        "run: JIT-compile and run a synthetic burst schedule on the sharded\n"
        "     native data path; print per-shard and merged statistics\n"
        "  --shards=N         shard count (default 1)\n"
        "every subcommand:\n"
        "  --trace-out=FILE   write Chrome trace-event JSON on exit (load it\n"
        "                     in ui.perfetto.dev)\n"
        "  --trace-sample=N   record every N-th span (default 1 = all)\n"
        "  --metrics-out=FILE write the metrics snapshot on exit\n"
        "                     (.prom/.txt: Prometheus text format; else "
        "JSON)\n";
}

std::string slurp(const std::string& path, bool& ok) {
  std::ifstream in(path);
  if (!in) {
    ok = false;
    return {};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  ok = true;
  return ss.str();
}

/// Writes the observability outputs on scope exit, so every return path —
/// success or compile error — flushes what was recorded. (Usage errors
/// return before this guard is armed: nothing ran.)
struct ObsOutputs {
  std::string trace_path;
  std::string metrics_path;

  ~ObsOutputs() {
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (out) {
        out << lucid::obs::Tracer::global().chrome_json();
      } else {
        std::cerr << "lucidc: cannot write trace to '" << trace_path << "'\n";
      }
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (out) {
        const bool prom = lucid::ends_with(metrics_path, ".prom") ||
                          lucid::ends_with(metrics_path, ".txt");
        out << (prom ? lucid::obs::Registry::global().prometheus()
                     : lucid::obs::Registry::global().json());
      } else {
        std::cerr << "lucidc: cannot write metrics to '" << metrics_path
                  << "'\n";
      }
    }
  }
};

/// A subcommand: its name, the operand it takes before FILE (if any), and
/// its own flags. The observability flags apply to every subcommand.
struct Subcommand {
  std::string name;
  std::string operand;
  std::vector<std::string> flags;
};
const std::vector<Subcommand> kSubcommands = {
    {"build", "",
     {"--stop-after", "--ir", "--layout", "--incremental-from",
      "--time-passes", "--sema-workers"}},
    {"emit", "BACKEND",
     {"--cache-dir", "--incremental-from", "--time-passes",
      "--sema-workers"}},
    {"sweep", "GRID", {"--jobs", "--backends", "--cache-dir"}},
    {"fit", "SPEC", {"--jobs"}},
    {"run", "", {"--shards"}},
};
const std::vector<std::string> kObsFlags = {"--trace-out", "--trace-sample",
                                            "--metrics-out"};

/// The parsed command line of one subcommand.
struct Cli {
  std::string command;
  std::string param;  // emit's BACKEND, sweep's GRID, fit's SPEC
  std::string path;
  lucid::Stage stop_after = lucid::Stage::Layout;
  bool stop_requested = false;
  std::string dump;  // "ir" | "layout"
  std::string incremental_from;
  bool time_passes = false;
  bool time_passes_json = false;
  int sema_workers = 1;
  std::string cache_dir;
  std::vector<std::string> backends;
  int jobs = 0;
  int shards = 1;
  std::string trace_out;
  int trace_sample = 1;
  std::string metrics_out;
};

bool usage_error(const std::string& message) {
  std::cerr << "lucidc: " << message << "\n";
  return false;
}

bool check_backend(const std::string& name) {
  if (lucid::BackendRegistry::global().find(name) != nullptr) return true;
  std::cerr << "lucidc: unknown backend '" << name << "'; registered:";
  for (const auto& n : lucid::BackendRegistry::global().names()) {
    std::cerr << " " << n;
  }
  std::cerr << "\n";
  return false;
}

/// Applies one `--name[=value]` flag the subcommand accepts; false (after
/// printing why) on a malformed value.
bool apply_flag(Cli& cli, const std::string& name, bool has_value,
                const std::string& value) {
  const auto positive = [&](int& out) {
    const auto parsed = lucid::parse_positive_int(value);
    if (!parsed) return usage_error(name + " requires a positive integer");
    out = *parsed;
    return true;
  };
  const auto nonempty = [&](std::string& out) {
    if (value.empty()) return usage_error(name + " requires a value");
    out = value;
    return true;
  };
  if (name == "--ir" || name == "--layout") {
    if (has_value) return usage_error(name + " takes no value");
    cli.dump = name.substr(2);
    return true;
  }
  if (name == "--time-passes") {
    if (has_value && value != "json" && value != "human") {
      return usage_error("unknown --time-passes format '" + value +
                         "' (expected human|json)");
    }
    cli.time_passes = true;
    cli.time_passes_json = value == "json";
    return true;
  }
  if (name == "--stop-after") {
    const auto stage = lucid::stage_from_name(value);
    if (!stage || *stage == lucid::Stage::Emit) {
      return usage_error("unknown stage '" + value +
                         "' (expected parse|sema|lower|layout)");
    }
    cli.stop_after = *stage;
    cli.stop_requested = true;
    return true;
  }
  if (name == "--backends") {
    cli.backends.clear();
    for (const std::string& b : lucid::split(value, ',')) {
      const std::string backend{lucid::trim(b)};
      if (backend.empty()) continue;
      if (!check_backend(backend)) return false;
      cli.backends.push_back(backend);
    }
    if (cli.backends.empty()) {
      return usage_error("--backends requires a comma-separated list");
    }
    return true;
  }
  if (name == "--sema-workers") return positive(cli.sema_workers);
  if (name == "--jobs") return positive(cli.jobs);
  if (name == "--shards") return positive(cli.shards);
  if (name == "--trace-sample") return positive(cli.trace_sample);
  if (name == "--incremental-from") return nonempty(cli.incremental_from);
  if (name == "--cache-dir") return nonempty(cli.cache_dir);
  if (name == "--trace-out") return nonempty(cli.trace_out);
  return nonempty(cli.metrics_out);  // --metrics-out
}

/// Parses `argv[2..]` for subcommand `sub` into `cli`. Returns an exit code
/// when the process should stop (usage error, or --help), nullopt to run.
std::optional<int> parse_subcommand(int argc, char** argv,
                                    const Subcommand& sub, Cli& cli) {
  cli.command = sub.name;
  const bool wants_param = !sub.operand.empty();
  bool have_param = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return kExitOk;
    }
    if (!arg.empty() && arg[0] == '-') {
      const std::size_t eq = arg.find('=');
      const std::string name = arg.substr(0, eq);
      const bool known =
          std::find(sub.flags.begin(), sub.flags.end(), name) !=
              sub.flags.end() ||
          std::find(kObsFlags.begin(), kObsFlags.end(), name) !=
              kObsFlags.end();
      if (!known) {
        std::cerr << "lucidc: unknown option '" << arg << "' for 'lucidc "
                  << cli.command << "'\n";
        usage(std::cerr);
        return kExitUsage;
      }
      const bool has_value = eq != std::string::npos;
      if (!apply_flag(cli, name, has_value,
                      has_value ? arg.substr(eq + 1) : std::string())) {
        return kExitUsage;
      }
    } else if (wants_param && !have_param) {
      cli.param = arg;
      have_param = true;
    } else if (!cli.path.empty()) {
      std::cerr << "lucidc: more than one input file ('" << cli.path
                << "' and '" << arg << "')\n";
      return kExitUsage;
    } else {
      cli.path = arg;
    }
  }
  if (wants_param && !have_param) {
    usage_error("'lucidc " + sub.name + "' needs its " + sub.operand +
                " operand");
    return kExitUsage;
  }
  if (cli.path.empty()) {
    usage_error("no input file");
    usage(std::cerr);
    return kExitUsage;
  }
  if (cli.command == "emit" && !check_backend(cli.param)) return kExitUsage;
  if (!cli.dump.empty() && cli.stop_requested) {
    const lucid::Stage needed =
        cli.dump == "ir" ? lucid::Stage::Lower : lucid::Stage::Layout;
    if (cli.stop_after < needed) {
      usage_error("--" + cli.dump + " needs the '" +
                  std::string(lucid::stage_name(needed)) +
                  "' stage; conflicting --stop-after=" +
                  std::string(lucid::stage_name(cli.stop_after)));
      return kExitUsage;
    }
  }
  if (cli.trace_sample != 1 && cli.trace_out.empty()) {
    usage_error("--trace-sample only applies with --trace-out");
    return kExitUsage;
  }
  return std::nullopt;
}

void list_backends() {
  // name, the deepest stage it needs, and a one-line description.
  auto& reg = lucid::BackendRegistry::global();
  std::size_t name_w = 4;
  for (const auto& name : reg.names()) name_w = std::max(name_w, name.size());
  for (const auto& name : reg.names()) {
    const lucid::Backend* b = reg.find(name);
    std::cout << name << std::string(name_w - name.size() + 2, ' ')
              << "requires=" << lucid::stage_name(b->required_stage()) << "  "
              << b->description() << "\n";
  }
}

/// `lucidc run`: JIT-compile the program, shard a synthetic burst schedule
/// across a ReplicaFleet by the stable flow hash, and run it to the horizon
/// on one worker thread per shard.
int run_native(const Cli& cli, const std::string& source) {
  lucid::DriverOptions opts;
  opts.program_name = cli.path;
  const lucid::CompilationPtr comp =
      lucid::CompilerDriver(opts).run(source, lucid::Stage::Layout);
  if (!comp->ok()) {
    std::cerr << comp->diags().render();
    return kExitError;
  }
  std::string err;
  const auto prog = lucid::native::Program::build(comp, &err);
  if (prog == nullptr) {
    std::cerr << "lucidc: run: " << err << "\n";
    return kExitError;
  }
  lucid::native::FleetConfig fcfg;
  fcfg.shards = cli.shards;
  lucid::native::ReplicaFleet fleet(prog, fcfg);
  const lucid::native::diff::Schedule sched =
      lucid::native::diff::make_burst_schedule(prog->ir(), 7, 200, 32);
  for (const auto& e : sched.entries) {
    fleet.schedule_inject(e.t, e.event, e.args);
  }
  const auto t0 = std::chrono::steady_clock::now();
  fleet.run_until(sched.horizon);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto merged = fleet.merged_stats();
  const auto runs = fleet.merged_run_stats();
  std::cout << cli.path << ": native run, " << fleet.shards()
            << " shard(s)\n";
  for (int s = 0; s < fleet.shards(); ++s) {
    std::cout << "  shard " << s << "          : "
              << fleet.shard(static_cast<std::size_t>(s)).stats().executed
              << " packets executed\n";
  }
  std::cout << "  injections       : " << sched.entries.size() << "\n"
            << "  executed (merged): " << merged.executed << "\n"
            << "  handler runs     : " << runs.total_executions << " ("
            << merged.recirculations << " recirculations)\n"
            << "  event-loop rate  : "
            << static_cast<long long>(
                   wall_s > 0 ? static_cast<double>(merged.executed) / wall_s
                              : 0.0)
            << " packets/s\n";
  return merged.executed > 0 ? kExitOk : kExitError;
}

/// `lucidc build` and `lucidc emit`: one compile, cold or incremental.
int compile(const Cli& cli, const std::string& source) {
  lucid::DriverOptions opts;
  opts.program_name = cli.path;
  opts.sema_workers = cli.sema_workers;
  const lucid::CompilerDriver driver(opts);
  const bool emit = cli.command == "emit";

  // Read the previous version up front (input validation), but compile it
  // only when a compilation is actually needed.
  std::string prev_source;
  if (!cli.incremental_from.empty()) {
    bool prev_ok = false;
    prev_source = slurp(cli.incremental_from, prev_ok);
    if (!prev_ok) {
      std::cerr << "lucidc: cannot read '" << cli.incremental_from << "'\n";
      return kExitError;
    }
  }

  // Emit disk-cache fast path: a prior invocation already emitted this
  // structural (source, options, backend) combination with this compiler
  // version. A hit skips compilation entirely (the incremental prev compile
  // included), so it also skips non-fatal diagnostics; --time-passes forces
  // a real compile.
  lucid::ArtifactCache cache(lucid::Stage::Lower, cli.cache_dir);
  if (emit && !cli.cache_dir.empty() && !cli.time_passes) {
    if (auto cached = cache.load_artifact(source, opts, cli.param)) {
      std::cout << cached->text;
      return kExitOk;
    }
  }

  lucid::CompilationPtr comp;
  if (cli.incremental_from.empty()) {
    comp = driver.start(source);
  } else {
    // Lower-deep: recompile() reuses Parse..Lower artifacts, and Layout is
    // cheapest paid exactly once — on the result (an edit would invalidate
    // a prev Layout run anyway). Library callers holding a fully compiled
    // prev (the IDE loop) get Layout inherited for free on formatting
    // edits; a one-shot CLI process has no such compile to reuse.
    const lucid::CompilationPtr prev =
        driver.run(prev_source, lucid::Stage::Lower);
    if (!prev->succeeded(lucid::Stage::Lower)) {
      std::cerr << "lucidc: warning: previous version '"
                << cli.incremental_from
                << "' does not compile; falling back to a cold compile\n";
    }
    // --stop-after bounds the recompile like it bounds a cold compile.
    comp = driver.recompile(
        prev, source,
        cli.stop_requested ? cli.stop_after : lucid::Stage::Lower);
  }

  // Shared by every exit path below. In json mode the object is printed as
  // the *last line* of stderr (diagnostics render first), so consumers can
  // `tail -n 1` it robustly.
  const auto print_timings = [&] {
    if (!cli.time_passes) return;
    std::cerr << (cli.time_passes_json ? comp->timing_report_json()
                                       : comp->timing_report());
  };

  // Backends drive exactly the stages they need through the driver's emit().
  if (emit) {
    const lucid::BackendArtifact artifact = driver.emit(comp, cli.param);
    std::cerr << comp->diags().render();
    print_timings();
    if (!artifact.ok) return kExitError;
    if (!cli.cache_dir.empty()) cache.store_artifact(source, opts, artifact);
    std::cout << artifact.text;
    return kExitOk;
  }

  // Dumps imply the stages they need.
  lucid::Stage until = cli.stop_after;
  if (cli.dump == "ir" && !cli.stop_requested) until = lucid::Stage::Lower;
  driver.run_until(comp, until);
  std::cerr << comp->diags().render();
  if (!comp->ok()) {
    print_timings();
    return kExitError;
  }
  if (cli.dump == "ir") {
    for (const auto& h : comp->ir().handlers) std::cout << h.str() << "\n";
  } else if (cli.dump == "layout") {
    std::cout << comp->pipeline().str();
  } else if (cli.stop_after < lucid::Stage::Layout) {
    std::cout << cli.path << ": OK after stage '"
              << lucid::stage_name(cli.stop_after) << "'";
    if (comp->succeeded(lucid::Stage::Sema)) {
      std::cout << " (" << comp->ast().events().size() << " events, "
                << comp->ast().globals().size() << " arrays)";
    }
    std::cout << "\n";
  } else {
    const auto& stats = comp->layout_stats();
    std::cout << cli.path << ": compiled OK\n"
              << "  events            : " << comp->ir().events.size() << "\n"
              << "  arrays            : " << comp->ir().arrays.size() << "\n"
              << "  handlers          : " << comp->ir().handlers.size()
              << "\n"
              << "  unoptimized stages: " << stats.unoptimized_stages << "\n"
              << "  optimized stages  : " << stats.optimized_stages << "\n"
              << "  fits Tofino model : " << (stats.fits ? "yes" : "NO")
              << "\n";
    if (!cli.incremental_from.empty()) {
      std::cout << "  decls reused      : "
                << comp->record(lucid::Stage::Parse).decls_reused
                << " (parse), "
                << comp->record(lucid::Stage::Sema).decls_reused
                << " (sema), "
                << comp->record(lucid::Stage::Lower).decls_reused
                << " handler graphs (lower)\n";
    }
  }
  print_timings();
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  lucid::register_default_backends();

  const std::string first = argc > 1 ? argv[1] : "";
  if (first == "--help" || first == "-h") {
    usage(std::cout);
    return kExitOk;
  }
  if (first == "--version") {
    std::cout << "lucidc (Lucid compiler) " << lucid::kLucidVersion << "\n";
    return kExitOk;
  }
  if (first == "--list-backends") {
    list_backends();
    return kExitOk;
  }
  const auto sub =
      std::find_if(kSubcommands.begin(), kSubcommands.end(),
                   [&](const Subcommand& c) { return c.name == first; });
  if (sub == kSubcommands.end()) {
    if (first.empty()) {
      std::cerr << "lucidc: no subcommand\n";
    } else if (first[0] == '-') {
      std::cerr << "lucidc: unknown option '" << first << "'\n";
    } else {
      std::cerr << "lucidc: unknown subcommand '" << first << "'\n";
    }
    usage(std::cerr);
    return kExitUsage;
  }

  Cli cli;
  if (const auto stop = parse_subcommand(argc, argv, *sub, cli)) {
    return *stop;
  }

  // Grid and spec syntax are usage errors, caught before any input is read.
  std::vector<lucid::SweepVariant> sweep_variants;
  std::optional<lucid::FitSpec> fit_spec;
  std::string spec_error;
  if (cli.command == "sweep") {
    const auto parsed = lucid::parse_sweep_grid(cli.param, &spec_error);
    if (!parsed) {
      usage_error("bad sweep grid: " + spec_error);
      return kExitUsage;
    }
    sweep_variants = *parsed;
  } else if (cli.command == "fit") {
    fit_spec = lucid::parse_fit_spec(cli.param, &spec_error);
    if (!fit_spec) {
      usage_error("bad fit spec: " + spec_error);
      return kExitUsage;
    }
  }

  bool read_ok = false;
  const std::string source = slurp(cli.path, read_ok);
  if (!read_ok) {
    std::cerr << "lucidc: cannot read '" << cli.path << "'\n";
    return kExitError;
  }

  // Observability: arm recording before any compilation work; the guard's
  // destructor writes the outputs on every return path below.
  ObsOutputs obs_outputs;
  obs_outputs.trace_path = cli.trace_out;
  obs_outputs.metrics_path = cli.metrics_out;
  if (!cli.trace_out.empty()) {
    lucid::obs::TracerConfig tcfg;
    tcfg.sample_every = static_cast<std::uint32_t>(cli.trace_sample);
    lucid::obs::Tracer::global().enable(tcfg);
  }

  if (cli.command == "run") return run_native(cli, source);
  if (cli.command == "build" || cli.command == "emit") {
    return compile(cli, source);
  }

  if (cli.command == "sweep") {
    // One front end, N variants, parallel emission.
    lucid::ArtifactCache cache(lucid::Stage::Lower, cli.cache_dir);
    lucid::SweepOptions sweep_opts;
    sweep_opts.variants = std::move(sweep_variants);
    sweep_opts.program_name = cli.path;
    sweep_opts.workers = cli.jobs;
    if (!cli.backends.empty()) sweep_opts.backends = cli.backends;
    if (!cli.cache_dir.empty()) sweep_opts.cache = &cache;
    const lucid::SweepReport report =
        lucid::SweepEngine().run(source, sweep_opts);
    std::cout << report.str();
    return report.ok ? kExitOk : kExitError;
  }

  // fit: exit 0 only when every enumerated row found a fit inside the
  // range. (FitOptions' cache stays a library affordance — a one-shot
  // process has nothing to share.)
  lucid::FitOptions fit_opts;
  fit_opts.spec = std::move(*fit_spec);
  fit_opts.program_name = cli.path;
  fit_opts.workers = cli.jobs;
  const lucid::FitReport report = lucid::SweepEngine().fit(source, fit_opts);
  std::cout << report.str();
  return report.ok && report.all_fit ? kExitOk : kExitError;
}
