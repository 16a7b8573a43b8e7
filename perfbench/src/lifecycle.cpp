#include "lifecycle.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "apps/apps.hpp"
#include "core/driver.hpp"
#include "native/emit.hpp"

namespace perfbench {

namespace {

using lucid::native::Program;
using lucid::native::Replica;

/// Span names of the four front-end stages, in CompilerDriver order.
constexpr const char* kStageLayers[] = {"frontend.parse", "sema", "ir.lower",
                                        "opt.layout"};

/// The event the first packet carries: the app's first handled event whose
/// handler is not a timer loop (a timer if that is all there is).
const lucid::ir::EventInfo* first_packet_event(const lucid::ir::ProgramIR& ir) {
  const lucid::ir::EventInfo* fallback = nullptr;
  for (const auto& ev : ir.events) {
    if (!ev.has_handler) continue;
    if (!lucid::native::diff::is_timer_event(ir, ev.event_id)) return &ev;
    if (fallback == nullptr) fallback = &ev;
  }
  return fallback;
}

void build_one(const Options& opt, std::size_t index, AppBuild& out) {
  const auto& spec = lucid::apps::all_apps()[index];
  out.app = spec.key;
  lucid::DriverOptions dopts;
  dopts.program_name = spec.key;
  const lucid::CompilerDriver driver(dopts);
  const auto comp = driver.start(spec.source);
  for (const char* layer : kStageLayers) {
    Probe p(opt.workload, layer, spec.key);
    driver.run_next(comp);
    p.stop();
    if (!comp->ok()) {
      out.error = spec.key + ": " + layer + " failed: " +
                  comp->diags().render();
      return;
    }
  }

  std::string err;
  {
    Probe p(opt.workload, "native.build", spec.key);
    out.prog = Program::build(comp, &err);
    out.compile_ms =
        out.prog != nullptr ? out.prog->module().compile_ms() : 0.0;
    p.stop(std::llround(out.compile_ms * 1e3));
  }
  if (out.prog == nullptr) {
    out.error = spec.key + ": native build failed: " + err;
    return;
  }

  // First packet: one seeded injection of the app's traffic event on a
  // fresh replica, run until its pipeline pass executed.
  const auto* ev = first_packet_event(out.prog->ir());
  Rng rng(opt.seed * 1000003 + index);
  std::vector<std::int64_t> args;
  for (std::size_t i = 0; ev != nullptr && i < ev->params.size(); ++i) {
    args.push_back(static_cast<std::int64_t>(rng.below(4096)));
  }
  std::uint64_t executed = 0;
  {
    Probe p(opt.workload, "native.first_packet", spec.key);
    lucid::native::ReplicaConfig cfg;
    cfg.switch_cfg.id = 1;
    Replica rep(out.prog, cfg);
    if (ev != nullptr && rep.schedule_inject(1000, ev->name, args)) {
      rep.run_until(1000 + 10 * lucid::sim::kUs);
      executed = rep.stats().executed;
    }
    p.stop(static_cast<std::int64_t>(executed));
  }
  if (executed == 0) {
    out.error = spec.key + ": first packet did not execute";
    return;
  }
  out.ok = true;
}

}  // namespace

Lifecycle build_apps(const Options& opt, bool parallel) {
  const auto& specs = lucid::apps::all_apps();
  Lifecycle lc;
  lc.apps.resize(specs.size());
  lc.threads =
      parallel ? static_cast<int>(std::clamp(
                     std::thread::hardware_concurrency(), 1u, 4u))
               : 1;
  Probe region(opt.workload, "lifecycle", opt.phase);
  if (lc.threads == 1) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      build_one(opt, i, lc.apps[i]);
    }
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < lc.threads; ++t) {
      workers.emplace_back([&] {
        for (std::size_t i = next++; i < specs.size(); i = next++) {
          build_one(opt, i, lc.apps[i]);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  lc.wall_s = region.stop(static_cast<std::int64_t>(specs.size()));

  for (const auto& a : lc.apps) {
    ++lc.attempted;
    if (!a.ok) {
      ++lc.failed;
      lc.errors.push_back(a.error);
    }
  }
  return lc;
}

void check_apps(const Options& opt, Lifecycle& lc) {
  const auto& specs = lucid::apps::all_apps();
  for (std::size_t i = 0; i < lc.apps.size(); ++i) {
    AppBuild& a = lc.apps[i];
    if (!a.ok) continue;
    {
      Probe p(opt.workload, "native.emit", a.app);
      const auto em =
          lucid::native::emit_source(a.prog->compilation(), a.app);
      p.stop(em.loc);
    }
    ++lc.attempted;
    const auto d = lucid::native::diff::run_differential(
        specs[i].source, a.app, opt.seed, 2000);
    if (!d.ok) {
      ++lc.failed;
      lc.errors.push_back(a.app + ": interp/native differential: " +
                          d.detail);
    }
  }
}

}  // namespace perfbench
