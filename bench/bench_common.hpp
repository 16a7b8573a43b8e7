// Shared helpers for the per-figure benchmark binaries.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/apps.hpp"
#include "core/driver.hpp"
#include "native/differential.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace lucid::bench {

/// Compiles an app through the staged driver, aborting the bench with a
/// message on failure (benches regenerate paper figures; a non-compiling app
/// is a hard error).
inline CompilationPtr compile_app(const apps::AppSpec& spec) {
  DriverOptions opts;
  opts.program_name = spec.key;
  const CompilerDriver driver(opts);
  CompilationPtr r = driver.run(spec.source);
  if (!r->ok()) {
    std::fprintf(stderr, "FATAL: app %s failed to compile:\n%s\n",
                 spec.key.c_str(), r->diags().render().c_str());
    std::exit(1);
  }
  return r;
}

inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void print_header(const std::string& figure,
                         const std::string& caption) {
  print_rule();
  std::printf("%s — %s\n", figure.c_str(), caption.c_str());
  print_rule();
}

// ---------------------------------------------------------------------------
// Machine-readable results: every bench writes a BENCH_<name>.json next to
// the binary (CI merges them into the bench-trajectory artifact). The writer
// lives in support/json.hpp — the tree's single JSON emission path, shared
// with --time-passes=json and the observability snapshots.
// ---------------------------------------------------------------------------

using support::json_escape;
using JsonWriter = support::JsonWriter;

// ---------------------------------------------------------------------------
// Raw-kernel measurement: the module's run_batch entry point on a packet
// vector, with no event loop around it — the ceiling the event loop is
// compared against (bench_native, bench_native_mt) and the uninstrumented
// baseline of the observability gates (bench_obs).
// ---------------------------------------------------------------------------

/// Packets for the kernel plus a zeroed register slab and generate space.
/// A pass hands the packets to run_batch in order, `chunk` at a time.
struct KernelWorkload {
  std::vector<std::vector<std::int64_t>> cells;
  std::vector<std::int64_t*> ptrs;
  std::vector<native::PacketIn> packets;
  std::vector<native::GenOut> out;
  std::vector<std::int32_t> counts;
  std::int32_t chunk = 0;  // packets per run_batch call
};

/// Sizes the slab and the per-call output space for `prog`.
inline void init_kernel_workload(const native::Program& prog,
                                 std::int32_t chunk, KernelWorkload* w) {
  for (const auto& arr : prog.ir().arrays) {
    w->cells.emplace_back(static_cast<std::size_t>(arr.size), 0);
  }
  for (auto& c : w->cells) w->ptrs.push_back(c.data());
  w->chunk = chunk;
  const auto gens = std::max<std::int32_t>(prog.module().max_gens(), 1);
  w->out.resize(static_cast<std::size_t>(chunk) *
                static_cast<std::size_t>(gens));
  w->counts.resize(static_cast<std::size_t>(chunk));
}

/// A synthetic batch: 64k packets round-robin over the handled events with
/// splitmix64 args below 100000, run as one call per pass. `packets` is
/// empty when the program handles no event.
inline KernelWorkload make_kernel_workload(const native::Program& prog,
                                           std::uint64_t seed) {
  constexpr std::int32_t batch = 1 << 16;
  KernelWorkload w;
  std::vector<const ir::EventInfo*> handled;
  for (const auto& ev : prog.ir().events) {
    if (ev.has_handler) handled.push_back(&ev);
  }
  if (handled.empty()) return w;
  init_kernel_workload(prog, batch, &w);
  std::uint64_t rng = seed;
  w.packets.resize(static_cast<std::size_t>(batch));
  for (std::int32_t i = 0; i < batch; ++i) {
    const ir::EventInfo* ev =
        handled[static_cast<std::size_t>(i) % handled.size()];
    native::PacketIn& in = w.packets[static_cast<std::size_t>(i)];
    in.event_id = ev->event_id;
    in.nargs = static_cast<std::int32_t>(ev->params.size());
    in.now_ns = 1000 + i;
    in.self_id = 1;
    for (std::int32_t a = 0; a < in.nargs; ++a) {
      in.args[a] =
          static_cast<std::int64_t>(native::diff::splitmix64(rng) % 100000);
    }
  }
  return w;
}

/// The schedule's own injections, in registration order and stamped with
/// their arrival times, run `chunk` packets per call: the traffic the event
/// loop feeds the kernel, in the shape of its same-timestamp drains, minus
/// the loop itself.
inline KernelWorkload make_schedule_workload(
    const native::Program& prog, const native::diff::Schedule& sched,
    std::int32_t chunk) {
  KernelWorkload w;
  init_kernel_workload(prog, chunk, &w);
  for (const auto& e : sched.entries) {
    const ir::EventInfo* ev = prog.find_event(e.event);
    if (ev == nullptr || !ev->has_handler) continue;
    native::PacketIn in{};
    in.event_id = ev->event_id;
    in.nargs = static_cast<std::int32_t>(e.args.size());
    in.now_ns = e.t;
    in.self_id = 1;
    for (std::int32_t a = 0; a < in.nargs; ++a) {
      in.args[a] = e.args[static_cast<std::size_t>(a)];
    }
    w.packets.push_back(in);
  }
  return w;
}

/// Pumps `call` (one pass over the workload's packets) until `seconds`
/// have elapsed; returns packets per second.
template <typename Fn>
double pump_pps(const KernelWorkload& w, double seconds, Fn&& call) {
  std::uint64_t total = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    call();
    total += w.packets.size();
    elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  } while (elapsed < seconds);
  return static_cast<double>(total) / elapsed;
}

/// Raw kernel throughput: the module's uninstrumented entry point
/// (Module::raw_run_batch) pumped over `w` for `seconds`.
inline double raw_kernel_pps(const native::Program& prog, KernelWorkload& w,
                             double seconds) {
  if (w.packets.empty()) return 0.0;
  const native::RunBatchFn fn = prog.module().raw_run_batch();
  const auto n = static_cast<std::int32_t>(w.packets.size());
  return pump_pps(w, seconds, [&] {
    for (std::int32_t off = 0; off < n; off += w.chunk) {
      fn(w.ptrs.data(), w.packets.data() + off, std::min(w.chunk, n - off),
         w.out.data(), w.counts.data());
    }
  });
}

}  // namespace lucid::bench
