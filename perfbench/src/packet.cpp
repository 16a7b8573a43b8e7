#include "packet.hpp"

#include <algorithm>

#include "interp/testbed.hpp"

namespace perfbench {

namespace {

using lucid::native::Program;
using lucid::native::Replica;
namespace diff = lucid::native::diff;

/// Slices replayed through the interpreter for the correctness check.
constexpr int kCheckSlices = 2;
/// Simulated time the last slice is given to drain (as diff::make_schedule).
constexpr std::int64_t kSettleNs = 300 * lucid::sim::kUs;
/// Packets pushed through the raw kernel per app by the kernel probe.
constexpr std::int32_t kKernelPackets = 1 << 20;

struct Injection {
  std::int64_t t = 0;
  const std::string* event = nullptr;
  std::vector<std::int64_t> args;
};

/// Streams one app's seeded injections slice by slice, in the shape of
/// diff::make_schedule (trickle) or diff::make_burst_schedule (burst): every
/// timer event is seeded once up front, traffic events round-robin with
/// random 12-bit arguments.
class SliceGen {
 public:
  SliceGen(const lucid::ir::ProgramIR& ir, const Options& opt,
           std::size_t app_index)
      : shape_(opt.shape), rng_(opt.seed * 7919 + app_index) {
    for (const auto& ev : ir.events) {
      if (!ev.has_handler) continue;
      (diff::is_timer_event(ir, ev.event_id) ? timers_ : traffic_)
          .push_back(&ev);
    }
  }

  /// The next `n` traffic injections (the first slice also carries the
  /// timer seeds). Empty once an app without traffic events has seeded.
  std::vector<Injection> next(int n) {
    std::vector<Injection> out;
    if (!seeded_) {
      seeded_ = true;
      for (const auto* ev : timers_) {
        out.push_back(make(t_, *ev));
        t_ += 1000;
      }
      t_ = std::max<std::int64_t>(t_, 5000);
    }
    for (int i = 0; i < n && !traffic_.empty(); ++i, ++k_) {
      out.push_back(make(t_, *traffic_[k_ % traffic_.size()]));
      if (shape_ == Shape::kTrickle) {
        t_ += 700 + static_cast<std::int64_t>(rng_.below(600));
      } else if ((k_ + 1) % kBurstSize == 0) {
        t_ += kBurstGapNs;
      }
    }
    if (!out.empty()) last_t_ = out.back().t;
    return out;
  }

  [[nodiscard]] std::int64_t last_t() const { return last_t_; }
  [[nodiscard]] std::uint64_t fingerprint() const { return fp_.value(); }

 private:
  Injection make(std::int64_t t, const lucid::ir::EventInfo& ev) {
    Injection inj{t, &ev.name, {}};
    inj.args.reserve(ev.params.size());
    fp_.add(t);
    fp_.add(ev.name);
    for (std::size_t i = 0; i < ev.params.size(); ++i) {
      inj.args.push_back(static_cast<std::int64_t>(rng_.below(4096)));
      fp_.add(inj.args.back());
    }
    return inj;
  }

  Shape shape_;
  Rng rng_;
  std::vector<const lucid::ir::EventInfo*> timers_;
  std::vector<const lucid::ir::EventInfo*> traffic_;
  bool seeded_ = false;
  std::uint64_t k_ = 0;
  std::int64_t t_ = 997;
  std::int64_t last_t_ = 0;
  Fingerprint fp_;
};

lucid::native::ReplicaConfig replica_config() {
  lucid::native::ReplicaConfig cfg;
  cfg.switch_cfg.id = 1;  // the interpreter replay's single node
  return cfg;
}

diff::EngineResult snapshot(const Replica& rep) {
  diff::EngineResult r;
  for (std::size_t i = 0; i < rep.array_count(); ++i) {
    r.arrays.push_back(rep.array_cells(i));
  }
  r.stats = rep.run_stats();
  r.executed = rep.stats().executed;
  r.forwarded = rep.stats().forwarded;
  r.delayed_enqueues = rep.stats().delayed_enqueues;
  r.recirculations = rep.stats().recirculations;
  r.ok = true;
  return r;
}

/// The interpreter on the same first `slices` slices, registered and run
/// slice by slice exactly as the replica saw them (so the simulator
/// allocates the same (time, seq) order).
diff::EngineResult replay_interp(const Options& opt, const Program& prog,
                                 std::size_t app_index, int slices) {
  diff::EngineResult r;
  lucid::interp::TestbedConfig cfg;
  cfg.program_name = prog.compilation().options().program_name;
  cfg.switch_ids = {1};
  lucid::interp::Testbed tb(prog.compilation().source(), cfg);
  if (!tb.ok()) {
    r.error = "compile failed: " + tb.diagnostics();
    return r;
  }
  lucid::interp::Runtime& rt = tb.node(1);
  SliceGen gen(prog.ir(), opt, app_index);
  for (int s = 0; s < slices; ++s) {
    for (auto& inj : gen.next(kSliceSize)) {
      tb.sim().at(inj.t, [&rt, ev = *inj.event, args = std::move(inj.args)] {
        rt.inject(ev, args);
      });
    }
    tb.sim().run_until(gen.last_t());
  }
  for (const auto& arr : tb.compilation().ir().arrays) {
    const auto* a = rt.array(arr.name);
    r.arrays.emplace_back(a->data(), a->data() + a->size());
  }
  const auto& st = rt.stats();
  r.stats.executions = st.executions;
  r.stats.generated = st.generated;
  r.stats.total_executions = st.total_executions;
  const auto& ss = tb.sched_at(1).stats();
  r.executed = ss.executed;
  r.forwarded = ss.forwarded;
  r.delayed_enqueues = ss.delayed_enqueues;
  r.recirculations = tb.switch_at(1).recirculations();
  r.ok = true;
  return r;
}

}  // namespace

struct PacketSection::App {
  App(const Options& opt, std::shared_ptr<const Program> p, std::size_t i)
      : prog(std::move(p)), index(i), rep(prog, replica_config()),
        gen(prog->ir(), opt, i) {
    stats.app = prog->compilation().options().program_name;
  }
  std::shared_ptr<const Program> prog;
  std::size_t index;
  Replica rep;
  SliceGen gen;
  diff::EngineResult prefix;  // replica state after kCheckSlices slices
  AppPackets stats;
};

PacketSection::PacketSection(const Options& opt,
                             std::vector<std::shared_ptr<const Program>> progs)
    : opt_(opt) {
  for (std::size_t i = 0; i < progs.size(); ++i) {
    apps_.push_back(std::make_unique<App>(opt, std::move(progs[i]), i));
  }
}

PacketSection::~PacketSection() = default;

Round PacketSection::run(int slices_per_app, std::vector<AppPackets>* out) {
  Round total;
  for (auto& ap : apps_) {
    App& a = *ap;
    AppPackets& st = a.stats;
    for (int s = 0; s < slices_per_app; ++s) {
      auto batch = a.gen.next(kSliceSize);  // arguments built before timing
      {
        Probe p(opt_.workload, "native.inject", st.app);
        for (auto& inj : batch) {
          if (!a.rep.schedule_inject(inj.t, *inj.event, std::move(inj.args))) {
            ++st.rejected;
          }
        }
        total.wall_s += p.stop(static_cast<std::int64_t>(batch.size()));
      }
      st.injected += batch.size();
      const std::uint64_t before = a.rep.stats().executed;
      {
        Probe p(opt_.workload, "native.run_until", st.app);
        a.rep.run_until(a.gen.last_t());
        total.wall_s += p.stop(
            static_cast<std::int64_t>(a.rep.stats().executed - before));
      }
      if (s + 1 == kCheckSlices) a.prefix = snapshot(a.rep);
    }
    const std::uint64_t before = a.rep.stats().executed;
    {
      Probe p(opt_.workload, "native.run_until", st.app);
      a.rep.run_until(a.gen.last_t() + kSettleNs);
      total.wall_s += p.stop(
          static_cast<std::int64_t>(a.rep.stats().executed - before));
    }
    st.executed = a.rep.stats().executed;
    st.recirculations = a.rep.stats().recirculations;
    st.delayed_enqueues = a.rep.stats().delayed_enqueues;
    st.fingerprint = a.gen.fingerprint();
    st.check_error =
        slices_per_app < kCheckSlices
            ? "fewer than " + std::to_string(kCheckSlices) + " slices run"
            : diff::compare(a.prog->ir(),
                            replay_interp(opt_, *a.prog, a.index, kCheckSlices),
                            a.prefix);
    total.work += st.executed;
    out->push_back(st);
    ap.reset();  // the replica is done: release it before the next app runs
  }
  return total;
}

void kernel_probe(const Options& opt, const Program& prog) {
  using lucid::native::GenOut;
  using lucid::native::PacketIn;
  const auto& ir = prog.ir();
  std::vector<const lucid::ir::EventInfo*> handled;
  for (const auto& ev : ir.events) {
    if (ev.has_handler) handled.push_back(&ev);
  }
  if (handled.empty()) return;
  constexpr std::int32_t kRing = 4096;  // distinct packets, cycled
  Rng rng(opt.seed * 31 + 7);
  std::vector<PacketIn> in(kRing);
  for (std::int32_t i = 0; i < kRing; ++i) {
    const auto& ev = *handled[static_cast<std::size_t>(i) % handled.size()];
    PacketIn& p = in[static_cast<std::size_t>(i)];
    p.event_id = ev.event_id;
    p.nargs = static_cast<std::int32_t>(ev.params.size());
    p.now_ns = i;
    p.self_id = 1;
    for (std::int32_t k = 0; k < p.nargs; ++k) {
      p.args[k] = static_cast<std::int64_t>(rng.below(4096));
    }
  }
  std::vector<std::vector<std::int64_t>> cells;
  std::vector<std::int64_t*> ptrs;
  for (const auto& arr : ir.arrays) {
    cells.emplace_back(static_cast<std::size_t>(arr.size), 0);
  }
  for (auto& c : cells) ptrs.push_back(c.data());
  const std::int32_t batch = opt.shape == Shape::kBurst ? kBurstSize : 1;
  const auto stride = static_cast<std::size_t>(
      std::max<std::int32_t>(prog.module().max_gens(), 1));
  std::vector<GenOut> out(static_cast<std::size_t>(batch) * stride);
  std::vector<std::int32_t> counts(static_cast<std::size_t>(batch));
  const auto fn = prog.module().raw_run_batch();
  fn(ptrs.data(), in.data(), batch, out.data(), counts.data());  // warm
  Probe p(opt.workload, "native.kernel",
          prog.compilation().options().program_name);
  for (std::int32_t done = 0; done < kKernelPackets; done += batch) {
    fn(ptrs.data(), in.data() + (done % kRing), batch, out.data(),
       counts.data());
  }
  p.stop(kKernelPackets);
}

std::uint64_t input_fingerprint(const Options& opt,
                                const lucid::ir::ProgramIR& ir,
                                std::size_t app_index, int slices) {
  SliceGen gen(ir, opt, app_index);
  for (int s = 0; s < slices; ++s) gen.next(kSliceSize);
  return gen.fingerprint();
}

}  // namespace perfbench
