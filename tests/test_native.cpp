// Native execution engine (src/native): the differential-state contract.
//
// The contract (documented in tests/README.md): for any event schedule, the
// native engine must leave register state *byte-identical* to the reference
// interpreter — every cell of every array, every per-event execution and
// generate count, every scheduler counter. These tests pin that contract on
// all ten paper applications with randomized traffic, and pin one n-packet
// run_batch against n one-packet calls.
//
// The sharded fleet extends the contract per shard (see tests/README.md):
// each ReplicaFleet shard must be byte-identical to a single-threaded
// Replica run of that shard's injection subsequence, at every shard count —
// plus width-masked routing, bounded-footprint, tie-break-boundary, and
// live-control-plane (TSan-labeled, through ctrl::FleetDataPlane) coverage
// for the batched event loop.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "core/backends.hpp"
#include "ctrl/native_bridge.hpp"
#include "golden_programs.hpp"
#include "native/differential.hpp"
#include "obs/metrics.hpp"
#include "support/bits.hpp"

namespace lucid::native {
namespace {

std::shared_ptr<const Program> build_source(const std::string& source,
                                            const std::string& name) {
  interp::TestbedConfig cfg;
  cfg.program_name = name;
  interp::Testbed tb(source, cfg);
  EXPECT_TRUE(tb.ok()) << tb.diagnostics();
  std::string err;
  auto prog = Program::build(tb.compilation_ptr(), &err);
  EXPECT_NE(prog, nullptr) << err;
  return prog;
}

std::shared_ptr<const Program> build_app(const std::string& key) {
  return build_source(apps::app(key).source, key);
}

// ---------------------------------------------------------------------------
// Differential state pinning: all ten paper apps, randomized traffic
// ---------------------------------------------------------------------------

TEST(NativeDifferential, AllTenAppsByteIdenticalState) {
  std::uint64_t seed = 0xC0FFEE;
  for (const auto& app : apps::all_apps()) {
    const auto out =
        diff::run_differential(app.source, app.key, seed++, 300);
    EXPECT_TRUE(out.ok) << app.key << ": " << out.detail;
    // A run that executed nothing would pass the diff vacuously.
    EXPECT_GT(out.interp.executed, 0u) << app.key;
  }
}

TEST(NativeDifferential, SeedChangesScheduleButNotAgreement) {
  const auto& app = apps::app("SFW");
  const auto a = diff::run_differential(app.source, app.key, 1, 200);
  const auto b = diff::run_differential(app.source, app.key, 2, 200);
  EXPECT_TRUE(a.ok) << a.detail;
  EXPECT_TRUE(b.ok) << b.detail;
  // Different seeds produce genuinely different runs (else the sweep above
  // is ten copies of one data point).
  EXPECT_NE(a.interp.arrays, b.interp.arrays);
}

// Every arg a full 64-bit word or a width boundary (0, -1, 2^w - 1, 2^w),
// on every paper app and on the constructs program's 8- and 64-bit params.
// The injection masks Program::build precomputes per param must cut exactly
// what support::mask_width cuts (the generated module masks params again on
// entry, so register state alone can't see a wrong host mask — routing
// can), and the native run must match the interpreter with every high bit
// set, including the 64-bit word fed to the module's hash.
TEST(NativeDifferential, WideArgsMatchOnAppsAndConstructs) {
  std::uint64_t seed = 0x5EED;
  for (const apps::AppSpec& app : golden_programs()) {
    SCOPED_TRACE(app.key);
    ASSERT_FALSE(app.source.empty());
    interp::TestbedConfig cfg;
    cfg.program_name = app.key;
    interp::Testbed probe(app.source, cfg);
    ASSERT_TRUE(probe.ok()) << probe.diagnostics();
    std::string err;
    const auto prog = Program::build(probe.compilation_ptr(), &err);
    ASSERT_NE(prog, nullptr) << err;
    const diff::Schedule plan =
        diff::make_wide_schedule(prog->ir(), seed++, 300);
    int wide = 0;  // args with bits above their declared width
    for (const auto& e : plan.entries) {
      const ir::EventInfo* ev = prog->find_event(e.event);
      std::vector<std::int64_t> masked = e.args;
      ASSERT_NE(prog->validate_event(e.event, masked), nullptr) << e.event;
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        const std::int64_t want =
            support::mask_width(e.args[i], ev->params[i].second);
        EXPECT_EQ(masked[i], want) << e.event << " arg " << i;
        if (want != e.args[i]) ++wide;
      }
    }
    EXPECT_GT(wide, 0);
    const auto iref = diff::run_interp(app.source, app.key, plan);
    const auto got = diff::run_native(prog, plan);
    EXPECT_EQ(diff::compare(prog->ir(), iref, got), "");
    EXPECT_GT(got.executed, 0u);
  }
}

// ---------------------------------------------------------------------------
// One n-packet run_batch == n one-packet run_batch calls
// ---------------------------------------------------------------------------

TEST(NativeBatch, OneBatchMatchesOnePacketBatches) {
  const auto prog = build_app("SFW");
  ASSERT_NE(prog, nullptr);
  const ir::ProgramIR& ir = prog->ir();
  const RunBatchFn run_batch = prog->module().raw_run_batch();

  // Two identical zeroed register files.
  std::vector<std::vector<std::int64_t>> one_cells;
  std::vector<std::vector<std::int64_t>> batch_cells;
  std::vector<std::int64_t*> one_ptrs;
  std::vector<std::int64_t*> batch_ptrs;
  for (const auto& arr : ir.arrays) {
    one_cells.emplace_back(static_cast<std::size_t>(arr.size), 0);
    batch_cells.emplace_back(static_cast<std::size_t>(arr.size), 0);
  }
  for (auto& c : one_cells) one_ptrs.push_back(c.data());
  for (auto& c : batch_cells) batch_ptrs.push_back(c.data());

  // A packet vector spanning every handled event with varied args; 1000
  // packets is far past any event-loop drain size.
  std::vector<const ir::EventInfo*> handled;
  for (const auto& cand : ir.events) {
    if (cand.has_handler) handled.push_back(&cand);
  }
  ASSERT_FALSE(handled.empty());

  std::vector<PacketIn> packets;
  std::uint64_t rng = 42;
  for (int i = 0; i < 1000; ++i) {
    const ir::EventInfo* ev =
        handled[static_cast<std::size_t>(i) % handled.size()];
    PacketIn in;
    in.event_id = ev->event_id;
    in.nargs = static_cast<std::int32_t>(ev->params.size());
    in.now_ns = 1000 + i;
    in.self_id = 1;
    for (std::int32_t a = 0; a < in.nargs; ++a) {
      in.args[a] =
          static_cast<std::int64_t>(diff::splitmix64(rng) % 100000);
    }
    packets.push_back(in);
  }

  const auto gens = static_cast<std::size_t>(
      std::max<std::int32_t>(prog->module().max_gens(), 1));
  std::vector<GenOut> one_out(packets.size() * gens);
  std::vector<std::int32_t> one_counts(packets.size(), -1);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    run_batch(one_ptrs.data(), &packets[i], 1, one_out.data() + i * gens,
              &one_counts[i]);
  }

  std::vector<GenOut> batch_out(packets.size() * gens);
  std::vector<std::int32_t> batch_counts(packets.size(), -1);
  run_batch(batch_ptrs.data(), packets.data(),
            static_cast<std::int32_t>(packets.size()), batch_out.data(),
            batch_counts.data());

  EXPECT_EQ(one_cells, batch_cells);
  std::int32_t generated = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    ASSERT_EQ(one_counts[i], batch_counts[i]) << "packet " << i;
    generated += batch_counts[i];
    for (std::int32_t g = 0; g < batch_counts[i]; ++g) {
      const GenOut& a = one_out[i * gens + static_cast<std::size_t>(g)];
      const GenOut& b = batch_out[i * gens + static_cast<std::size_t>(g)];
      EXPECT_EQ(a.event_id, b.event_id) << "packet " << i << " gen " << g;
      EXPECT_EQ(a.delay_ns, b.delay_ns) << "packet " << i << " gen " << g;
      EXPECT_EQ(std::vector<std::int64_t>(a.args, a.args + a.nargs),
                std::vector<std::int64_t>(b.args, b.args + b.nargs))
          << "packet " << i << " gen " << g;
    }
  }
  // A run that generated nothing would compare no generate records.
  EXPECT_GT(generated, 0);
}

// ---------------------------------------------------------------------------
// Injection validation and bounded footprint
// ---------------------------------------------------------------------------

TEST(NativeReplica, RejectsOverArityInjection) {
  const auto prog = build_app("SFW");
  ASSERT_NE(prog, nullptr);
  const ir::EventInfo* ev = nullptr;
  for (const auto& cand : prog->ir().events) {
    if (cand.has_handler) {
      ev = &cand;
      break;
    }
  }
  ASSERT_NE(ev, nullptr);

  // More args than the ABI packet can carry must be rejected up front —
  // the same reject semantics as an arity mismatch — never truncated into
  // the fixed args[kMaxArgs] array.
  std::vector<std::int64_t> over(static_cast<std::size_t>(kMaxArgs) + 1, 1);
  Replica rep(prog, ReplicaConfig{});
  EXPECT_FALSE(rep.schedule_inject(1000, ev->name, over));

  ReplicaFleet fleet(prog, FleetConfig{});
  EXPECT_FALSE(fleet.schedule_inject(1000, ev->name, over));

  // The valid arity still injects (the guard is not rejecting everything).
  std::vector<std::int64_t> ok_args(ev->params.size(), 1);
  EXPECT_TRUE(rep.schedule_inject(1000, ev->name, ok_args));
}

TEST(NativeReplica, PendingFootprintBoundedOverMillionInjections) {
  const auto prog = build_app("CM");
  ASSERT_NE(prog, nullptr);
  // A non-timer event: no self-perpetuating cascades, so the run drains
  // exactly what the cycle scheduled.
  const ir::EventInfo* traffic = nullptr;
  for (const auto& cand : prog->ir().events) {
    if (cand.has_handler &&
        !diff::is_timer_event(prog->ir(), cand.event_id)) {
      traffic = &cand;
      break;
    }
  }
  ASSERT_NE(traffic, nullptr);

  Replica rep(prog, ReplicaConfig{});
  constexpr int kCycles = 200;
  constexpr int kPerCycle = 5000;  // 1M injections total
  sim::Time t = 1000;
  std::uint64_t rng = 7;
  std::size_t high_water = 0;
  for (int c = 0; c < kCycles; ++c) {
    for (int i = 0; i < kPerCycle; ++i) {
      std::vector<std::int64_t> args;
      args.reserve(traffic->params.size());
      for (std::size_t a = 0; a < traffic->params.size(); ++a) {
        args.push_back(
            static_cast<std::int64_t>(diff::splitmix64(rng) % 4096));
      }
      rep.schedule_inject(t, traffic->name, std::move(args));
      t += 100;
    }
    rep.run_until(t + 10 * sim::kUs);
    high_water = std::max(high_water, rep.pending_footprint());
  }
  EXPECT_EQ(rep.stats().executed,
            static_cast<std::uint64_t>(kCycles) * kPerCycle);
  // The regression: consumed injections are compacted away, so the
  // footprint tracks one cycle's backlog, not the 1M-injection total.
  EXPECT_LT(high_water, static_cast<std::size_t>(4 * kPerCycle));
}

// A streaming caller runs only to each slice's last arrival, so the last
// burst's pipeline passes are still in flight at every boundary and the
// pending vector must compact under live pass indices. The interpreter is
// fed the same slices in the same order, one run_until per slice, which
// pins the rebased indices: a stale one would execute the wrong packet.
TEST(NativeReplica, PendingCompactsWhilePassesInFlight) {
  const auto prog = build_app("SFW");  // recirculates: pool-sourced passes
  ASSERT_NE(prog, nullptr);
  constexpr int kSlice = 4096;
  constexpr int kSlices = 24;
  constexpr int kBurst = 32;
  for (const bool burst : {true, false}) {
    SCOPED_TRACE(burst ? "burst" : "trickle");
    const diff::Schedule plan =
        burst ? diff::make_burst_schedule(prog->ir(), 5,
                                          kSlices * kSlice / kBurst, kBurst)
              : diff::make_schedule(prog->ir(), 5, kSlices * kSlice);
    // The timer seeds ride in the first slice, as in perfbench.
    const std::size_t timers = plan.entries.size() - kSlices * kSlice;

    ReplicaConfig rcfg;
    rcfg.switch_cfg.id = 1;  // the interpreter's single node
    Replica rep(prog, rcfg);
    interp::TestbedConfig icfg;
    icfg.program_name = "SFW";
    icfg.switch_ids = {1};
    interp::Testbed tb(apps::app("SFW").source, icfg);
    ASSERT_TRUE(tb.ok()) << tb.diagnostics();
    interp::Runtime& rt = tb.node(1);

    std::size_t high_water = 0;
    std::size_t next = 0;
    for (int s = 0; s < kSlices; ++s) {
      const std::size_t end =
          timers + static_cast<std::size_t>(s + 1) * kSlice;
      for (; next < end; ++next) {
        const diff::Injection& e = plan.entries[next];
        ASSERT_TRUE(rep.schedule_inject(e.t, e.event, e.args)) << e.event;
        tb.sim().at(e.t, [&rt, &e] { rt.inject(e.event, e.args); });
      }
      const sim::Time last = plan.entries[end - 1].t;
      rep.run_until(last);
      tb.sim().run_until(last);
      high_water = std::max(high_water, rep.pending_footprint());
    }
    // The regression: the consumed prefix is erased under in-flight passes,
    // so the footprint tracks one slice, not the ~100k-injection stream.
    EXPECT_LT(high_water, static_cast<std::size_t>(4 * kSlice));

    // Drain the last slice's in-flight passes (indices rebased at the last
    // boundary) on both engines, then compare everything observable.
    rep.run_until(plan.horizon);
    tb.sim().run_until(plan.horizon);
    const diff::EngineResult got = diff::snapshot(rep);
    EXPECT_EQ(diff::compare(prog->ir(), diff::snapshot(tb), got), "");
    EXPECT_GE(got.executed, static_cast<std::uint64_t>(kSlices) * kSlice);
    EXPECT_GT(got.recirculations, 0u);
  }
}

// ---------------------------------------------------------------------------
// Sharded fleet: the per-shard differential-state contract
// ---------------------------------------------------------------------------

TEST(NativeFleet, ShardCountInvariance) {
  const auto prog = build_app("SFW");
  ASSERT_NE(prog, nullptr);
  const auto plan = diff::make_burst_schedule(prog->ir(), 11, 60, 16);

  RunStats first_merged;
  std::uint64_t first_executed = 0;
  for (const int shards : {1, 2, 4, 8}) {
    FleetConfig fcfg;
    fcfg.shards = shards;
    fcfg.label_metrics = false;
    ReplicaFleet fleet(prog, fcfg);
    for (const auto& e : plan.entries) {
      ASSERT_TRUE(fleet.schedule_inject(e.t, e.event, e.args)) << e.event;
    }
    fleet.run_until(plan.horizon);

    // Each shard must match a single-threaded Replica run of the shard's
    // injection subsequence, re-derived here with the fleet's routing.
    for (int s = 0; s < shards; ++s) {
      Replica ref(prog, ReplicaConfig{});
      for (const auto& e : plan.entries) {
        if (fleet.route_of(e.event, e.args) != static_cast<std::size_t>(s)) {
          continue;
        }
        ASSERT_TRUE(ref.schedule_inject(e.t, e.event, e.args));
      }
      ref.run_until(plan.horizon);
      const Replica& live = fleet.shard(static_cast<std::size_t>(s));
      for (std::size_t a = 0; a < ref.array_count(); ++a) {
        ASSERT_EQ(ref.array_cells(a), live.array_cells(a))
            << shards << " shards, shard " << s << ", array "
            << prog->ir().arrays[a].name;
      }
      EXPECT_EQ(ref.stats().executed, live.stats().executed);
    }

    // Merged totals are shard-count invariant: every injection lands on
    // exactly one shard and cascades there, so 1/2/4/8 shards partition
    // identical work.
    const RunStats merged = fleet.merged_run_stats();
    const std::uint64_t executed = fleet.merged_stats().executed;
    EXPECT_GT(executed, 0u);
    if (shards == 1) {
      first_merged = merged;
      first_executed = executed;
    } else {
      EXPECT_EQ(merged.total_executions, first_merged.total_executions);
      EXPECT_EQ(merged.executions, first_merged.executions);
      EXPECT_EQ(merged.generated, first_merged.generated);
      EXPECT_EQ(executed, first_executed);
    }
  }
}

// ---------------------------------------------------------------------------
// Batched drain across a timestamp tie-break boundary
// ---------------------------------------------------------------------------

TEST(NativeFleet, RoutesOnWidthMaskedArgs) {
  // x and x + 256 are the same packet to an 8-bit param: the handler sees
  // both masked to x. The fleet must route them to the same shard, and so
  // run both on the one shard that owns x's flow.
  const auto prog = build_source(
      "global hits = new Array<<32>>(256);\n"
      "memop plus(int cur, int x) { return cur + x; }\n"
      "event pkt(int<<8>> x);\n"
      "handle pkt(int<<8>> x) { Array.set(hits, x, plus, 1); }\n",
      "masked_route");
  ASSERT_NE(prog, nullptr);

  FleetConfig fcfg;
  fcfg.shards = 4;
  fcfg.label_metrics = false;
  ReplicaFleet fleet(prog, fcfg);
  const std::int32_t id = prog->find_event("pkt")->event_id;
  int split = 0;  // pairs whose raw words would hash to different shards
  for (std::int64_t x = 0; x < 64; ++x) {
    const std::int64_t wide = x + 256;
    if (ReplicaFleet::route(fleet.shards(), -1, id, {x}) !=
        ReplicaFleet::route(fleet.shards(), -1, id, {wide})) {
      ++split;
    }
    EXPECT_EQ(fleet.route_of("pkt", {x}), fleet.route_of("pkt", {wide}))
        << "x=" << x;
    ASSERT_TRUE(fleet.schedule_inject(1000 + x, "pkt", {x}));
    ASSERT_TRUE(fleet.schedule_inject(1000 + x, "pkt", {wide}));
  }
  ASSERT_GT(split, 0) << "no arg pair exercises the masking";
  fleet.run_until(sim::kMs);

  const int slot = prog->ir().array_index.at("hits");
  for (std::int64_t x = 0; x < 64; ++x) {
    const std::size_t home = fleet.route_of("pkt", {x});
    for (int s = 0; s < fleet.shards(); ++s) {
      const std::int64_t want = static_cast<std::size_t>(s) == home ? 2 : 0;
      EXPECT_EQ(fleet.shard(static_cast<std::size_t>(s))
                    .control_read(static_cast<std::size_t>(slot), x),
                want)
          << "x=" << x << " shard " << s;
    }
  }
}

TEST(NativeBatch, DrainAcrossTimestampTieBreakBoundary) {
  // Burst gap == pipeline latency: burst b's pipeline passes finish at
  // exactly the timestamp burst b+1's injections arrive, so every drain
  // runs into same-timestamp pending injections and (for delay-heavy apps)
  // same-timestamp PFC frames — the tie-break boundaries the drain must
  // stop at. The reference interpreter is the oracle.
  for (const char* key : {"SFW", "NAT"}) {
    const auto& app = apps::app(key);
    interp::TestbedConfig cfg;
    cfg.program_name = app.key;
    interp::Testbed probe(app.source, cfg);
    ASSERT_TRUE(probe.ok()) << probe.diagnostics();
    std::string err;
    const auto prog = Program::build(probe.compilation_ptr(), &err);
    ASSERT_NE(prog, nullptr) << err;

    const sim::Time pipe = pisa::SwitchConfig{}.pipeline_latency_ns;
    const auto plan =
        diff::make_burst_schedule(prog->ir(), 23, 40, 8, /*gap_ns=*/pipe);

    const auto iref = diff::run_interp(app.source, app.key, plan);
    const auto nbatch = diff::run_native(prog, plan);

    EXPECT_EQ(diff::compare(prog->ir(), iref, nbatch), "") << key;
    EXPECT_GT(nbatch.executed, 0u) << key;
  }
}

// The drain hands each maximal span of executing injections of a
// same-timestamp run to run_batch in place. Everything that ends a span —
// a delayed injection (recirculated or delay-queued), one located at
// another switch (forwarded), one of a handler-less event (counted only) —
// rides inside the bursts here, next to self-located ones (which execute).
// Each shape also runs with the burst gap equal to the pipeline latency, so
// drains meet same-timestamp pending injections and heap entries; in the
// last shape a recirculation round trip also equals the pipeline latency,
// so (on NAT) a recirculated delivery lands at a drain's timestamp with its
// seq between two same-timestamp pass entries and stops that drain midway.
TEST(NativeBatch, SpanBreaksInsideBurstsMatchInterp) {
  const sim::Time pipe = pisa::SwitchConfig{}.pipeline_latency_ns;
  struct Shape {
    const char* name;
    sched::DelayMode mode;
    sim::Time gap_ns;
    sim::Time recirc_latency_ns;
  };
  const sim::Time ser = 6;  // an 84-byte frame at 100 Gb/s
  const Shape shapes[] = {
      {"pausable", sched::DelayMode::PausableQueue, 2000, 200},
      {"recirc", sched::DelayMode::BaselineRecirculation, 2000, 200},
      {"pausable/tie", sched::DelayMode::PausableQueue, pipe, 200},
      {"recirc/tie", sched::DelayMode::BaselineRecirculation, pipe,
       pipe - ser},
  };
  for (const char* key : {"SFW", "NAT"}) {
    // An event with no handler, declared after the app's own (so their ids
    // don't move).
    const std::string source =
        apps::app(key).source + "\nevent unhandled(int a, int<<8>> b);\n";
    interp::TestbedConfig probe_cfg;
    probe_cfg.program_name = key;
    interp::Testbed probe(source, probe_cfg);
    ASSERT_TRUE(probe.ok()) << probe.diagnostics();
    std::string err;
    const auto prog = Program::build(probe.compilation_ptr(), &err);
    ASSERT_NE(prog, nullptr) << err;
    ASSERT_FALSE(prog->find_event("unhandled")->has_handler);

    for (const Shape& shape : shapes) {
      SCOPED_TRACE(std::string(key) + " " + shape.name);
      const diff::Schedule base =
          diff::make_burst_schedule(prog->ir(), 31, 80, 16, shape.gap_ns);
      diff::Schedule plan;
      plan.horizon = base.horizon;
      std::uint64_t rng = 99;
      for (const diff::Injection& e : base.entries) {
        diff::Injection inj = e;
        const std::uint64_t r = diff::splitmix64(rng);
        switch (r % 8) {
          case 0:  // due before or after its pipeline pass ends
            inj.delay_ns = static_cast<sim::Time>(100 + (r >> 8) % 3000);
            break;
          case 1:
            inj.location = 7;  // another switch
            break;
          case 2:
            inj.location = 1;  // this switch
            break;
          default:
            break;
        }
        plan.entries.push_back(inj);
        if (r % 8 == 3) {
          plan.entries.push_back(diff::Injection{
              e.t, "unhandled", {static_cast<std::int64_t>(r), -1}});
        }
      }
      interp::TestbedConfig icfg;
      icfg.sched.mode = shape.mode;
      icfg.switch_base.recirc_latency_ns = shape.recirc_latency_ns;
      ReplicaConfig rcfg;
      rcfg.sched.mode = shape.mode;
      rcfg.switch_cfg.recirc_latency_ns = shape.recirc_latency_ns;
      const auto iref = diff::run_interp(source, key, plan, icfg);
      const auto got = diff::run_native(prog, plan, rcfg);
      EXPECT_EQ(diff::compare(prog->ir(), iref, got), "");

      // Streamed: each same-timestamp group is registered only once both
      // engines have run to the previous group's time, so a heap entry
      // due at a burst's arrival (allocated earlier) precedes the burst's
      // run, and a recirculated pass can share a drain with the run that
      // follows it in the FIFO.
      icfg.program_name = key;
      icfg.switch_ids = {1};
      interp::Testbed tb(source, icfg);
      ASSERT_TRUE(tb.ok()) << tb.diagnostics();
      interp::Runtime& rt = tb.node(1);
      rcfg.switch_cfg.id = 1;
      Replica rep(prog, rcfg);
      for (std::size_t i = 0; i < plan.entries.size();) {
        const sim::Time t = plan.entries[i].t;
        for (; i < plan.entries.size() && plan.entries[i].t == t; ++i) {
          const diff::Injection& e = plan.entries[i];
          ASSERT_TRUE(
              rep.schedule_inject(e.t, e.event, e.args, e.delay_ns,
                                  e.location));
          tb.sim().at(e.t, [&rt, &e] {
            rt.inject(e.event, e.args, e.delay_ns, e.location);
          });
        }
        rep.run_until(t);
        tb.sim().run_until(t);
      }
      rep.run_until(plan.horizon);
      tb.sim().run_until(plan.horizon);
      EXPECT_EQ(diff::compare(prog->ir(), diff::snapshot(tb),
                              diff::snapshot(rep)),
                "")
          << "streamed";

      EXPECT_GT(got.forwarded, 0u);
      EXPECT_GT(got.recirculations, 0u);
      if (shape.mode == sched::DelayMode::PausableQueue) {
        EXPECT_GT(got.delayed_enqueues, 0u);
      }
      EXPECT_GT(got.executed, got.stats.total_executions)
          << "no handler-less injection was counted";
    }
  }
}

TEST(NativeFleet, QueueDepthGaugeCountsPassesNotRuns) {
  // The 32 injections of one burst travel the pass FIFO as one run entry;
  // the gauge still reports the 32 passes in flight.
  const auto prog = build_source(
      "global hits = new Array<<32>>(64);\n"
      "memop plus(int cur, int x) { return cur + x; }\n"
      "event pkt(int x);\n"
      "handle pkt(int x) { Array.set(hits, x, plus, 1); }\n",
      "queue_depth");
  ASSERT_NE(prog, nullptr);
  FleetConfig fcfg;
  fcfg.shards = 1;
  fcfg.label_metrics = true;
  // No PFC stream, so no heap entries count alongside the passes.
  fcfg.replica.sched.mode = sched::DelayMode::BaselineRecirculation;
  ReplicaFleet fleet(prog, fcfg);
  const sim::Time t = 1000;
  for (std::int64_t x = 0; x < 32; ++x) {
    ASSERT_TRUE(fleet.schedule_inject(t, "pkt", {x}));
  }
  fleet.run_until(t);
  const obs::Gauge& depth = obs::Registry::global().gauge(
      "lucid_native_shard_queue_depth", obs::Labels{{"shard", "0"}});
  EXPECT_EQ(depth.value(), 32);
  fleet.run_until(t + sim::kMs);
  EXPECT_EQ(depth.value(), 0);
  EXPECT_EQ(fleet.merged_stats().executed, 32u);
}

// ---------------------------------------------------------------------------
// Fleet under a live control plane (TSan target: ctest -L concurrency)
// ---------------------------------------------------------------------------

TEST(NativeFleet, ControlPlaneAppliesWhileFleetRuns) {
  const auto prog = build_app("SFW");
  ASSERT_NE(prog, nullptr);

  FleetConfig fcfg;
  fcfg.shards = 4;
  fcfg.label_metrics = false;
  ReplicaFleet fleet(prog, fcfg);
  ctrl::FleetDataPlane dp(fleet);

  // The ControlPlane lives on its own side scheduler (the control point in
  // a deployment); batches apply on this thread at flush boundaries, while
  // the fleet's shards run on pool workers and a producer thread submits
  // concurrently — the exact discipline native_bridge.hpp documents, and
  // what TSan checks under -DLUCID_SANITIZER=thread.
  sim::Simulator sim;
  pisa::SwitchConfig sw_cfg;
  sw_cfg.id = 99;
  pisa::Switch sw(sim, sw_cfg);
  sched::EventScheduler sc(sw, sched::SchedulerConfig{});
  ctrl::ControlPlane plane(dp, sc, ctrl::ControlPlaneConfig{});

  // A control-written array with at least 8 cells.
  const ir::ArrayInfo* arr = nullptr;
  for (const auto& cand : prog->ir().arrays) {
    if (cand.size >= 8) {
      arr = &cand;
      break;
    }
  }
  ASSERT_NE(arr, nullptr);
  ASSERT_TRUE(dp.has_array(arr->name));
  EXPECT_EQ(dp.array_size(arr->name), arr->size);
  EXPECT_FALSE(dp.has_array("no_such_array"));
  EXPECT_EQ(dp.array_size("no_such_array"), -1);
  const int slot = prog->ir().array_index.at(arr->name);
  const auto on_every_shard = [&](std::int64_t index, std::int64_t want) {
    for (int s = 0; s < fleet.shards(); ++s) {
      EXPECT_EQ(fleet.shard(static_cast<std::size_t>(s))
                    .control_read(static_cast<std::size_t>(slot), index),
                want)
          << "shard " << s << " index " << index;
    }
  };

  // A write lands on no shard before an apply point, and a write wider
  // than the cell lands masked to the cell width on every shard.
  const std::int64_t wide = (std::int64_t{1} << 40) | 9;
  ctrl::UpdateBatch first;
  first.writes.push_back(ctrl::RegWrite{arr->name, 3, 77});
  first.writes.push_back(ctrl::RegWrite{arr->name, 4, wide});
  plane.submit(std::move(first));
  on_every_shard(3, 0);
  on_every_shard(4, 0);
  plane.flush();
  on_every_shard(3, 77);
  on_every_shard(4, support::mask_width(wide, arr->width));
  ASSERT_NE(support::mask_width(wide, arr->width), wide);

  const auto plan = diff::make_burst_schedule(prog->ir(), 31, 40, 8);
  for (const auto& e : plan.entries) {
    ASSERT_TRUE(fleet.schedule_inject(e.t, e.event, e.args));
  }

  std::atomic<int> committed{0};
  std::thread producer([&plane, &committed, arr] {
    for (int i = 0; i < 64; ++i) {
      ctrl::UpdateBatch b;
      b.writes.push_back(ctrl::RegWrite{arr->name, i % 8, i & 1});
      b.on_done = [&committed](const ctrl::BatchResult& r) {
        if (r.applied) committed.fetch_add(1);
      };
      plane.submit(std::move(b));
    }
  });

  // Alternate run slices and apply ticks: shard state is only touched from
  // this thread while the fleet is quiescent (the pool join publishes it).
  for (int slice = 1; slice <= 8; ++slice) {
    fleet.run_until(plan.horizon * slice / 8);
    plane.flush();
  }
  producer.join();
  plane.flush();
  EXPECT_EQ(committed.load(), 64);
  EXPECT_GT(fleet.merged_stats().executed, 0u);

  // Determinism check after the race: a batch applied with the fleet fully
  // drained is the last writer, so every shard must agree on it
  // (replicated control tables broadcast to all shards).
  ctrl::UpdateBatch fin;
  for (std::int64_t i = 0; i < 8; ++i) {
    fin.writes.push_back(ctrl::RegWrite{arr->name, i, i & 1});
  }
  plane.submit(std::move(fin));
  plane.flush();
  for (std::int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(dp.read(arr->name, i), i & 1) << "index " << i;
    on_every_shard(i, i & 1);
  }
}

TEST(NativeFleet, ControlInjectedEventsExecuteOnTheFleet) {
  const auto prog = build_source(
      "global hits = new Array<<32>>(64);\n"
      "memop plus(int cur, int x) { return cur + x; }\n"
      "event pkt(int x);\n"
      "handle pkt(int x) { Array.set(hits, x, plus, 1); }\n",
      "ctrl_inject");
  ASSERT_NE(prog, nullptr);
  FleetConfig fcfg;
  fcfg.shards = 4;
  fcfg.label_metrics = false;
  ReplicaFleet fleet(prog, fcfg);
  ctrl::FleetDataPlane dp(fleet);

  sim::Simulator sim;
  pisa::SwitchConfig sw_cfg;
  sw_cfg.id = 99;
  pisa::Switch sw(sim, sw_cfg);
  sched::EventScheduler sc(sw, sched::SchedulerConfig{});
  ctrl::ControlPlane plane(dp, sc, ctrl::ControlPlaneConfig{});

  EXPECT_TRUE(dp.can_inject("pkt", 1));
  EXPECT_FALSE(dp.can_inject("no_such_event", 1));
  EXPECT_FALSE(dp.can_inject("pkt", 0));
  EXPECT_FALSE(dp.can_inject("pkt", 2));

  // A batch naming an unknown event or the wrong arity is rejected whole:
  // its valid post is not raised either.
  std::vector<ctrl::BatchResult> results;
  const auto record = [&results](const ctrl::BatchResult& r) {
    results.push_back(r);
  };
  for (const ctrl::EventPost& bad :
       {ctrl::EventPost{"no_such_event", {1}, 0},
        ctrl::EventPost{"pkt", {1, 2}, 0}}) {
    ctrl::UpdateBatch b;
    b.events.push_back(ctrl::EventPost{"pkt", {7}, 0});
    b.events.push_back(bad);
    b.on_done = record;
    plane.submit(std::move(b));
  }
  // A valid batch: two posts, the second delayed.
  ctrl::UpdateBatch good;
  good.events.push_back(ctrl::EventPost{"pkt", {5}, 0});
  good.events.push_back(ctrl::EventPost{"pkt", {9}, 2 * sim::kUs});
  good.on_done = record;
  plane.submit(std::move(good));
  plane.flush();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].applied);
  EXPECT_FALSE(results[1].applied);
  EXPECT_TRUE(results[2].applied) << results[2].error;

  // Each valid post executes once, on the shard its flow routes to, and
  // nothing else runs.
  fleet.run_until(sim::kMs);
  const RunStats merged = fleet.merged_run_stats();
  EXPECT_EQ(merged.total_executions, 2u);
  EXPECT_EQ(merged.executions.at("pkt"), 2u);
  const auto slot = static_cast<std::size_t>(prog->ir().array_index.at("hits"));
  for (const std::int64_t x : {5, 9}) {
    const std::size_t home = fleet.route_of("pkt", {x});
    for (int s = 0; s < fleet.shards(); ++s) {
      EXPECT_EQ(fleet.shard(static_cast<std::size_t>(s)).control_read(slot, x),
                static_cast<std::size_t>(s) == home ? 1 : 0)
          << "x=" << x << " shard " << s;
    }
  }
}

TEST(NativeFleet, LocatedInjectionsLandOnTheLocationShard) {
  // An injection addressed to location L routes on L alone, whatever its
  // event and args, so every packet for one destination meets the same
  // shard. Addressed elsewhere than this switch, each one is forwarded
  // there, which the shard counts.
  const auto prog = build_source(
      "global hits = new Array<<32>>(64);\n"
      "memop plus(int cur, int x) { return cur + x; }\n"
      "event pkt(int x);\n"
      "handle pkt(int x) { Array.set(hits, x, plus, 1); }\n",
      "located_route");
  ASSERT_NE(prog, nullptr);
  FleetConfig fcfg;
  fcfg.shards = 4;
  fcfg.label_metrics = false;
  fcfg.replica.switch_cfg.id = 1000;  // no injection below is local
  ReplicaFleet fleet(prog, fcfg);
  const std::int32_t id = prog->find_event("pkt")->event_id;

  std::vector<std::uint64_t> want(4, 0);
  int differs = 0;  // injections whose flow hash picks another shard
  sim::Time t = 1000;
  for (std::int64_t loc = 0; loc < 16; ++loc) {
    const std::size_t home = ReplicaFleet::route(4, loc, id, {});
    for (std::int64_t x = 0; x < 8; ++x, t += 100) {
      EXPECT_EQ(fleet.route_of("pkt", {x}, loc), home);
      if (fleet.route_of("pkt", {x}) != home) ++differs;
      ASSERT_TRUE(fleet.schedule_inject(t, "pkt", {x}, 0, loc));
      ++want[home];
    }
  }
  ASSERT_GT(differs, 0) << "no injection exercises location routing";
  fleet.run_until(t + sim::kMs);

  int used = 0;
  for (int s = 0; s < fleet.shards(); ++s) {
    const auto& st = fleet.shard(static_cast<std::size_t>(s)).stats();
    EXPECT_EQ(st.forwarded, want[static_cast<std::size_t>(s)])
        << "shard " << s;
    EXPECT_EQ(st.executed, 0u) << "shard " << s;
    if (want[static_cast<std::size_t>(s)] > 0) ++used;
  }
  EXPECT_GT(used, 1) << "every location hashed to one shard";
}

// ---------------------------------------------------------------------------
// Backend registration
// ---------------------------------------------------------------------------

TEST(NativeBackend, RegisteredAndEmits) {
  register_default_backends();
  Backend* be = BackendRegistry::global().find("native");
  ASSERT_NE(be, nullptr);
  EXPECT_EQ(be->required_stage(), Stage::Layout);

  CompilerDriver driver;
  CompilationPtr comp = driver.start(apps::app("SFW").source);
  ASSERT_TRUE(driver.run_until(comp, Stage::Layout));
  const BackendArtifact art = be->emit(*comp);
  EXPECT_TRUE(art.ok) << comp->diags().render();
  EXPECT_GT(art.metrics.at("loc"), 0);
  EXPECT_GT(art.metrics.at("stages"), 0);
  // The generated module's one executor entry is run_batch (ABI v2).
  EXPECT_NE(art.text.find("lucid_native_run_batch"), std::string::npos);
  EXPECT_EQ(art.text.find("lucid_native_run_one"), std::string::npos);
}

}  // namespace
}  // namespace lucid::native
