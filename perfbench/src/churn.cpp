#include "churn.hpp"

#include "apps/apps.hpp"
#include "ctrl/interp_bridge.hpp"
#include "interp/testbed.hpp"
#include "support/hash.hpp"
#include "workload/workload.hpp"

namespace perfbench {

namespace {

/// Flows carrying traffic: 640 keys into SFW's 2 x 1024-slot cuckoo table,
/// the Figure 17 load factor of 0.3125.
constexpr int kFlows = 640;
/// Distinct keys the control plane installs remotely, cycled.
constexpr int kInstallKeys = 4096;
constexpr std::int64_t kHosts = 1 << 20;
/// Control batches submitted across each slice of arrivals.
constexpr int kBatchesPerSlice = 32;
/// Remote installs per batch (two register writes each) plus one read.
constexpr int kInstallsPerBatch = 16;
constexpr std::int64_t kSettleNs = 300 * lucid::sim::kUs;

const std::string kPktOut = "pkt_out";
const std::string kPktIn = "pkt_in";

struct Arrival {
  std::int64_t t = 0;
  bool outbound = true;
  std::int64_t src = 0;
  std::int64_t dst = 0;
};

struct Slice {
  std::vector<Arrival> arrivals;
  std::vector<std::int64_t> submit_at;  // one simulated time per batch
  std::vector<lucid::ctrl::UpdateBatch> batches;
};

/// Seeded churn inputs: paired pkt_out/pkt_in arrivals over the flow
/// working set (bursts of kBurstSize same-timestamp packets with a jittered
/// gap, or strictly increasing times), and batches of remote installs that
/// target the key1/ts1 or key2/ts2 cell SFW itself would use for the key.
class ChurnGen {
 public:
  explicit ChurnGen(const Options& opt)
      : shape_(opt.shape), rng_(key(opt) * 104729 + 3),
        flows_(lucid::workload::distinct_flows(kFlows, kHosts, key(opt))),
        installs_(lucid::workload::distinct_flows(kInstallKeys, kHosts,
                                                  key(opt) + 0x5eed)) {}

  Slice next() {
    Slice s;
    s.arrivals.reserve(kChurnSlicePackets);
    while (static_cast<int>(s.arrivals.size()) < kChurnSlicePackets) {
      const auto& f = flows_[rng_.below(flows_.size())];
      add(s, Arrival{t_, true, f.src, f.dst});
      add(s, Arrival{t_, false, f.dst, f.src});
    }
    const std::int64_t t0 = s.arrivals.front().t;
    const std::int64_t span = s.arrivals.back().t - t0;
    for (int j = 1; j <= kBatchesPerSlice; ++j) {
      const std::int64_t at = t0 + span * j / kBatchesPerSlice;
      s.submit_at.push_back(at);
      s.batches.push_back(make_batch(at));
    }
    return s;
  }

  [[nodiscard]] std::uint64_t fingerprint() const { return fp_.value(); }

 private:
  static std::uint64_t key(const Options& opt) {
    return opt.seed * 1000 + opt.stream;
  }

  void add(Slice& s, Arrival a) {
    fp_.add(a.t);
    fp_.add(a.outbound ? 1 : 0);
    fp_.add(a.src);
    fp_.add(a.dst);
    s.arrivals.push_back(a);
    ++k_;
    if (shape_ == Shape::kTrickle) {
      t_ += 700 + static_cast<std::int64_t>(rng_.below(600));
    } else if (k_ % kBurstSize == 0) {
      t_ += kBurstGapNs + static_cast<std::int64_t>(rng_.below(1000));
    }
  }

  lucid::ctrl::UpdateBatch make_batch(std::int64_t at) {
    using lucid::support::model_hash32;
    lucid::ctrl::UpdateBatch b;
    for (int i = 0; i < kInstallsPerBatch; ++i, ++cursor_) {
      const auto& f = installs_[cursor_ % installs_.size()];
      // flowkey(src, dst) and its bank index, as SFW's handlers hash them.
      const auto k =
          static_cast<std::int64_t>(model_hash32(77, {f.src, f.dst}) | 1u);
      const bool bank1 = cursor_ % 2 == 0;
      const std::int64_t idx = model_hash32(bank1 ? 1 : 2, {k}) & 1023;
      b.writes.push_back({bank1 ? "key1" : "key2", idx, k});
      b.writes.push_back({bank1 ? "ts1" : "ts2", idx, at & 0xFFFFFFFF});
      fp_.add(idx);
      fp_.add(k);
    }
    b.reads.push_back({"allowed", 0});
    return b;
  }

  Shape shape_;
  Rng rng_;
  std::vector<lucid::workload::Flow> flows_;
  std::vector<lucid::workload::Flow> installs_;
  std::int64_t t_ = 5000;
  std::uint64_t k_ = 0;
  std::uint64_t cursor_ = 0;
  Fingerprint fp_;
};

}  // namespace

struct ChurnSection::State {
  explicit State(const Options& opt) : gen(opt) {
    lucid::interp::TestbedConfig cfg;
    cfg.program_name = "SFW";
    tb = std::make_unique<lucid::interp::Testbed>(
        lucid::apps::app("SFW").source, cfg);
    if (!tb->ok()) return;
    rc = std::make_unique<lucid::ctrl::RuntimeControl>(tb->node(1));
    // The two aging loops, seeded once (as the differential schedules do).
    auto& rt = tb->node(1);
    tb->sim().at(997, [&rt] { rt.inject("scan1", {0}); });
    tb->sim().at(1997, [&rt] { rt.inject("scan2", {0}); });
  }

  std::unique_ptr<lucid::interp::Testbed> tb;
  std::unique_ptr<lucid::ctrl::RuntimeControl> rc;  // after tb: dies first
  ChurnGen gen;
};

ChurnSection::ChurnSection(const Options& opt)
    : opt_(opt), s_(std::make_unique<State>(opt)) {}

ChurnSection::~ChurnSection() = default;

std::string ChurnSection::error() const {
  return s_->rc != nullptr ? std::string() : s_->tb->diagnostics();
}

Round ChurnSection::run(int slices, ChurnRun* out) {
  Round round;
  if (s_->rc == nullptr) return round;
  State& st = *s_;
  auto& tb = *st.tb;
  auto& rt = tb.node(1);
  auto& plane = st.rc->plane();
  const auto& sched = tb.sched_at(1);
  const std::uint64_t passes0 = sched.stats().executed;
  *out = ChurnRun{};
  std::int64_t last_t = 0;

  auto run_to = [&](std::int64_t t) {
    const std::uint64_t before = sched.stats().executed;
    Probe p(opt_.workload, "sim.run_until", "SFW");
    tb.sim().run_until(t);
    round.wall_s +=
        p.stop(static_cast<std::int64_t>(sched.stats().executed - before));
  };

  for (int n = 0; n < slices; ++n) {
    Slice slice = st.gen.next();  // inputs built before timing
    for (std::size_t j = 0; j < slice.batches.size(); ++j) {
      const std::int64_t at = slice.submit_at[j];
      const auto writes = slice.batches[j].writes.size();
      // Runs inside this call: at an apply point or in the flush below.
      slice.batches[j].on_done = [out, &round, at,
                                  writes](const lucid::ctrl::BatchResult& r) {
        if (!r.applied) return;
        out->apply_ns.push_back(r.applied_ns - at);
        round.installs += writes;
      };
    }
    {
      Probe p(opt_.workload, "interp.schedule", "SFW");
      for (const Arrival& a : slice.arrivals) {
        const std::int64_t src = a.src;
        const std::int64_t dst = a.dst;
        if (a.outbound) {
          tb.sim().at(a.t, [&rt, src, dst] { rt.inject(kPktOut, {src, dst}); });
        } else {
          tb.sim().at(a.t, [&rt, src, dst] { rt.inject(kPktIn, {src, dst}); });
        }
      }
      round.wall_s += p.stop(static_cast<std::int64_t>(slice.arrivals.size()));
    }
    out->packets += slice.arrivals.size();
    for (std::size_t j = 0; j < slice.batches.size(); ++j) {
      run_to(slice.submit_at[j]);
      const auto ops = static_cast<std::int64_t>(slice.batches[j].ops());
      Probe p(opt_.workload, "ctrl.submit", "SFW");
      plane.submit(std::move(slice.batches[j]));
      round.wall_s += p.stop(ops);
    }
    last_t = slice.arrivals.back().t;
  }
  run_to(last_t + kSettleNs);
  round.work = sched.stats().executed - passes0;

  // Outside timing: drain whatever the last apply point left, then read.
  // Installs the flush applies are not counted in the timed round.
  const std::uint64_t timed_installs = round.installs;
  plane.flush();
  tb.settle(kSettleNs);
  round.installs = timed_installs;
  out->stats = plane.snapshot();
  out->passes = sched.stats().executed;
  const auto& ex = rt.stats().executions;
  out->pkt_in = ex.count(kPktIn) != 0 ? ex.at(kPktIn) : 0;
  out->allowed = st.rc->dataplane().read("allowed", 0);
  out->denied = st.rc->dataplane().read("denied", 0);
  out->fingerprint = st.gen.fingerprint();
  return round;
}

std::string check_churn(const ChurnRun& run) {
  if (run.packets == 0) return "SFW testbed failed to build";
  if (run.stats.batches_rejected != 0) {
    return std::to_string(run.stats.batches_rejected) + " batches rejected";
  }
  if (run.stats.batches_applied != run.stats.batches_submitted ||
      run.stats.queue_depth != 0) {
    return "control queue did not drain: " +
           std::to_string(run.stats.batches_applied) + " of " +
           std::to_string(run.stats.batches_submitted) + " applied";
  }
  if (run.allowed + run.denied != static_cast<std::int64_t>(run.pkt_in)) {
    return "allowed + denied = " + std::to_string(run.allowed + run.denied) +
           " but pkt_in executed " + std::to_string(run.pkt_in);
  }
  return {};
}

std::uint64_t churn_fingerprint(const Options& opt, int slices) {
  ChurnGen gen(opt);
  for (int s = 0; s < slices; ++s) gen.next();
  return gen.fingerprint();
}

}  // namespace perfbench
