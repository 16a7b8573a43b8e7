#include "native/engine.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "obs/metrics.hpp"
#include "support/bits.hpp"

namespace lucid::native {

using support::mask_width;

namespace {

/// Wire size of a packet carrying `nargs` args (sched's to_packet sizing).
int packet_bytes(std::int32_t nargs) {
  return std::max<int>(64, 34 + 4 * nargs);
}

/// Writes `args` width-masked by `ev` to `out` (which may alias `args`).
void mask_args(const EventSpec& ev, std::span<const std::int64_t> args,
               std::int64_t* out) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    out[i] = static_cast<std::int64_t>(static_cast<std::uint64_t>(args[i]) &
                                       ev.masks[i]);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Program
// ---------------------------------------------------------------------------

std::shared_ptr<const Program> Program::build(ConstCompilationPtr comp,
                                              std::string* error) {
  auto fail = [&](const std::string& why) -> std::shared_ptr<const Program> {
    if (error != nullptr) *error = why;
    return nullptr;
  };
  if (!comp || !comp->succeeded(Stage::Layout) || !comp->ok()) {
    return fail("native engine needs a compilation that passed Layout");
  }
  if (!comp->pipeline().feasible) {
    return fail("pipeline layout is infeasible; nothing to compile");
  }
  for (const auto& ev : comp->ir().events) {
    if (ev.params.size() > static_cast<std::size_t>(kMaxArgs)) {
      return fail("event " + ev.name + " has " +
                  std::to_string(ev.params.size()) +
                  " params; native ABI caps at " + std::to_string(kMaxArgs));
    }
  }

  auto prog = std::make_shared<Program>();
  prog->comp_ = std::move(comp);
  for (const auto& ev : prog->ir().events) {
    EventSpec spec;
    spec.id = ev.event_id;
    spec.arity = static_cast<std::int32_t>(ev.params.size());
    for (std::size_t i = 0; i < ev.params.size(); ++i) {
      spec.masks[i] =
          static_cast<std::uint64_t>(mask_width(-1, ev.params[i].second));
    }
    prog->event_names_.push_back(ev.name);
    prog->event_specs_.push_back(spec);
  }
  prog->emitted_ =
      emit_source(*prog->comp_, prog->comp_->options().program_name);
  prog->module_ = Module::load(prog->emitted_.text, error);
  if (prog->module_ == nullptr) return nullptr;
  return prog;
}

const EventSpec* Program::resolve(std::string_view name) const {
  for (std::size_t i = 0; i < event_names_.size(); ++i) {
    if (event_names_[i] == name) return &event_specs_[i];
  }
  return nullptr;
}

const EventSpec* Program::validate_event(
    std::string_view name, std::vector<std::int64_t>& args) const {
  // Program::build refuses events declared wider than kMaxArgs, so the
  // arity check also rejects an over-arity injection, never truncating it
  // into the fixed args[] slabs (RPacket, PacketIn).
  const EventSpec* ev = resolve(name);
  if (ev == nullptr || args.size() != static_cast<std::size_t>(ev->arity)) {
    return nullptr;
  }
  mask_args(*ev, args, args.data());
  return ev;
}

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

Replica::Replica(std::shared_ptr<const Program> prog, ReplicaConfig cfg)
    : prog_(std::move(prog)), cfg_(cfg) {
  const ir::ProgramIR& ir = prog_->ir();
  cells_.reserve(ir.arrays.size());
  for (const auto& arr : ir.arrays) {
    cells_.emplace_back(static_cast<std::size_t>(arr.size), 0);
  }
  array_ptrs_.reserve(cells_.size());
  for (auto& c : cells_) array_ptrs_.push_back(c.data());
  has_handler_by_id_.assign(ir.events.size(), 0);
  exec_count_by_id_.assign(ir.events.size(), 0);
  gen_count_by_id_.assign(ir.events.size(), 0);
  for (const auto& ev : ir.events) {
    if (ev.has_handler) {
      has_handler_by_id_[static_cast<std::size_t>(ev.event_id)] = 1;
    }
  }
  recirc_ = RPort{cfg_.switch_cfg.recirc_rate_gbps,
                  cfg_.switch_cfg.recirc_latency_ns, 0, 0, 0};
  front_ = RPort{cfg_.switch_cfg.front_rate_gbps, 0, 0, 0, 0};
  run_batch_fn_ = prog_->module().raw_run_batch();
  gen_stride_ = std::max<std::int32_t>(prog_->module().max_gens(), 1);
  if (cfg_.shard_id >= 0) {
    const obs::Labels labels{{"shard", std::to_string(cfg_.shard_id)}};
    auto& reg = obs::Registry::global();
    shard_packets_ = &reg.counter(
        "lucid_native_shard_packets_total", labels,
        "Packets executed per replica-fleet shard");
    shard_batch_size_ = &reg.histogram(
        "lucid_native_shard_batch_size", labels,
        "Same-timestamp packets drained per event-loop batch, by shard");
    shard_queue_depth_ = &reg.gauge(
        "lucid_native_shard_queue_depth", labels,
        "In-flight heap + pending injections at the last run boundary");
  }
  // EventScheduler's constructor starts the PFC stream synchronously at
  // t=0, before any injection closures are registered — mirror that order.
  if (cfg_.sched.mode == sched::DelayMode::PausableQueue) pfc_tick();
}

std::int32_t Replica::alloc_slot() {
  if (!free_.empty()) {
    const std::int32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  pool_.emplace_back();
  return static_cast<std::int32_t>(pool_.size() - 1);
}

void Replica::release_slot(std::int32_t idx) { free_.push_back(idx); }

void Replica::push_idx(sim::Time t, Kind kind, std::int32_t idx) {
  Entry e;
  e.t = std::max(t, now_);  // Simulator::at clamps to now
  e.seq = next_seq_++;
  e.kind = kind;
  e.pkt = idx;
  heap_.push(e);
}

void Replica::push(sim::Time t, Kind kind) { push_idx(t, kind, -1); }

void Replica::push(sim::Time t, Kind kind, const RPacket& pkt) {
  const std::int32_t idx = alloc_slot();
  pool_[static_cast<std::size_t>(idx)] = pkt;
  push_idx(t, kind, idx);
}

bool Replica::schedule_inject(sim::Time t, const EventSpec& ev,
                              std::span<const std::int64_t> args,
                              sim::Time delay_ns, std::int64_t location) {
  if (args.size() != static_cast<std::size_t>(ev.arity)) return false;
  const sim::Time at = std::max(t, now_);
  // Created at t: to_packet stamps creation when the closure fires.
  if (!pending_meta_.empty() && at < pending_meta_.back().t) {
    // Out-of-order registration: keep the sorted fast path intact and let
    // the heap order this one (seq still allocated here, at registration).
    RPacket p;
    p.event_id = ev.id;
    p.nargs = ev.arity;
    mask_args(ev, args, p.args);
    p.location = location;
    p.created = t;
    p.due = t + delay_ns;
    p.size_bytes = packet_bytes(ev.arity);
    push(at, Kind::Inject, p);
    return true;
  }
  PacketIn& in = pending_in_.emplace_back();
  in.event_id = ev.id;
  in.nargs = ev.arity;
  in.self_id = cfg_.switch_cfg.id;
  mask_args(ev, args, in.args);
  pending_meta_.push_back(
      PendingMeta{at, next_seq_++, location, t, t + delay_ns});
  return true;
}

bool Replica::schedule_inject(sim::Time t, const std::string& event,
                              std::vector<std::int64_t> args,
                              sim::Time delay_ns, std::int64_t location) {
  const EventSpec* ev = prog_->resolve(event);
  return ev != nullptr && schedule_inject(t, *ev, args, delay_ns, location);
}

Replica::RPacket Replica::pending_packet(std::size_t i) const {
  const PacketIn& in = pending_in_[i];
  const PendingMeta& m = pending_meta_[i];
  RPacket p;
  p.event_id = in.event_id;
  p.nargs = in.nargs;
  std::copy_n(in.args, in.nargs, p.args);
  p.location = m.location;
  p.created = m.created;
  p.due = m.due;
  p.size_bytes = packet_bytes(in.nargs);
  return p;
}

void Replica::pfc_tick() {
  // Mirror of Switch::pfc_tick: the (unpause, pause) pair costs recirc
  // bandwidth; three sim entries allocated in this order.
  RPacket frame;  // minimum-size PFC frame: 64B -> 84 wire bytes
  push(recirc_.send(now_, frame.wire_bytes()), Kind::PfcOpen);
  push(now_ + cfg_.sched.release_window_ns, Kind::PfcPauseSend);
  push(now_ + cfg_.sched.release_interval_ns, Kind::PfcTick);
}

void Replica::recirculate(const RPacket& p) {
  ++stats_.recirculations;
  push(recirc_.send(now_, p.wire_bytes()), Kind::RecircDeliver, p);
}

void Replica::route_out(const RPacket& p) {
  // Front-port serialization is accounted, but the delivery entry is not
  // pushed: in a single-node topology the network drops it (no side
  // effects), and skipping an allocation-sequence element preserves the
  // relative (t, seq) order of everything else.
  ++stats_.forwarded;
  (void)front_.send(now_, p.wire_bytes());
}

void Replica::dispatch_gen(const GenOut& g) {
  if (g.event_id >= 0 &&
      static_cast<std::size_t>(g.event_id) < gen_count_by_id_.size()) {
    ++gen_count_by_id_[static_cast<std::size_t>(g.event_id)];
  }
  RPacket p;
  p.event_id = g.event_id;
  p.nargs = g.nargs;
  for (std::int32_t i = 0; i < g.nargs; ++i) p.args[i] = g.args[i];
  p.size_bytes = packet_bytes(g.nargs);
  p.created = now_;
  p.due = now_ + g.delay_ns;

  const int self = cfg_.switch_cfg.id;
  const ir::ProgramIR& ir = prog_->ir();
  const std::vector<std::int64_t>* members =
      g.multicast != 0 && g.group >= 0
          ? &ir.groups[static_cast<std::size_t>(g.group)].members
          : nullptr;
  if (members != nullptr && !members->empty()) {
    // Multicast engine: one unicast clone per member, in member order.
    for (const std::int64_t member : *members) {
      RPacket clone = p;
      clone.location = member;
      if (member == self) {
        recirculate(clone);
      } else {
        route_out(clone);
      }
    }
    return;
  }
  if (g.location >= 0 && g.location != self) {
    p.location = g.location;
    route_out(p);
    return;
  }
  p.location = -1;
  recirculate(p);
}

void Replica::run_until(sim::Time t) {
  // Merge by (t, seq): the sorted pending injections, the sorted
  // pipeline-pass FIFO, and the in-flight heap. Seq numbers were allocated
  // in registration/fire order on all three sides, so the merged order is
  // exactly the order one big heap would produce — but the heap stays a
  // handful of entries deep and the two hot sources pop in O(1).
  for (;;) {
    enum class Src : std::uint8_t { kNone, kPending, kPass, kHeap };
    Src src = Src::kNone;
    sim::Time bt = 0;
    std::uint64_t bs = 0;
    if (pending_head_ < pending_meta_.size()) {
      src = Src::kPending;
      bt = pending_meta_[pending_head_].t;
      bs = pending_meta_[pending_head_].seq;
    }
    if (pass_head_ < pass_q_.size()) {
      const PassEntry& fe = pass_q_[pass_head_];
      if (src == Src::kNone || fe.t < bt || (fe.t == bt && fe.seq < bs)) {
        src = Src::kPass;
        bt = fe.t;
        bs = fe.seq;
      }
    }
    if (!heap_.empty()) {
      const Entry& h = heap_.top();
      if (src == Src::kNone || h.t < bt || (h.t == bt && h.seq < bs)) {
        src = Src::kHeap;
        bt = h.t;
        bs = h.seq;
      }
    }
    if (src == Src::kNone || bt > t) break;
    now_ = bt;
    if (src == Src::kPending) {
      move_pending_run();
      continue;
    }
    if (src == Src::kPass) {
      drain_passes();
      continue;
    }
    const Entry e = heap_.top();
    heap_.pop();
    switch (e.kind) {
      case Kind::Inject:
      case Kind::RecircDeliver:
        // deliver_to_ingress: one pipeline pass of latency, then dispatch.
        // The slot stays allocated until the drain consumes the pass.
        pass_push(now_ + cfg_.switch_cfg.pipeline_latency_ns, e.pkt);
        break;
      case Kind::PfcOpen:
        delay_open_ = true;
        // Drain FIFO through the recirculation port (set_delay_queue_open).
        while (delay_head_ < delay_queue_.size()) {
          recirculate(delay_queue_[delay_head_++]);
        }
        delay_queue_.clear();
        delay_head_ = 0;
        break;
      case Kind::PfcClose:
        delay_open_ = false;
        break;
      case Kind::PfcPauseSend: {
        RPacket frame;
        push(recirc_.send(now_, frame.wire_bytes()), Kind::PfcClose);
        break;
      }
      case Kind::PfcTick:
        pfc_tick();
        break;
    }
  }
  now_ = std::max(now_, t);
  compact_pending();
  // Batch-boundary metrics publish: the event loop above runs branch-free
  // with respect to observability; executions accumulate in plain counters
  // and the delta lands in the process-wide registry once per run_until.
  static obs::Counter& executed = obs::Registry::global().counter(
      "lucid_native_replica_executions_total",
      "Handler executions across native replica runs");
  executed.add(total_executions_ - published_executions_);
  published_executions_ = total_executions_;
  if (shard_packets_ != nullptr) {
    shard_packets_->add(stats_.executed - published_shard_executed_);
    published_shard_executed_ = stats_.executed;
    // In-flight passes, not FIFO entries: a run entry holds n of them.
    std::size_t passes = 0;
    for (std::size_t i = pass_head_; i < pass_q_.size(); ++i) {
      passes += static_cast<std::size_t>(pass_q_[i].n);
    }
    shard_queue_depth_->set(static_cast<std::int64_t>(
        heap_.size() + (pending_meta_.size() - pending_head_) + passes));
  }
}

void Replica::pass_push(sim::Time t, std::int32_t slot) {
  PassEntry e;
  e.t = std::max(t, now_);  // Simulator::at clamps to now
  e.seq = next_seq_++;
  e.idx = slot;
  e.from_pool = true;
  pass_q_.push_back(e);
}

void Replica::move_pending_run() {
  // deliver_to_ingress: one pipeline pass of latency, then dispatch. Every
  // pending injection due at now_ whose seq precedes the other same-t
  // sources becomes one run entry instead of re-running the three-way
  // merge per packet; the run takes the n consecutive seqs n single pushes
  // would have. The stop key computed once holds for the whole run: the
  // heap is untouched here, and the FIFO only gains keys behind its front.
  std::uint64_t stop_seq = std::numeric_limits<std::uint64_t>::max();
  if (!heap_.empty() && heap_.top().t == now_) stop_seq = heap_.top().seq;
  if (pass_head_ < pass_q_.size()) {
    const PassEntry& fe = pass_q_[pass_head_];
    if (fe.t == now_ && fe.seq < stop_seq) stop_seq = fe.seq;
  }
  std::size_t end = pending_head_;
  while (end < pending_meta_.size() && pending_meta_[end].t == now_ &&
         pending_meta_[end].seq < stop_seq) {
    ++end;
  }
  PassEntry e;
  e.t = std::max(now_ + cfg_.switch_cfg.pipeline_latency_ns, now_);
  e.seq = next_seq_;
  e.idx = static_cast<std::int32_t>(pending_head_);
  e.n = static_cast<std::int32_t>(end - pending_head_);
  e.from_pool = false;
  next_seq_ += static_cast<std::uint64_t>(e.n);
  pending_head_ = end;
  pass_q_.push_back(e);
}

void Replica::drain_passes() {
  // Multi-packet drain: consume the pipeline passes finishing at exactly
  // now_, classifying each in arrival order. Each maximal span of
  // consecutive *executing* injections of a pending run goes to run_batch
  // in place; executing recirculated (pool) passes gather in batch_in_.
  // Correct because (a) a heap entry with a seq inside the drained keys
  // (PFC open/close flips delay_open_, deliveries allocate seqs) would
  // have interleaved in merged order, so it stops the drain, (b) same for
  // a pending injection, and (c) everything this drain generates lands
  // strictly after now_ (recirc serialization is >= 1 ns), so the drained
  // set can't be invalidated by its own side effects. Every other
  // disposition (route-out, delay, recirculate) has side effects on the
  // ports / the seq sequence, so the executions before it are run first —
  // which keeps all port sends and seq allocations in exactly the order a
  // one-heap-entry-per-pass loop (the simulator's) produces.
  const std::int64_t self = cfg_.switch_cfg.id;
  const auto diverts = [this, self](std::int64_t location, sim::Time due) {
    return (location >= 0 && location != self) || now_ < due;
  };
  std::uint64_t drained = 0;
  // The stop key against the other two sources, computed once: pendings
  // don't change mid-drain, and the heap pushes this drain performs
  // (recirculations, generates) always allocate strictly larger (t, seq)
  // keys than every pass already queued, so neither source can slip in
  // front of a remaining pass after the drain starts.
  std::uint64_t stop_seq = std::numeric_limits<std::uint64_t>::max();
  if (!heap_.empty() && heap_.top().t == now_) stop_seq = heap_.top().seq;
  if (pending_head_ < pending_meta_.size()) {
    const PendingMeta& pm = pending_meta_[pending_head_];
    if (pm.t == now_ && pm.seq < stop_seq) stop_seq = pm.seq;
  }
  while (pass_head_ < pass_q_.size()) {
    const PassEntry fe = pass_q_[pass_head_];
    if (fe.t != now_ || fe.seq >= stop_seq) break;
    ++pass_head_;
    if (fe.from_pool) {
      ++drained;
      // Classification reads the packet in its pool slot; the rare
      // non-execute paths copy it out first, because their flush can grow
      // pool_ under the reference and recirculate must not alias a slot.
      const RPacket& p = pool_[static_cast<std::size_t>(fe.idx)];
      if (diverts(p.location, p.due)) {
        const RPacket pkt = p;
        release_slot(fe.idx);
        divert(pkt);
        continue;
      }
      ++stats_.executed;
      if (p.due > p.created) ++stats_.delay_samples;
      const auto id = static_cast<std::size_t>(p.event_id);
      if (p.event_id < 0 || id >= has_handler_by_id_.size() ||
          has_handler_by_id_[id] == 0) {
        // No handler: counted, no state effects, nothing to flush.
        release_slot(fe.idx);
        continue;
      }
      ++total_executions_;
      ++exec_count_by_id_[id];
      PacketIn& in = batch_in_.emplace_back();
      in.event_id = p.event_id;
      in.nargs = p.nargs;
      in.now_ns = now_;
      in.self_id = self;
      std::copy_n(p.args, p.nargs, in.args);
      release_slot(fe.idx);
      continue;
    }
    // A pending run, read in place and drained whole: its seqs were
    // allocated together, so no other source's key falls inside it.
    assert(stop_seq >= fe.seq + static_cast<std::uint64_t>(fe.n));
    drained += static_cast<std::uint64_t>(fe.n);
    std::size_t i = static_cast<std::size_t>(fe.idx);
    const std::size_t end = i + static_cast<std::size_t>(fe.n);
    while (i < end) {
      const std::size_t span = i;
      for (; i < end; ++i) {
        const PendingMeta& m = pending_meta_[i];
        PacketIn& in = pending_in_[i];
        const auto id = static_cast<std::size_t>(in.event_id);
        if (diverts(m.location, m.due) || has_handler_by_id_[id] == 0) break;
        ++exec_count_by_id_[id];
        if (m.due > m.created) ++stats_.delay_samples;
        in.now_ns = now_;
      }
      if (i > span) {
        const std::size_t n = i - span;
        stats_.executed += n;
        total_executions_ += n;
        flush_exec_batch();
        exec(&pending_in_[span], static_cast<std::int32_t>(n));
      }
      if (i == end) break;
      // The injection that ended the span.
      const PendingMeta& m = pending_meta_[i];
      if (diverts(m.location, m.due)) {
        divert(pending_packet(i));
      } else {
        // No handler: counted, no state effects, nothing to flush.
        ++stats_.executed;
        if (m.due > m.created) ++stats_.delay_samples;
      }
      ++i;
    }
  }
  flush_exec_batch();
  // Fully drained is the common case (bursty traffic with gaps wider than
  // the pipeline latency) — reset the FIFO in O(1) so it never grows past
  // the in-flight high-water mark within one run_until.
  if (pass_head_ == pass_q_.size()) {
    pass_q_.clear();
    pass_head_ = 0;
  }
  if (shard_batch_size_ != nullptr) {
    shard_batch_size_->observe(static_cast<double>(drained));
  }
}

void Replica::divert(const RPacket& p) {
  flush_exec_batch();
  if (p.location >= 0 && p.location != cfg_.switch_cfg.id) {
    route_out(p);
  } else if (cfg_.sched.mode == sched::DelayMode::BaselineRecirculation ||
             delay_open_) {
    recirculate(p);
  } else {
    ++stats_.delayed_enqueues;
    delay_queue_.push_back(p);
  }
}

void Replica::exec(const PacketIn* in, std::int32_t n) {
  const std::size_t out_need =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(gen_stride_);
  if (batch_out_.size() < out_need) batch_out_.resize(out_need);
  if (batch_counts_.size() < static_cast<std::size_t>(n)) {
    batch_counts_.resize(static_cast<std::size_t>(n));
  }
  // The raw entry point: packets in order, each straight through the
  // pipeline on one reused Ctx (emit.cpp), so state is byte-identical to
  // n one-packet calls — the contract
  // tests/test_native.cpp::OneBatchMatchesOnePacketBatches pins.
  run_batch_fn_(array_ptrs_.data(), in, n, batch_out_.data(),
                batch_counts_.data());
  // Generated events dispatch per packet, in packet order — the same
  // interleaving the sequential loop produces (packet i's generates all
  // precede packet i+1's).
  for (std::int32_t i = 0; i < n; ++i) {
    const std::int32_t gens = batch_counts_[static_cast<std::size_t>(i)];
    const GenOut* out =
        batch_out_.data() + static_cast<std::size_t>(i) *
                                static_cast<std::size_t>(gen_stride_);
    for (std::int32_t g = 0; g < gens; ++g) dispatch_gen(out[g]);
  }
}

void Replica::flush_exec_batch() {
  if (batch_in_.empty()) return;
  exec(batch_in_.data(), static_cast<std::int32_t>(batch_in_.size()));
  batch_in_.clear();
}

void Replica::compact_pending() {
  // Erase the consumed prefix once it dominates the records; amortized O(1)
  // per injection, and the capacity shrinks back once a soak run's transient
  // backlog has drained, so footprint tracks the *live* pending set. Live
  // run entries still index into the consumed prefix, so the cut `lo` stops
  // at the first injection of the oldest of them and their
  // indices are rebased by it — a streaming caller's run boundary always
  // has the last burst in flight, so waiting for an empty FIFO would never
  // compact. Runs are pushed in pending-index order, so the first one at or
  // after pass_head_ is the oldest. Cutting only when lo is at least half
  // the records keeps the entries moved (and rebased) below those erased.
  if (pending_head_ >= kPendingCompactThreshold) {
    std::size_t lo = pending_head_;
    for (std::size_t i = pass_head_; i < pass_q_.size(); ++i) {
      if (!pass_q_[i].from_pool) {
        lo = static_cast<std::size_t>(pass_q_[i].idx);
        break;
      }
    }
    if (lo * 2 >= pending_meta_.size()) {
      const auto cut = static_cast<std::ptrdiff_t>(lo);
      pending_in_.erase(pending_in_.begin(), pending_in_.begin() + cut);
      pending_meta_.erase(pending_meta_.begin(), pending_meta_.begin() + cut);
      pending_head_ -= lo;
      for (std::size_t i = pass_head_; i < pass_q_.size(); ++i) {
        if (!pass_q_[i].from_pool) {
          pass_q_[i].idx -= static_cast<std::int32_t>(lo);
        }
      }
      if (pending_meta_.capacity() > kPendingCompactThreshold * 4 &&
          pending_meta_.size() * 4 < pending_meta_.capacity()) {
        pending_in_.shrink_to_fit();
        pending_meta_.shrink_to_fit();
      }
    }
  }
  // Same discipline for the pipeline-pass FIFO.
  if (pass_head_ >= kPendingCompactThreshold &&
      pass_head_ * 2 >= pass_q_.size()) {
    pass_q_.erase(pass_q_.begin(),
                  pass_q_.begin() + static_cast<std::ptrdiff_t>(pass_head_));
    pass_head_ = 0;
    if (pass_q_.capacity() > kPendingCompactThreshold * 4 &&
        pass_q_.size() * 4 < pass_q_.capacity()) {
      pass_q_.shrink_to_fit();
    }
  }
}

bool Replica::control_write(std::size_t decl_index, std::int64_t index,
                            std::int64_t value) {
  if (decl_index >= cells_.size()) return false;
  auto& cells = cells_[decl_index];
  const auto n = static_cast<std::int64_t>(cells.size());
  std::int64_t i = index % n;
  if (i < 0) i += n;
  const ir::ArrayInfo& arr = prog_->ir().arrays[decl_index];
  cells[static_cast<std::size_t>(i)] = mask_width(value, arr.width);
  return true;
}

std::int64_t Replica::control_read(std::size_t decl_index,
                                   std::int64_t index) const {
  if (decl_index >= cells_.size()) return 0;
  const auto& cells = cells_[decl_index];
  const auto n = static_cast<std::int64_t>(cells.size());
  std::int64_t i = index % n;
  if (i < 0) i += n;
  return cells[static_cast<std::size_t>(i)];
}

const RunStats& Replica::run_stats() const {
  run_stats_.assign(prog_->ir().events, exec_count_by_id_, gen_count_by_id_,
                    total_executions_);
  return run_stats_;
}

}  // namespace lucid::native
