// The native execution engine: runs a compiled-to-C++ pipeline module
// (src/native/emit.cpp + src/native/jit.cpp) instead of walking the AST.
//
// native::Replica hosts the loaded Program: a single-node mirror of the
// switch + scheduler + PFC timing model with POD packets and no
// std::function in the hot loop. Injections are built once, straight into
// ABI PacketIn records. Its one event loop merges those pending injections,
// a pipeline-pass FIFO and a small (time, seq) heap, and drains each run of
// same-timestamp passes through run_batch calls — executing injections in
// place, without a copy. It
// reproduces the simulator's event interleaving exactly (see the seq-order
// contract at Replica below), so after a run its register state is
// byte-identical to an interp::Runtime run of the same schedule — the
// differential suite (tests/test_native.cpp) and bench_native both pin
// this. native::ReplicaFleet (fleet.hpp) shards injections over several
// replicas; ctrl::FleetDataPlane (src/ctrl/native_bridge.hpp) is the
// control-plane surface over a fleet.
//
// Program::build emits one module per compilation (emit.hpp) and loads it
// through the JIT's module cache (jit.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/driver.hpp"
#include "native/abi.hpp"
#include "native/emit.hpp"
#include "native/jit.hpp"
#include "sched/scheduler.hpp"

namespace lucid::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace lucid::obs

namespace lucid::native {

/// The same type as interp::RunStats, so differential tests compare them
/// directly.
using RunStats = ir::RunStats;

/// One event as injection sees it, resolved once at Program::build: the
/// event id, its arity, and one width mask per param (all ones for widths
/// mask_width passes through), so building a packet is an AND per arg.
struct EventSpec {
  std::int32_t id = -1;
  std::int32_t arity = 0;
  std::uint64_t masks[kMaxArgs] = {};
};

/// A program compiled for native execution: the emitted module source plus
/// the loaded shared object. Immutable after build; share it across every
/// Replica of the same program (the JIT caches by source anyway).
class Program {
 public:
  /// Compiles `comp` (Layout stage must have succeeded) to native code.
  /// Returns nullptr and fills `error` when the program is outside the
  /// engine's envelope (infeasible layout, >kMaxArgs event params) or the
  /// module fails to compile/load.
  static std::shared_ptr<const Program> build(ConstCompilationPtr comp,
                                              std::string* error);

  [[nodiscard]] const Compilation& compilation() const { return *comp_; }
  [[nodiscard]] const ir::ProgramIR& ir() const { return comp_->ir(); }
  [[nodiscard]] const Module& module() const { return *module_; }
  [[nodiscard]] const EmittedModule& emitted() const { return emitted_; }

  [[nodiscard]] const ir::EventInfo* find_event(
      const std::string& name) const {
    return ir().find_event(name);
  }
  /// The event's precomputed spec, or nullptr for an unknown name.
  [[nodiscard]] const EventSpec* resolve(std::string_view name) const;
  /// resolve plus the arity check, masking `args` in place to the declared
  /// param widths (EventCtor semantics). nullptr on an unknown event or an
  /// arity mismatch (which covers more than kMaxArgs args); `args` is then
  /// left unmasked.
  [[nodiscard]] const EventSpec* validate_event(
      std::string_view name, std::vector<std::int64_t>& args) const;

 private:
  ConstCompilationPtr comp_;
  std::shared_ptr<Module> module_;
  EmittedModule emitted_;
  /// Parallel to ir().events: the names resolve scans (views into the IR,
  /// which comp_ keeps alive) and the specs it returns.
  std::vector<std::string_view> event_names_;
  std::vector<EventSpec> event_specs_;
};

// ---------------------------------------------------------------------------
// The single-node replica
// ---------------------------------------------------------------------------

struct ReplicaConfig {
  pisa::SwitchConfig switch_cfg;   // id defaults to 0; set to the node id
  sched::SchedulerConfig sched;
  /// When >= 0, the replica registers per-shard labeled obs instruments
  /// (shard="<id>" on packets/batch-size/queue-depth) — set by ReplicaFleet.
  int shard_id = -1;
};

/// Single-node mirror of {Switch, EventScheduler, PFC stream} timing with
/// the native module as executor. Injections must be scheduled up front (in
/// the same order the reference run registers them), then run_until drives
/// the event loop.
///
/// Seq-order contract (why state matches the real simulator byte-for-byte):
/// the simulator breaks timestamp ties by insertion order. The replica
/// allocates one (t, seq) key — pending, pass-FIFO or heap — per
/// sim_.at/after call the real stack would make, in the same order —
/// including the two-hop recirculation path (port
/// delivery, then pipeline pass) and the PFC frame closures. A pass-FIFO
/// run of n same-timestamp injections is one entry holding n consecutive
/// seqs, exactly the seqs n single pushes would have allocated. The only
/// keys it skips are front-port deliveries, which in a single-node
/// topology are dropped by the network and have no side effects; removing
/// elements from the allocation sequence preserves the relative order of
/// the rest.
class Replica {
 public:
  struct Stats {
    std::uint64_t executed = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t delayed_enqueues = 0;
    std::uint64_t recirculations = 0;
    std::uint64_t delay_samples = 0;
  };

  explicit Replica(std::shared_ptr<const Program> prog,
                   ReplicaConfig cfg = {});

  /// Registers an external arrival at absolute time `t`: the packet is
  /// built once, straight into its ABI record, with `args` width-masked by
  /// `ev` (which must come from this replica's Program::resolve). False on
  /// an arity mismatch.
  bool schedule_inject(sim::Time t, const EventSpec& ev,
                       std::span<const std::int64_t> args,
                       sim::Time delay_ns = 0, std::int64_t location = -1);
  /// By name: Program::resolve, then the overload above. False on an
  /// unknown event or bad arity.
  bool schedule_inject(sim::Time t, const std::string& event,
                       std::vector<std::int64_t> args, sim::Time delay_ns = 0,
                       std::int64_t location = -1);

  /// Runs every entry due at or before `t`.
  void run_until(sim::Time t);

  [[nodiscard]] sim::Time now() const { return now_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const RunStats& run_stats() const;

  /// Post-run register state, IR declaration order (for byte comparison
  /// against the reference engine's pisa::RegisterArray cells).
  [[nodiscard]] const std::vector<std::int64_t>& array_cells(
      std::size_t decl_index) const {
    return cells_[decl_index];
  }
  [[nodiscard]] std::size_t array_count() const { return cells_.size(); }

  /// Control-plane cell access (FleetDataPlane): width-masked writes and
  /// wrapped indexes, exactly like pisa::RegisterArray::set/get. Only legal
  /// while the replica is quiescent (no run_until in flight on it).
  bool control_write(std::size_t decl_index, std::int64_t index,
                     std::int64_t value);
  [[nodiscard]] std::int64_t control_read(std::size_t decl_index,
                                          std::int64_t index) const;

  /// Consumed-prefix compaction threshold for the pending-injection
  /// records (pending_in_ and its parallel pending_meta_). Once
  /// pending_head_ passes it, run_until erases the prefix below both
  /// pending_head_ and the first injection of the oldest in-flight
  /// pending run, provided that prefix is at least half the
  /// records — passes in flight or not, so a caller that streams slices and
  /// runs to each slice's last arrival doesn't grow memory without bound.
  /// Invariant at every run boundary: the record count stays below one
  /// threshold + twice the live backlog (unconsumed injections plus
  /// pending-sourced passes in flight), which also keeps PassEntry::idx
  /// inside int32 on an endless stream.
  static constexpr std::size_t kPendingCompactThreshold = 4096;
  /// Capacity of the pending-injection records plus the pipeline-pass FIFO
  /// (regression surface for the compaction: bounded across schedule/run
  /// cycles, drained or streaming, tracking the live backlog rather than
  /// total injections).
  [[nodiscard]] std::size_t pending_footprint() const {
    return std::max(pending_in_.capacity(), pending_meta_.capacity()) +
           pass_q_.capacity();
  }

 private:
  struct RPacket {
    std::int32_t event_id = -1;
    std::int32_t nargs = 0;
    std::int64_t args[kMaxArgs] = {};
    std::int64_t location = -1;
    sim::Time created = 0;
    sim::Time due = 0;
    int size_bytes = 64;
    [[nodiscard]] int wire_bytes() const { return size_bytes + 20; }
  };

  enum class Kind : std::uint8_t {
    Inject,         // front-panel arrival -> pipeline pass
    RecircDeliver,  // recirc port delivery -> pipeline pass
    PfcOpen,        // unpause frame delivered -> open + drain
    PfcClose,       // pause frame delivered -> close
    PfcPauseSend,   // end of release window -> send the pause frame
    PfcTick,        // next PFC pair
  };

  /// Heap entries are kept small (24 bytes): packets live in a pooled slab
  /// (`pool_` + free list) and entries carry an index, so the sift moves in
  /// the hot loop shuffle pointers-worth of data instead of whole packets.
  struct Entry {
    sim::Time t = 0;
    std::uint64_t seq = 0;
    Kind kind = Kind::Inject;
    std::int32_t pkt = -1;  // pool_ index; -1 for packet-less entries
  };

  /// What a pre-registered injection carries besides its ABI record
  /// (pending_in_[i] pairs with pending_meta_[i]): (t, seq) assigned at
  /// schedule_inject time — exactly when the reference run registers its
  /// closure — and the scheduling fields the drain classifies on. The
  /// records sit in sorted vectors and merge into the event flow lazily,
  /// so the heap only ever holds the handful of in-flight entries.
  struct PendingMeta {
    sim::Time t = 0;
    std::uint64_t seq = 0;
    std::int64_t location = -1;
    sim::Time created = 0;
    sim::Time due = 0;
  };
  /// A completed-pipeline-pass record: one recirculated packet, or a run
  /// of n injections that arrived at the same timestamp. Every one is
  /// created at now_ + pipeline_latency with now_ nondecreasing and seqs
  /// allocated in creation order — a run takes n consecutive seqs starting
  /// at `seq` — so the records are (t, seq)-sorted by construction: a FIFO
  /// with O(1) pops instead of two heap sifts per packet, and the
  /// same-timestamp passes are what one drain feeds to run_batch. Nothing
  /// else allocates a seq between a run's first and last, so no other
  /// source's key falls inside a run and a drain takes runs whole. The
  /// record holds an *index* into the packets' existing storage (the
  /// consumed pending prefix, or a pool_ slot kept allocated until the
  /// drain) rather than a copy. Both outlive the entry: compact_pending
  /// erases only the pending prefix below the oldest live run and rebases
  /// the live indices by the erased count, and pool_ slots are addressed
  /// by index so slab growth can't dangle them.
  struct PassEntry {
    sim::Time t = 0;
    std::uint64_t seq = 0;   // seq of the first pass
    std::int32_t idx = -1;   // pool_ slot, or pending index of the run start
    std::int32_t n = 1;      // passes in the entry (1 for a pool slot)
    bool from_pool = false;  // false: pending_in_[idx, idx + n)
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  /// Mirror of pisa::Port::send: FIFO serialization + fixed latency.
  struct RPort {
    double bits_per_ns = 100.0;
    sim::Time latency = 0;
    sim::Time next_free = 0;
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    sim::Time send(sim::Time now, int wire_bytes) {
      const sim::Time start = std::max(now, next_free);
      const auto bits = static_cast<double>(wire_bytes) * 8.0;
      const auto ser = static_cast<sim::Time>(bits / bits_per_ns);
      next_free = start + std::max<sim::Time>(ser, 1);
      packets += 1;
      bytes += static_cast<std::uint64_t>(wire_bytes);
      return next_free + latency;
    }
  };

  std::int32_t alloc_slot();
  void release_slot(std::int32_t idx);
  void push_idx(sim::Time t, Kind kind, std::int32_t idx);
  void push(sim::Time t, Kind kind);  // packet-less entry
  void push(sim::Time t, Kind kind, const RPacket& pkt);
  void pfc_tick();
  /// Records a completed pipeline pass of a pool_ slot (FIFO, not heap).
  void pass_push(sim::Time t, std::int32_t slot);
  /// Moves the pending injections due at now_ that precede every other
  /// same-timestamp source to the pass FIFO as one run entry.
  void move_pending_run();
  void drain_passes();       // fused drain + classify; see run_until
  /// Runs `n` packets through run_batch and dispatches their generates.
  void exec(const PacketIn* in, std::int32_t n);
  void flush_exec_batch();   // exec batch_in_, then clear it
  /// Route-out, delay or recirculation of one pass that does not execute
  /// now: all side effects on ports or the seq sequence, so the gathered
  /// executions run first.
  void divert(const RPacket& p);
  void compact_pending();
  // NOTE: `p` must not alias a pool_ slot — alloc_slot may grow the slab.
  void recirculate(const RPacket& p);
  void route_out(const RPacket& p);
  void dispatch_gen(const GenOut& g);
  /// The pending injection `i` as a free-standing packet, for the paths
  /// that keep it past the drain.
  [[nodiscard]] RPacket pending_packet(std::size_t i) const;

  std::shared_ptr<const Program> prog_;
  ReplicaConfig cfg_;
  sim::Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<RPacket> pool_;         // slab backing Entry::pkt
  std::vector<std::int32_t> free_;    // recycled pool_ slots
  // Pending injections, sorted by (t, seq): ABI records (args masked,
  // self_id set; now_ns is stamped at drain) handed to run_batch in place,
  // and their parallel scheduling fields.
  std::vector<PacketIn> pending_in_;
  std::vector<PendingMeta> pending_meta_;
  std::size_t pending_head_ = 0;
  std::vector<PassEntry> pass_q_;  // sorted by construction
  std::size_t pass_head_ = 0;

  std::vector<std::vector<std::int64_t>> cells_;  // IR declaration order
  std::vector<std::int64_t*> array_ptrs_;
  std::vector<char> has_handler_by_id_;

  // Drain scratch: the executing pool-sourced (recirculated) passes of a
  // drain as ABI PacketIn records, and the module's per-packet outputs.
  // Reused across drains; no per-drain allocation once warm. run_batch_fn_
  // is the module's raw entry point, resolved once.
  std::vector<PacketIn> batch_in_;
  std::vector<GenOut> batch_out_;
  std::vector<std::int32_t> batch_counts_;
  RunBatchFn run_batch_fn_ = nullptr;
  std::int32_t gen_stride_ = 1;  // GenOut records per packet in batch_out_

  RPort recirc_;
  RPort front_;
  std::vector<RPacket> delay_queue_;  // FIFO (drained front to back)
  std::size_t delay_head_ = 0;
  bool delay_open_ = false;

  Stats stats_;
  std::vector<std::uint64_t> exec_count_by_id_;
  std::vector<std::uint64_t> gen_count_by_id_;
  std::uint64_t total_executions_ = 0;
  /// Executions already flushed to the obs registry (run_until publishes
  /// the delta once per call, keeping the event loop free of atomics).
  std::uint64_t published_executions_ = 0;
  mutable RunStats run_stats_;

  /// Per-shard labeled instruments (shard_id >= 0 only; null otherwise, so
  /// the single-replica hot path pays one predictable branch per drain).
  obs::Counter* shard_packets_ = nullptr;
  obs::Histogram* shard_batch_size_ = nullptr;
  obs::Gauge* shard_queue_depth_ = nullptr;
  std::uint64_t published_shard_executed_ = 0;
};

}  // namespace lucid::native
