// SRO — generated by the Lucid compiler (native backend)
// Self-contained: compiled by the in-process JIT (src/native/jit.cpp) and dlopen'd.
// Semantics mirror interp::Runtime exactly; see src/native/emit.cpp for the contract.
// No #include: the compiler's predefined type macros stand in for
// <cstdint>, and the module links without libc (-nostdlib).
using i32 = __INT32_TYPE__;
using u32 = __UINT32_TYPE__;
using i64 = __INT64_TYPE__;
using u64 = __UINT64_TYPE__;

namespace {

// ABI structs — textual mirror of src/native/abi.hpp (v2).
constexpr i32 kMaxArgs = 8;
struct PacketIn { i32 event_id; i32 nargs; i64 now_ns; i64 self_id; i64 args[kMaxArgs]; };
struct GenOut { i32 event_id; i32 multicast; i32 group; i32 nargs; i64 delay_ns; i64 location; i64 args[kMaxArgs]; };
static_assert(sizeof(i32) == 4 && sizeof(u32) == 4, "ABI drift");
static_assert(sizeof(i64) == 8 && sizeof(u64) == 8, "ABI drift");
static_assert(sizeof(PacketIn) == 88, "ABI drift");
static_assert(sizeof(GenOut) == 96, "ABI drift");

// support::mask_width, inlined.
inline i64 lucid_mask(i64 v, int w) {
  if (w >= 64 || w <= 0) return v;
  return (i64)((u64)v & ((u64{1} << w) - 1));
}

// support::fnv1a_word, inlined (the shared modeled hash; the
// eBPF backend's CRC32 is a deliberate divergence).
inline u32 lucid_fnv1a_word(u32 h, i64 word) {
  u64 w = (u64)word;
  for (int i = 0; i < 8; ++i) {
    h ^= (u32)(w & 0xff);
    h *= 16777619u;
    w >>= 8;
  }
  return h;
}

// Handler locals + event params; zero-init per packet matches
// interpreter Frame defaults. All fields are i64 (Value).
struct Ctx {
  i32 ev_id;
  i64 __self;
  i64 __t0;
  i64 __t1;
  i64 __ts;
  i64 idx;
  i64 seq;
  i64 src;
  i64 val;
  i64 g0_fired;
  i64 g0_delay;
  i64 g0_loc;
  i64 g0_a0;
  i64 g0_a1;
  i64 g0_a2;
  i64 g1_fired;
  i64 g1_delay;
  i64 g1_loc;
  i64 g1_a0;
  i64 g1_a1;
  i64 g1_a2;
  i64 g1_a3;
};

// Dispatcher: zero the ctx and copy event params in, masked to
// their declared widths (Runtime::execute).
inline void lucid_load(Ctx& m, const PacketIn& in) {
  m = Ctx{};
  m.ev_id = in.event_id;
  m.__self = in.self_id;
  m.__ts = lucid_mask(in.now_ns, 32);
  switch (in.event_id) {
    case 0:  // write
      m.idx = lucid_mask(in.args[0], 32);
      m.val = lucid_mask(in.args[1], 32);
      break;
    case 1:  // sync
      m.src = lucid_mask(in.args[0], 32);
      m.idx = lucid_mask(in.args[1], 32);
      m.val = lucid_mask(in.args[2], 32);
      m.seq = lucid_mask(in.args[3], 32);
      break;
    case 2:  // ack
      m.src = lucid_mask(in.args[0], 32);
      m.idx = lucid_mask(in.args[1], 32);
      m.seq = lucid_mask(in.args[2], 32);
      break;
    case 3:  // read
      m.idx = lucid_mask(in.args[0], 32);
      break;
    default: break;
  }
}

inline void lucid_stage_0(Ctx& m, i64* const* R) {
  if (m.ev_id == 0) {  // write: op
    m.__t0 = lucid_mask(((m.idx) & (i64{255})), 32);
  }
  if (m.ev_id == 1) {  // sync: generate
    m.g0_fired = 1;
    m.g0_delay = i64{0};
    m.g0_loc = m.src;
    m.g0_a0 = m.__self;
    m.g0_a1 = m.idx;
    m.g0_a2 = m.seq;
  }
  if (m.ev_id == 2) {  // ack: mem
    {
      i64 ci = (i64{0}) % 1;
      if (ci < 0) ci += 1;
      i64* cellp = R[2] + ci;  // acks
      const i64 cell = *cellp;  // single read
      *cellp = lucid_mask((i64)((u64)(cell) + (u64)(i64{1})), 32);
    }
  }
  if (m.ev_id == 3) {  // read: op
    m.__t0 = lucid_mask(((m.idx) & (i64{255})), 32);
  }
  if (m.ev_id == 3) {  // read: mem
    {
      i64 ci = (i64{0}) % 1;
      if (ci < 0) ci += 1;
      i64* cellp = R[3] + ci;  // reads_served
      const i64 cell = *cellp;  // single read
      *cellp = lucid_mask((i64)((u64)(cell) + (u64)(i64{1})), 32);
    }
  }
}

inline void lucid_stage_1(Ctx& m, i64* const* R) {
  if (m.ev_id == 1) {  // sync: mem
    {
      i64 ci = (m.idx) % 256;
      if (ci < 0) ci += 256;
      i64* cellp = R[0] + ci;  // seqs
      const i64 cell = *cellp;  // single read
      m.__t0 = lucid_mask(cell, 32);
      if (cell < m.seq)
        *cellp = lucid_mask(m.seq, 32);
      else
        *cellp = lucid_mask(cell, 32);
    }
  }
  if (m.ev_id == 0) {  // write: mem
    {
      i64 ci = (m.__t0) % 256;
      if (ci < 0) ci += 256;
      i64* cellp = R[0] + ci;  // seqs
      const i64 cell = *cellp;  // single read
      m.__t1 = lucid_mask((i64)((u64)(cell) + (u64)(i64{1})), 32);
      *cellp = lucid_mask((i64)((u64)(cell) + (u64)(i64{1})), 32);
    }
  }
}

inline void lucid_stage_2(Ctx& m, i64* const* R) {
  if (m.ev_id == 1) {  // sync: op
    m.__t1 = ((m.seq) > (m.__t0) ? 1 : 0);
  }
  if (m.ev_id == 0) {  // write: generate
    m.g1_fired = 1;
    m.g1_delay = i64{0};
    m.g1_loc = -1;
    m.g1_a0 = m.__self;
    m.g1_a1 = m.__t0;
    m.g1_a2 = m.val;
    m.g1_a3 = m.__t1;
  }
}

inline void lucid_stage_3(Ctx& m, i64* const* R) {
  if (m.ev_id == 0) {  // write: mem
    {
      i64 ci = (m.__t0) % 256;
      if (ci < 0) ci += 256;
      i64* cellp = R[1] + ci;  // vals
      *cellp = lucid_mask(m.val, 32);  // single write
    }
  }
  if (m.ev_id == 3) {  // read: mem
    {
      i64 ci = (m.__t0) % 256;
      if (ci < 0) ci += 256;
      i64* cellp = R[1] + ci;  // vals
      const i64 cell = *cellp;  // single read
      m.__t1 = cell;
    }
  }
  if (m.ev_id == 1 && (m.__t1 != 0)) {  // sync: mem
    {
      i64 ci = (m.idx) % 256;
      if (ci < 0) ci += 256;
      i64* cellp = R[1] + ci;  // vals
      *cellp = lucid_mask(m.val, 32);  // single write
    }
  }
}

// Generate flush, in site (placement) order == the order the
// interpreter's handler body reached each generate. Args mask to
// the event's param widths (EventCtor).
inline i32 lucid_flush(Ctx& m, GenOut* out) {
  i32 n = 0;
  if (m.g0_fired) {  // ack
    GenOut& g = out[n++];
    g.event_id = 2;
    g.multicast = 0;
    g.group = -1;
    g.nargs = 3;
    g.delay_ns = m.g0_delay;
    g.location = m.g0_loc;
    g.args[0] = lucid_mask(m.g0_a0, 32);
    g.args[1] = lucid_mask(m.g0_a1, 32);
    g.args[2] = lucid_mask(m.g0_a2, 32);
  }
  if (m.g1_fired) {  // sync
    GenOut& g = out[n++];
    g.event_id = 1;
    g.multicast = 1;
    g.group = 0;
    g.nargs = 4;
    g.delay_ns = m.g1_delay;
    g.location = m.g1_loc;
    g.args[0] = lucid_mask(m.g1_a0, 32);
    g.args[1] = lucid_mask(m.g1_a1, 32);
    g.args[2] = lucid_mask(m.g1_a2, 32);
    g.args[3] = lucid_mask(m.g1_a3, 32);
  }
  return n;
}

}  // namespace

extern "C" u32 lucid_native_abi_version() { return 2; }
extern "C" i32 lucid_native_max_gens() { return 2; }

// Batch mode: per-packet straight-line execution with one shared
// Ctx — the pipeline state stays in registers instead of round-
// tripping a scratch slab between stage loops (the event loop's
// drains are tens of packets, far below streaming sizes where a
// stage-major walk could pay off). Per-array access order is
// packet order either way: each register array is pinned to one
// stage, and packets run in order.
extern "C" void lucid_native_run_batch(i64* const* R, const PacketIn* in, i32 n, GenOut* out, i32* gen_counts) {
  Ctx m;
  for (i32 i = 0; i < n; ++i) {
    lucid_load(m, in[i]);
    lucid_stage_0(m, R);
    lucid_stage_1(m, R);
    lucid_stage_2(m, R);
    lucid_stage_3(m, R);
    gen_counts[i] = lucid_flush(m, out + (i64)i * 2);
  }
}
