// constructs — generated by the Lucid compiler (native backend)
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
  i64 __t2;
  i64 __t3;
  i64 __t4;
  i64 __t5;
  i64 __ts;
  i64 flag;
  i64 key;
  i64 tag;
  i64 v;
  i64 w;
  i64 g0_fired;
  i64 g0_delay;
  i64 g0_loc;
  i64 g0_a0;
  i64 g0_a1;
};

// Dispatcher: zero the ctx and copy event params in, masked to
// their declared widths (Runtime::execute).
inline void lucid_load(Ctx& m, const PacketIn& in) {
  m = Ctx{};
  m.ev_id = in.event_id;
  m.__self = in.self_id;
  m.__ts = lucid_mask(in.now_ns, 32);
  switch (in.event_id) {
    case 0:  // pkt
      m.key = in.args[0];
      m.tag = lucid_mask(in.args[1], 8);
      m.flag = lucid_mask(in.args[2], 32);
      break;
    case 1:  // note
      m.v = lucid_mask(in.args[0], 32);
      m.w = lucid_mask(in.args[1], 32);
      break;
    default: break;
  }
}

inline void lucid_stage_0(Ctx& m, i64* const* R) {
  if (m.ev_id == 0) {  // pkt: hash
    {
      u32 h = 2166136261u ^ ((u32)(i64{7}) * 0x9E3779B1u);
      h = lucid_fnv1a_word(h, m.key);
      h = lucid_fnv1a_word(h, m.flag);
      m.__t0 = (i64)(h & (u32)255u);
    }
  }
  if (m.ev_id == 0) {  // pkt: op
    m.__t1 = lucid_mask((i64)((u64)(i64{0}) - (u64)(m.flag)), 32);
  }
  if (m.ev_id == 0) {  // pkt: op
    m.__t2 = lucid_mask(((m.flag) ^ (i64{-1})), 32);
  }
  if (m.ev_id == 0) {  // pkt: op
    m.__t3 = ((m.flag) == (i64{0}) ? 1 : 0);
  }
  if (m.ev_id == 1) {  // note: op
    m.__t0 = lucid_mask(((m.v) & (i64{255})), 32);
  }
  if (m.ev_id == 0 && (m.tag != 1 && m.flag != 3)) {  // pkt: op
    m.__t5 = lucid_mask(((m.flag) & (i64{1})), 32);
  }
}

inline void lucid_stage_1(Ctx& m, i64* const* R) {
  if (m.ev_id == 0) {  // pkt: op
    m.__t4 = ((m.__t3) == (i64{0}) ? 1 : 0);
  }
  if (m.ev_id == 0 && (m.tag != 1 && m.flag != 3)) {  // pkt: mem
    {
      i64 ci = (m.__t0) % 256;
      if (ci < 0) ci += 256;
      i64* cellp = R[0] + ci;  // counts
      const i64 cell = *cellp;  // single read
      *cellp = lucid_mask((i64)((u64)(cell) + (u64)(i64{1})), 32);
    }
  }
  if (m.ev_id == 0 && (m.tag != 1 && m.flag != 3)) {  // pkt: generate
    m.g0_fired = 1;
    m.g0_delay = i64{0};
    m.g0_loc = m.__t5;
    m.g0_a0 = m.__t1;
    m.g0_a1 = m.__t2;
  }
}

inline void lucid_stage_2(Ctx& m, i64* const* R) {
  if (m.ev_id == 1) {  // note: mem
    {
      i64 ci = (m.__t0) % 256;
      if (ci < 0) ci += 256;
      i64* cellp = R[1] + ci;  // marks
      *cellp = lucid_mask(m.w, 16);  // single write
    }
  }
  if (m.ev_id == 0 && (m.__t4 != 0)) {  // pkt: mem
    {
      i64 ci = (m.__t0) % 256;
      if (ci < 0) ci += 256;
      i64* cellp = R[1] + ci;  // marks
      *cellp = lucid_mask(i64{1}, 16);  // single write
    }
  }
}

// Generate flush, in site (placement) order == the order the
// interpreter's handler body reached each generate. Args mask to
// the event's param widths (EventCtor).
inline i32 lucid_flush(Ctx& m, GenOut* out) {
  i32 n = 0;
  if (m.g0_fired) {  // note
    GenOut& g = out[n++];
    g.event_id = 1;
    g.multicast = 0;
    g.group = -1;
    g.nargs = 2;
    g.delay_ns = m.g0_delay;
    g.location = m.g0_loc;
    g.args[0] = lucid_mask(m.g0_a0, 32);
    g.args[1] = lucid_mask(m.g0_a1, 32);
  }
  return n;
}

}  // namespace

extern "C" u32 lucid_native_abi_version() { return 2; }
extern "C" i32 lucid_native_max_gens() { return 1; }

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
    gen_counts[i] = lucid_flush(m, out + (i64)i * 1);
  }
}
