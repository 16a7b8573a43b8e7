// SFW — generated by the Lucid compiler (native backend)
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
  i64 __inl0_ret;
  i64 __self;
  i64 __t0;
  i64 __t1;
  i64 __t2;
  i64 __t3;
  i64 __t4;
  i64 __t5;
  i64 __t6;
  i64 __t7;
  i64 __t8;
  i64 __t9;
  i64 __ts;
  i64 depth;
  i64 dst;
  i64 idx;
  i64 key;
  i64 src;
  i64 g0_fired;
  i64 g0_delay;
  i64 g0_loc;
  i64 g0_a0;
  i64 g1_fired;
  i64 g1_delay;
  i64 g1_loc;
  i64 g1_a0;
  i64 g2_fired;
  i64 g2_delay;
  i64 g2_loc;
  i64 g2_a0;
  i64 g3_fired;
  i64 g3_delay;
  i64 g3_loc;
  i64 g3_a0;
  i64 g3_a1;
  i64 g4_fired;
  i64 g4_delay;
  i64 g4_loc;
  i64 g4_a0;
  i64 g4_a1;
  i64 g5_fired;
  i64 g5_delay;
  i64 g5_loc;
  i64 g5_a0;
};

// Dispatcher: zero the ctx and copy event params in, masked to
// their declared widths (Runtime::execute).
inline void lucid_load(Ctx& m, const PacketIn& in) {
  m = Ctx{};
  m.ev_id = in.event_id;
  m.__self = in.self_id;
  m.__ts = lucid_mask(in.now_ns, 32);
  switch (in.event_id) {
    case 0:  // pkt_out
      m.src = lucid_mask(in.args[0], 32);
      m.dst = lucid_mask(in.args[1], 32);
      break;
    case 1:  // pkt_in
      m.src = lucid_mask(in.args[0], 32);
      m.dst = lucid_mask(in.args[1], 32);
      break;
    case 2:  // cuckoo_insert
      m.key = lucid_mask(in.args[0], 32);
      m.depth = lucid_mask(in.args[1], 32);
      break;
    case 3:  // scan1
      m.idx = lucid_mask(in.args[0], 32);
      break;
    case 4:  // scan2
      m.idx = lucid_mask(in.args[0], 32);
      break;
    case 5:  // del1
      m.idx = lucid_mask(in.args[0], 32);
      break;
    case 6:  // del2
      m.idx = lucid_mask(in.args[0], 32);
      break;
    default: break;
  }
}

inline void lucid_stage_0(Ctx& m, i64* const* R) {
  if (m.ev_id == 0) {  // pkt_out: hash
    {
      u32 h = 2166136261u ^ ((u32)(i64{77}) * 0x9E3779B1u);
      h = lucid_fnv1a_word(h, m.src);
      h = lucid_fnv1a_word(h, m.dst);
      m.__t0 = (i64)h;
    }
  }
  if (m.ev_id == 2) {  // cuckoo_insert: op
    m.__t0 = ((m.depth) > (i64{8}) ? 1 : 0);
  }
  if (m.ev_id == 1) {  // pkt_in: hash
    {
      u32 h = 2166136261u ^ ((u32)(i64{77}) * 0x9E3779B1u);
      h = lucid_fnv1a_word(h, m.dst);
      h = lucid_fnv1a_word(h, m.src);
      m.__t0 = (i64)h;
    }
  }
  if (m.ev_id == 3) {  // scan1: op
    m.__t3 = lucid_mask((i64)((u64)(m.idx) + (u64)(i64{1})), 32);
  }
  if (m.ev_id == 4) {  // scan2: op
    m.__t3 = lucid_mask((i64)((u64)(m.idx) + (u64)(i64{1})), 32);
  }
}

inline void lucid_stage_1(Ctx& m, i64* const* R) {
  if (m.ev_id == 0) {  // pkt_out: op
    m.__inl0_ret = lucid_mask(((m.__t0) | (i64{1})), 32);
  }
  if (m.ev_id == 2 && (m.__t0 != 0)) {  // cuckoo_insert: mem
    {
      i64 ci = (i64{0}) % 1;
      if (ci < 0) ci += 1;
      i64* cellp = R[7] + ci;  // failures
      const i64 cell = *cellp;  // single read
      *cellp = lucid_mask((i64)((u64)(cell) + (u64)(i64{1})), 32);
    }
  }
  if (m.ev_id == 2 && (m.__t0 == 0)) {  // cuckoo_insert: hash
    {
      u32 h = 2166136261u ^ ((u32)(i64{1}) * 0x9E3779B1u);
      h = lucid_fnv1a_word(h, m.key);
      m.__t1 = (i64)(h & (u32)1023u);
    }
  }
  if (m.ev_id == 1) {  // pkt_in: op
    m.__inl0_ret = lucid_mask(((m.__t0) | (i64{1})), 32);
  }
  if (m.ev_id == 3) {  // scan1: op
    m.__t4 = lucid_mask(((m.__t3) & (i64{1023})), 32);
  }
  if (m.ev_id == 4) {  // scan2: op
    m.__t4 = lucid_mask(((m.__t3) & (i64{1023})), 32);
  }
}

inline void lucid_stage_2(Ctx& m, i64* const* R) {
  if (m.ev_id == 0) {  // pkt_out: hash
    {
      u32 h = 2166136261u ^ ((u32)(i64{1}) * 0x9E3779B1u);
      h = lucid_fnv1a_word(h, m.__inl0_ret);
      m.__t2 = (i64)(h & (u32)1023u);
    }
  }
  if (m.ev_id == 0) {  // pkt_out: hash
    {
      u32 h = 2166136261u ^ ((u32)(i64{2}) * 0x9E3779B1u);
      h = lucid_fnv1a_word(h, m.__inl0_ret);
      m.__t3 = (i64)(h & (u32)1023u);
    }
  }
  if (m.ev_id == 1) {  // pkt_in: hash
    {
      u32 h = 2166136261u ^ ((u32)(i64{1}) * 0x9E3779B1u);
      h = lucid_fnv1a_word(h, m.__inl0_ret);
      m.__t2 = (i64)(h & (u32)1023u);
    }
  }
  if (m.ev_id == 1) {  // pkt_in: hash
    {
      u32 h = 2166136261u ^ ((u32)(i64{2}) * 0x9E3779B1u);
      h = lucid_fnv1a_word(h, m.__inl0_ret);
      m.__t3 = (i64)(h & (u32)1023u);
    }
  }
  if (m.ev_id == 3) {  // scan1: generate
    m.g0_fired = 1;
    m.g0_delay = i64{1000000};
    m.g0_loc = -1;
    m.g0_a0 = m.__t4;
  }
  if (m.ev_id == 4) {  // scan2: generate
    m.g1_fired = 1;
    m.g1_delay = i64{1000000};
    m.g1_loc = -1;
    m.g1_a0 = m.__t4;
  }
}

inline void lucid_stage_3(Ctx& m, i64* const* R) {
  if (m.ev_id == 5) {  // del1: mem
    {
      i64 ci = (m.idx) % 1024;
      if (ci < 0) ci += 1024;
      i64* cellp = R[0] + ci;  // key1
      *cellp = lucid_mask(i64{0}, 32);  // single write
    }
  }
  if (m.ev_id == 2 && (m.__t0 == 0)) {  // cuckoo_insert: mem
    {
      i64 ci = (m.__t1) % 1024;
      if (ci < 0) ci += 1024;
      i64* cellp = R[0] + ci;  // key1
      const i64 cell = *cellp;  // single read
      m.__t2 = lucid_mask(cell, 32);
      *cellp = lucid_mask(m.key, 32);
    }
  }
  if (m.ev_id == 0) {  // pkt_out: mem
    {
      i64 ci = (m.__t2) % 1024;
      if (ci < 0) ci += 1024;
      i64* cellp = R[0] + ci;  // key1
      const i64 cell = *cellp;  // single read
      m.__t4 = lucid_mask(cell, 32);
      if (cell == i64{0})
        *cellp = lucid_mask(m.__inl0_ret, 32);
      else
        *cellp = lucid_mask(cell, 32);
    }
  }
  if (m.ev_id == 1) {  // pkt_in: mem
    {
      i64 ci = (m.__t2) % 1024;
      if (ci < 0) ci += 1024;
      i64* cellp = R[0] + ci;  // key1
      const i64 cell = *cellp;  // single read
      m.__t4 = cell;
    }
  }
}

inline void lucid_stage_4(Ctx& m, i64* const* R) {
  if (m.ev_id == 2 && (m.__t0 == 0 && m.__t2 != 0)) {  // cuckoo_insert: op
    m.__t3 = ((m.__t2) != (m.key) ? 1 : 0);
  }
  if (m.ev_id == 0 && (m.__t4 != 0)) {  // pkt_out: op
    m.__t5 = ((m.__t4) == (m.__inl0_ret) ? 1 : 0);
  }
  if (m.ev_id == 1) {  // pkt_in: op
    m.__t7 = ((m.__t4) == (m.__inl0_ret) ? 1 : 0);
  }
}

inline void lucid_stage_5(Ctx& m, i64* const* R) {
  if (m.ev_id == 3) {  // scan1: mem
    {
      i64 ci = (m.idx) % 1024;
      if (ci < 0) ci += 1024;
      i64* cellp = R[1] + ci;  // ts1
      const i64 cell = *cellp;  // single read
      m.__t0 = cell;
    }
  }
  if (m.ev_id == 5) {  // del1: mem
    {
      i64 ci = (m.idx) % 1024;
      if (ci < 0) ci += 1024;
      i64* cellp = R[1] + ci;  // ts1
      *cellp = lucid_mask(i64{0}, 32);  // single write
    }
  }
  if (m.ev_id == 2 && (m.__t0 == 0 && m.__t2 != 0 && m.__t3 != 0)) {  // cuckoo_insert: hash
    {
      u32 h = 2166136261u ^ ((u32)(i64{2}) * 0x9E3779B1u);
      h = lucid_fnv1a_word(h, m.__t2);
      m.__t4 = (i64)(h & (u32)1023u);
    }
  }
  if (m.ev_id == 0 && ((m.__t4 == 0) || (m.__t4 != 0 && m.__t5 != 0))) {  // pkt_out: mem
    {
      i64 ci = (m.__t2) % 1024;
      if (ci < 0) ci += 1024;
      i64* cellp = R[1] + ci;  // ts1
      *cellp = lucid_mask(m.__ts, 32);  // single write
    }
  }
}

inline void lucid_stage_6(Ctx& m, i64* const* R) {
  if (m.ev_id == 6) {  // del2: mem
    {
      i64 ci = (m.idx) % 1024;
      if (ci < 0) ci += 1024;
      i64* cellp = R[2] + ci;  // key2
      *cellp = lucid_mask(i64{0}, 32);  // single write
    }
  }
  if (m.ev_id == 3) {  // scan1: op
    m.__t1 = lucid_mask((i64)((u64)(m.__ts) - (u64)(m.__t0)), 32);
  }
  if (m.ev_id == 1) {  // pkt_in: mem
    {
      i64 ci = (m.__t3) % 1024;
      if (ci < 0) ci += 1024;
      i64* cellp = R[2] + ci;  // key2
      const i64 cell = *cellp;  // single read
      m.__t5 = cell;
    }
  }
  if (m.ev_id == 0 && (m.__t4 != 0 && m.__t5 == 0)) {  // pkt_out: mem
    {
      i64 ci = (m.__t3) % 1024;
      if (ci < 0) ci += 1024;
      i64* cellp = R[2] + ci;  // key2
      const i64 cell = *cellp;  // single read
      m.__t6 = lucid_mask(cell, 32);
      if (cell == i64{0})
        *cellp = lucid_mask(m.__inl0_ret, 32);
      else
        *cellp = lucid_mask(cell, 32);
    }
  }
  if (m.ev_id == 2 && (m.__t0 == 0 && m.__t2 != 0 && m.__t3 != 0)) {  // cuckoo_insert: mem
    {
      i64 ci = (m.__t4) % 1024;
      if (ci < 0) ci += 1024;
      i64* cellp = R[2] + ci;  // key2
      const i64 cell = *cellp;  // single read
      m.__t5 = lucid_mask(cell, 32);
      *cellp = lucid_mask(m.__t2, 32);
    }
  }
}

inline void lucid_stage_7(Ctx& m, i64* const* R) {
  if (m.ev_id == 3 && (m.__t0 != 0)) {  // scan1: op
    m.__t2 = ((m.__t1) > (i64{100000000}) ? 1 : 0);
  }
  if (m.ev_id == 1 && (m.__t7 == 0)) {  // pkt_in: op
    m.__t8 = ((m.__t5) == (m.__inl0_ret) ? 1 : 0);
  }
  if (m.ev_id == 0 && (m.__t4 != 0 && m.__t5 == 0 && m.__t6 != 0)) {  // pkt_out: op
    m.__t7 = ((m.__t6) == (m.__inl0_ret) ? 1 : 0);
  }
  if (m.ev_id == 2 && (m.__t0 == 0 && m.__t2 != 0 && m.__t3 != 0 && m.__t5 != 0)) {  // cuckoo_insert: op
    m.__t6 = ((m.__t5) != (m.__t2) ? 1 : 0);
  }
}

inline void lucid_stage_8(Ctx& m, i64* const* R) {
  if (m.ev_id == 1) {  // pkt_in: mem
    {
      i64 ci = (i64{0}) % 4;
      if (ci < 0) ci += 4;
      i64* cellp = R[4] + ci;  // stash
      const i64 cell = *cellp;  // single read
      m.__t6 = cell;
    }
  }
  if (m.ev_id == 3 && (m.__t0 != 0 && m.__t2 != 0)) {  // scan1: generate
    m.g2_fired = 1;
    m.g2_delay = i64{0};
    m.g2_loc = -1;
    m.g2_a0 = m.idx;
  }
  if (m.ev_id == 0 && (m.__t4 != 0 && m.__t5 == 0 && m.__t6 != 0 && m.__t7 == 0)) {  // pkt_out: generate
    m.g3_fired = 1;
    m.g3_delay = i64{0};
    m.g3_loc = -1;
    m.g3_a0 = m.__inl0_ret;
    m.g3_a1 = i64{0};
  }
  if (m.ev_id == 2 && (m.__t0 == 0 && m.__t2 != 0 && m.__t3 != 0 && m.__t5 != 0 && m.__t6 != 0)) {  // cuckoo_insert: mem
    {
      i64 ci = (i64{0}) % 4;
      if (ci < 0) ci += 4;
      i64* cellp = R[4] + ci;  // stash
      *cellp = lucid_mask(m.__t5, 32);  // single write
    }
  }
  if (m.ev_id == 4) {  // scan2: mem
    {
      i64 ci = (m.idx) % 1024;
      if (ci < 0) ci += 1024;
      i64* cellp = R[3] + ci;  // ts2
      const i64 cell = *cellp;  // single read
      m.__t0 = cell;
    }
  }
  if (m.ev_id == 6) {  // del2: mem
    {
      i64 ci = (m.idx) % 1024;
      if (ci < 0) ci += 1024;
      i64* cellp = R[3] + ci;  // ts2
      *cellp = lucid_mask(i64{0}, 32);  // single write
    }
  }
  if (m.ev_id == 0 && ((m.__t4 != 0 && m.__t5 == 0 && m.__t6 == 0) || (m.__t4 != 0 && m.__t5 == 0 && m.__t6 != 0 && m.__t7 != 0))) {  // pkt_out: mem
    {
      i64 ci = (m.__t3) % 1024;
      if (ci < 0) ci += 1024;
      i64* cellp = R[3] + ci;  // ts2
      *cellp = lucid_mask(m.__ts, 32);  // single write
    }
  }
  if (m.ev_id == 2 && (m.__t0 == 0 && m.__t2 != 0 && m.__t3 != 0 && m.__t5 != 0 && m.__t6 != 0)) {  // cuckoo_insert: op
    m.__t7 = lucid_mask((i64)((u64)(m.depth) + (u64)(i64{1})), 32);
  }
}

inline void lucid_stage_9(Ctx& m, i64* const* R) {
  if (m.ev_id == 4) {  // scan2: op
    m.__t1 = lucid_mask((i64)((u64)(m.__ts) - (u64)(m.__t0)), 32);
  }
  if (m.ev_id == 1 && (m.__t7 == 0 && m.__t8 == 0)) {  // pkt_in: op
    m.__t9 = ((m.__t6) == (m.__inl0_ret) ? 1 : 0);
  }
  if (m.ev_id == 2 && (m.__t0 == 0 && m.__t2 != 0 && m.__t3 != 0 && m.__t5 != 0 && m.__t6 != 0)) {  // cuckoo_insert: generate
    m.g4_fired = 1;
    m.g4_delay = i64{0};
    m.g4_loc = -1;
    m.g4_a0 = m.__t5;
    m.g4_a1 = m.__t7;
  }
}

inline void lucid_stage_10(Ctx& m, i64* const* R) {
  if (m.ev_id == 4 && (m.__t0 != 0)) {  // scan2: op
    m.__t2 = ((m.__t1) > (i64{100000000}) ? 1 : 0);
  }
  if (m.ev_id == 1 && ((m.__t7 != 0) || (m.__t7 == 0 && m.__t8 != 0) || (m.__t7 == 0 && m.__t8 == 0 && m.__t9 != 0))) {  // pkt_in: mem
    {
      i64 ci = (i64{0}) % 1;
      if (ci < 0) ci += 1;
      i64* cellp = R[5] + ci;  // allowed
      const i64 cell = *cellp;  // single read
      *cellp = lucid_mask((i64)((u64)(cell) + (u64)(i64{1})), 32);
    }
  }
  if (m.ev_id == 1 && (m.__t7 == 0 && m.__t8 == 0 && m.__t9 == 0)) {  // pkt_in: mem
    {
      i64 ci = (i64{0}) % 1;
      if (ci < 0) ci += 1;
      i64* cellp = R[6] + ci;  // denied
      const i64 cell = *cellp;  // single read
      *cellp = lucid_mask((i64)((u64)(cell) + (u64)(i64{1})), 32);
    }
  }
}

inline void lucid_stage_11(Ctx& m, i64* const* R) {
  if (m.ev_id == 4 && (m.__t0 != 0 && m.__t2 != 0)) {  // scan2: generate
    m.g5_fired = 1;
    m.g5_delay = i64{0};
    m.g5_loc = -1;
    m.g5_a0 = m.idx;
  }
}

// Generate flush, in site (placement) order == the order the
// interpreter's handler body reached each generate. Args mask to
// the event's param widths (EventCtor).
inline i32 lucid_flush(Ctx& m, GenOut* out) {
  i32 n = 0;
  if (m.g0_fired) {  // scan1
    GenOut& g = out[n++];
    g.event_id = 3;
    g.multicast = 0;
    g.group = -1;
    g.nargs = 1;
    g.delay_ns = m.g0_delay;
    g.location = m.g0_loc;
    g.args[0] = lucid_mask(m.g0_a0, 32);
  }
  if (m.g1_fired) {  // scan2
    GenOut& g = out[n++];
    g.event_id = 4;
    g.multicast = 0;
    g.group = -1;
    g.nargs = 1;
    g.delay_ns = m.g1_delay;
    g.location = m.g1_loc;
    g.args[0] = lucid_mask(m.g1_a0, 32);
  }
  if (m.g2_fired) {  // del1
    GenOut& g = out[n++];
    g.event_id = 5;
    g.multicast = 0;
    g.group = -1;
    g.nargs = 1;
    g.delay_ns = m.g2_delay;
    g.location = m.g2_loc;
    g.args[0] = lucid_mask(m.g2_a0, 32);
  }
  if (m.g3_fired) {  // cuckoo_insert
    GenOut& g = out[n++];
    g.event_id = 2;
    g.multicast = 0;
    g.group = -1;
    g.nargs = 2;
    g.delay_ns = m.g3_delay;
    g.location = m.g3_loc;
    g.args[0] = lucid_mask(m.g3_a0, 32);
    g.args[1] = lucid_mask(m.g3_a1, 32);
  }
  if (m.g4_fired) {  // cuckoo_insert
    GenOut& g = out[n++];
    g.event_id = 2;
    g.multicast = 0;
    g.group = -1;
    g.nargs = 2;
    g.delay_ns = m.g4_delay;
    g.location = m.g4_loc;
    g.args[0] = lucid_mask(m.g4_a0, 32);
    g.args[1] = lucid_mask(m.g4_a1, 32);
  }
  if (m.g5_fired) {  // del2
    GenOut& g = out[n++];
    g.event_id = 6;
    g.multicast = 0;
    g.group = -1;
    g.nargs = 1;
    g.delay_ns = m.g5_delay;
    g.location = m.g5_loc;
    g.args[0] = lucid_mask(m.g5_a0, 32);
  }
  return n;
}

}  // namespace

extern "C" u32 lucid_native_abi_version() { return 2; }
extern "C" i32 lucid_native_max_gens() { return 6; }

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
    lucid_stage_4(m, R);
    lucid_stage_5(m, R);
    lucid_stage_6(m, R);
    lucid_stage_7(m, R);
    lucid_stage_8(m, R);
    lucid_stage_9(m, R);
    lucid_stage_10(m, R);
    lucid_stage_11(m, R);
    gen_counts[i] = lucid_flush(m, out + (i64)i * 6);
  }
}
