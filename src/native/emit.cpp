// Emits a native pipeline module: one C++ translation unit per program.
//
// Semantics contract: generated code must leave register state byte-identical
// to interp::Runtime for any event sequence (the differential suite in
// tests/test_native.cpp enforces this on all ten paper apps). Every masking
// and evaluation rule below therefore names the interpreter rule it mirrors:
//
//   - all values are int64_t; locals zero-init per packet (Frame defaults);
//   - handler params mask to declared widths on entry
//     (interp::Runtime::execute);
//   - binary-op results mask to the expression width (eval/Binary), with
//     Div/Mod-by-zero yielding 0 and shifts masked to 6 bits (binop_eval);
//     add/sub/mul/shl run in uint64 so signed overflow stays wrap-around;
//   - memops evaluate in canonicalized single-sALU form; on Update both the
//     get- and set-memop read the pre-update cell, stores and memop'd reads
//     mask to the cell width, plain reads don't (eval_call/ArrayUpdate);
//   - array indexes wrap via `i % n; if (i < 0) i += n`
//     (pisa::RegisterArray::clamp);
//   - `hash` is the shared modeled FNV-1a (support/hash.hpp) — NOT the
//     eBPF backend's CRC32; the inline lucid_fnv1a_word below must stay in
//     lockstep with support::fnv1a_word;
//   - generated-event args mask to the event's param widths (EventCtor).
//
// Batch equivalence: lucid_native_run_batch, the module's only executor
// entry, runs packets in order, each one straight through the whole pipeline
// (load, stages, flush) on a single reused Ctx — exactly the order n
// one-packet calls produce, so state equivalence is trivial. A stage-major
// walk (each stage as a loop over the batch, PISA's stage parallelism in
// software) would also preserve per-array access order — the layout pins
// every register array to exactly one stage (opt::Pipeline::array_stage) and
// a packet makes at most one sALU visit per array per pass — but it
// round-trips every packet's Ctx through a scratch slab between stages,
// which measures slower at event-loop drain sizes.
// Locals are per-packet (Ctx, fully re-initialized by lucid_load), and
// generate records flush per packet after its last stage.
#include "native/emit.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "native/abi.hpp"
#include "opt/emit_walk.hpp"

namespace lucid::native {

namespace {

using ir::AtomicTable;
using ir::MemKind;
using ir::Operand;
using ir::TableKind;

std::string ctx_ref(const std::string& var) {
  return "m." + opt::sanitize(var);
}

std::string operand_str(const Operand& o) {
  switch (o.kind) {
    case Operand::Kind::None: return "0";
    case Operand::Kind::Var: return ctx_ref(o.var);
    case Operand::Kind::Const:
      return "i64{" + std::to_string(o.value) + "}";
  }
  return "0";
}

/// Wraps `expr` in the width mask when the width actually clips (the
/// generated lucid_mask would pass it through anyway; skip the call).
std::string masked(const std::string& expr, int width) {
  if (width >= 64 || width <= 0) return expr;
  return "lucid_mask(" + expr + ", " + std::to_string(width) + ")";
}

/// The interp-exact C++ expression for `l <op> r` (binop_eval): unsigned
/// wrap-around for add/sub/mul/shl, guarded div/mod, 6-bit shift counts,
/// logical shift right, 0/1 comparisons.
std::string binop_expr(frontend::BinOp op, const std::string& l,
                       const std::string& r) {
  using frontend::BinOp;
  auto wrap = [&](const char* c_op) {
    return "(i64)((u64)(" + l + ") " + c_op + " (u64)(" + r + "))";
  };
  auto guarded = [&](const char* c_op) {
    return "((" + r + ") == 0 ? 0 : (" + l + ") " + c_op + " (" + r + "))";
  };
  auto cmp = [&](const char* c_op) {
    return "((" + l + ") " + c_op + " (" + r + ") ? 1 : 0)";
  };
  switch (op) {
    case BinOp::Add: return wrap("+");
    case BinOp::Sub: return wrap("-");
    case BinOp::Mul: return wrap("*");
    case BinOp::Div: return guarded("/");
    case BinOp::Mod: return guarded("%");
    case BinOp::BitAnd: return "((" + l + ") & (" + r + "))";
    case BinOp::BitOr: return "((" + l + ") | (" + r + "))";
    case BinOp::BitXor: return "((" + l + ") ^ (" + r + "))";
    case BinOp::Shl:
      return "(i64)((u64)(" + l + ") << ((" + r + ") & 63))";
    case BinOp::Shr:
      return "(i64)((u64)(" + l + ") >> ((" + r + ") & 63))";
    case BinOp::Eq: return cmp("==");
    case BinOp::Ne: return cmp("!=");
    case BinOp::Lt: return cmp("<");
    case BinOp::Gt: return cmp(">");
    case BinOp::Le: return cmp("<=");
    case BinOp::Ge: return cmp(">=");
    case BinOp::LAnd:
      return "(((" + l + ") != 0 && (" + r + ") != 0) ? 1 : 0)";
    case BinOp::LOr:
      return "(((" + l + ") != 0 || (" + r + ") != 0) ? 1 : 0)";
  }
  return "0";
}

/// Memop operand: the canonical "cell" parameter resolves to the single-read
/// cell value, anything else to the call-site argument.
std::string memop_operand(const Operand& o, const Operand& call_arg,
                          const std::string& cell_name) {
  if (o.is_const()) return "i64{" + std::to_string(o.value) + "}";
  if (o.var == "cell") return cell_name;
  return operand_str(call_arg);
}

std::string memop_expr(const Operand& lhs,
                       const std::optional<frontend::BinOp>& op,
                       const Operand& rhs, const Operand& call_arg,
                       const std::string& cell_name) {
  std::string l = memop_operand(lhs, call_arg, cell_name);
  if (!op) return l;
  return binop_expr(*op, l, memop_operand(rhs, call_arg, cell_name));
}

class Emitter {
 public:
  Emitter(const ir::ProgramIR& ir, const opt::Pipeline& pipeline,
          std::string_view name)
      : ir_(ir),
        pipeline_(pipeline),
        name_(name),
        vars_(opt::ctx_vars(ir, pipeline)),
        sites_(opt::generate_sites(pipeline)) {}

  EmittedModule run() {
    preamble();
    ctx_struct();
    load_fn();
    stage_fns();
    flush_fn();
    entry_points();
    EmittedModule m;
    m.text = std::move(out_);
    m.gen_sites = static_cast<int>(sites_.tables.size());
    m.stages = static_cast<int>(pipeline_.stages.size());
    m.loc = loc_;
    return m;
  }

 private:
  void line(const std::string& s) {
    out_ += s;
    out_ += '\n';
    ++loc_;
  }
  void blank() { out_ += '\n'; }

  int array_slot(const std::string& name) const {
    const auto it = ir_.array_index.find(name);
    return it == ir_.array_index.end() ? -1 : it->second;
  }

  int group_slot(const std::string& name) const {
    for (std::size_t i = 0; i < ir_.groups.size(); ++i) {
      if (ir_.groups[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }

  // ---- sections -----------------------------------------------------------

  void preamble() {
    line("// " + std::string(name_) +
         " — generated by the Lucid compiler (native backend)");
    line("// Self-contained: compiled by the in-process JIT "
         "(src/native/jit.cpp) and dlopen'd.");
    line("// Semantics mirror interp::Runtime exactly; see "
         "src/native/emit.cpp for the contract.");
    line("// No #include: the compiler's predefined type macros stand in for");
    line("// <cstdint>, and the module links without libc (-nostdlib).");
    line("using i32 = __INT32_TYPE__;");
    line("using u32 = __UINT32_TYPE__;");
    line("using i64 = __INT64_TYPE__;");
    line("using u64 = __UINT64_TYPE__;");
    blank();
    line("namespace {");
    blank();
    line("// ABI structs — textual mirror of src/native/abi.hpp (v" +
         std::to_string(kAbiVersion) + ").");
    line("constexpr i32 kMaxArgs = " + std::to_string(kMaxArgs) + ";");
    line("struct PacketIn { i32 event_id; i32 nargs; i64 now_ns; "
         "i64 self_id; i64 args[kMaxArgs]; };");
    line("struct GenOut { i32 event_id; i32 multicast; i32 group; "
         "i32 nargs; i64 delay_ns; i64 location; i64 args[kMaxArgs]; };");
    line("static_assert(sizeof(i32) == 4 && sizeof(u32) == 4, "
         "\"ABI drift\");");
    line("static_assert(sizeof(i64) == 8 && sizeof(u64) == 8, "
         "\"ABI drift\");");
    line("static_assert(sizeof(PacketIn) == " +
         std::to_string(sizeof(PacketIn)) + ", \"ABI drift\");");
    line("static_assert(sizeof(GenOut) == " +
         std::to_string(sizeof(GenOut)) + ", \"ABI drift\");");
    blank();
    line("// support::mask_width, inlined.");
    line("inline i64 lucid_mask(i64 v, int w) {");
    line("  if (w >= 64 || w <= 0) return v;");
    line("  return (i64)((u64)v & ((u64{1} << w) - 1));");
    line("}");
    blank();
    line("// support::fnv1a_word, inlined (the shared modeled hash; the");
    line("// eBPF backend's CRC32 is a deliberate divergence).");
    line("inline u32 lucid_fnv1a_word(u32 h, i64 word) {");
    line("  u64 w = (u64)word;");
    line("  for (int i = 0; i < 8; ++i) {");
    line("    h ^= (u32)(w & 0xff);");
    line("    h *= 16777619u;");
    line("    w >>= 8;");
    line("  }");
    line("  return h;");
    line("}");
    blank();
  }

  void ctx_struct() {
    line("// Handler locals + event params; zero-init per packet matches");
    line("// interpreter Frame defaults. All fields are i64 (Value).");
    line("struct Ctx {");
    line("  i32 ev_id;");
    for (const auto& var : vars_) {
      line("  i64 " + opt::sanitize(var.first) + ";");
    }
    for (std::size_t site = 0; site < sites_.tables.size(); ++site) {
      const AtomicTable* t = sites_.tables[site];
      const std::string p = "g" + std::to_string(site) + "_";
      line("  i64 " + p + "fired;");
      line("  i64 " + p + "delay;");
      line("  i64 " + p + "loc;");
      const auto& ev = ir_.events[static_cast<std::size_t>(t->gen.event_id)];
      const std::size_t nargs =
          std::min(t->gen.args.size(), ev.params.size());
      for (std::size_t i = 0; i < nargs; ++i) {
        line("  i64 " + p + "a" + std::to_string(i) + ";");
      }
    }
    line("};");
    blank();
  }

  void load_fn() {
    line("// Dispatcher: zero the ctx and copy event params in, masked to");
    line("// their declared widths (Runtime::execute).");
    line("inline void lucid_load(Ctx& m, const PacketIn& in) {");
    line("  m = Ctx{};");
    line("  m.ev_id = in.event_id;");
    line("  m.__self = in.self_id;");
    line("  m.__ts = lucid_mask(in.now_ns, 32);");
    line("  switch (in.event_id) {");
    for (const auto& ev : ir_.events) {
      if (ev.params.empty()) continue;
      line("    case " + std::to_string(ev.event_id) + ":  // " + ev.name);
      const std::size_t nargs =
          std::min<std::size_t>(ev.params.size(), kMaxArgs);
      for (std::size_t i = 0; i < nargs; ++i) {
        line("      " + ctx_ref(ev.params[i].first) + " = " +
             masked("in.args[" + std::to_string(i) + "]",
                    ev.params[i].second) +
             ";");
      }
      line("      break;");
    }
    line("    default: break;");
    line("  }");
    line("}");
    blank();
  }

  void emit_memop_assign(const std::string& indent, const std::string& dst,
                         const ir::MemopInfo* mo, const Operand& call_arg,
                         const std::string& cell_name, int mask_w) {
    if (mo == nullptr) return;
    auto rhs = [&](const Operand& lhs,
                   const std::optional<frontend::BinOp>& op,
                   const Operand& r) {
      return masked(memop_expr(lhs, op, r, call_arg, cell_name), mask_w);
    };
    if (mo->has_condition) {
      line(indent + "if (" +
           memop_operand(mo->cond_lhs, call_arg, cell_name) + " " +
           std::string(ir::cmp_name(mo->cond_op)) + " " +
           memop_operand(mo->cond_rhs, call_arg, cell_name) + ")");
      line(indent + "  " + dst + " = " +
           rhs(mo->then_lhs, mo->then_op, mo->then_rhs) + ";");
      line(indent + "else");
      line(indent + "  " + dst + " = " +
           rhs(mo->else_lhs, mo->else_op, mo->else_rhs) + ";");
    } else {
      line(indent + dst + " = " +
           rhs(mo->then_lhs, mo->then_op, mo->then_rhs) + ";");
    }
  }

  void emit_mem(const AtomicTable& t, const std::string& indent) {
    const ir::ArrayInfo* arr = ir_.find_array(t.mem.array);
    const int cw = arr ? arr->width : 32;
    const auto n = arr ? arr->size : 1;
    const int slot = array_slot(t.mem.array);
    const ir::MemopInfo* getm =
        t.mem.get_memop.empty() ? nullptr : ir_.find_memop(t.mem.get_memop);
    const ir::MemopInfo* setm =
        t.mem.set_memop.empty() ? nullptr : ir_.find_memop(t.mem.set_memop);

    line(indent + "{");
    const std::string in = indent + "  ";
    // RegisterArray::clamp: wrap, then fix the sign.
    line(in + "i64 ci = (" + operand_str(t.mem.index) + ") % " +
         std::to_string(n) + ";");
    line(in + "if (ci < 0) ci += " + std::to_string(n) + ";");
    line(in + "i64* cellp = R[" + std::to_string(slot) + "] + ci;  // " +
         t.mem.array);
    switch (t.mem.kind) {
      case MemKind::Get:
        line(in + "const i64 cell = *cellp;  // single read");
        if (getm == nullptr) {
          // Plain read: stored cells are already in range, no mask.
          line(in + ctx_ref(t.mem.dst) + " = cell;");
        } else {
          // Memop'd read masks to the cell width (arr->mask).
          emit_memop_assign(in, ctx_ref(t.mem.dst), getm, t.mem.get_arg,
                            "cell", cw);
        }
        break;
      case MemKind::Set:
        if (setm == nullptr) {
          line(in + "*cellp = " + masked(operand_str(t.mem.set_value), cw) +
               ";  // single write");
        } else {
          line(in + "const i64 cell = *cellp;  // single read");
          emit_memop_assign(in, "*cellp", setm, t.mem.set_arg, "cell", cw);
        }
        break;
      case MemKind::Update:
        // Parallel get+set: both memops read the pre-update cell
        // (eval_call/ArrayUpdate), so compute the result before the store.
        line(in + "const i64 cell = *cellp;  // single read");
        if (t.mem.dst.empty()) {
          // update with discarded result
        } else if (getm != nullptr) {
          emit_memop_assign(in, ctx_ref(t.mem.dst), getm, t.mem.get_arg,
                            "cell", cw);
        } else {
          line(in + ctx_ref(t.mem.dst) + " = cell;");
        }
        emit_memop_assign(in, "*cellp", setm, t.mem.set_arg, "cell", cw);
        break;
    }
    line(indent + "}");
  }

  void emit_table(const AtomicTable& t, const std::string& indent) {
    switch (t.kind) {
      case TableKind::Op: {
        const bool cmp =
            t.op.op && (frontend::binop_is_comparison(*t.op.op) ||
                        frontend::binop_is_logical(*t.op.op));
        std::string rhs;
        if (t.op.op) {
          rhs = binop_expr(*t.op.op, operand_str(t.op.lhs),
                           operand_str(t.op.rhs));
        } else {
          rhs = operand_str(t.op.lhs);
        }
        // Comparisons yield 0/1 unmasked; everything else masks to the
        // expression width (eval/Binary + LocalDecl).
        if (!cmp) rhs = masked(rhs, t.op.width);
        line(indent + ctx_ref(t.op.dst) + " = " + rhs + ";");
        break;
      }
      case TableKind::Mem:
        emit_mem(t, indent);
        break;
      case TableKind::Hash: {
        // support::model_hash32 with the fold-in output mask (HashStmt).
        line(indent + "{");
        line(indent + "  u32 h = 2166136261u ^ ((u32)(i64{" +
             std::to_string(t.hash.seed) + "}) * 0x9E3779B1u);");
        for (const auto& a : t.hash.args) {
          line(indent + "  h = lucid_fnv1a_word(h, " + operand_str(a) +
               ");");
        }
        std::string result = "(i64)h";
        if (t.hash.mask >= 0) {
          result = "(i64)(h & (u32)" + std::to_string(t.hash.mask) + "u)";
        }
        line(indent + "  " + ctx_ref(t.hash.dst) + " = " + result + ";");
        line(indent + "}");
        break;
      }
      case TableKind::Generate: {
        const int site = sites_.site_of(&t);
        const std::string p = "m.g" + std::to_string(site) + "_";
        line(indent + p + "fired = 1;");
        line(indent + p + "delay = " + operand_str(t.gen.delay) + ";");
        line(indent + p + "loc = " +
             (t.gen.location.is_none() ? "-1"
                                       : operand_str(t.gen.location)) +
             ";");
        const auto& ev =
            ir_.events[static_cast<std::size_t>(t.gen.event_id)];
        const std::size_t nargs =
            std::min(t.gen.args.size(), ev.params.size());
        for (std::size_t i = 0; i < nargs; ++i) {
          line(indent + p + "a" + std::to_string(i) + " = " +
               operand_str(t.gen.args[i]) + ";");
        }
        break;
      }
      case TableKind::Branch:
        // Dissolved by branch inlining; nothing to lower.
        break;
    }
  }

  void stage_fns() {
    int sidx = 0;
    for (const auto& stage : pipeline_.stages) {
      line("inline void lucid_stage_" + std::to_string(sidx) +
           "(Ctx& m, i64* const* R) {");
      bool any = false;
      for (const auto& mt : stage.tables) {
        for (const auto* member : mt.members) {
          const AtomicTable& t = *member;
          if (t.kind == TableKind::Branch) continue;
          any = true;
          line("  if (" + opt::table_condition(ir_, t) + ") {  // " +
               t.handler + ": " + std::string(ir::table_kind_name(t.kind)));
          emit_table(t, "    ");
          line("  }");
        }
      }
      if (!any) line("  (void)m; (void)R;");
      line("}");
      blank();
      ++sidx;
    }
  }

  void flush_fn() {
    line("// Generate flush, in site (placement) order == the order the");
    line("// interpreter's handler body reached each generate. Args mask to");
    line("// the event's param widths (EventCtor).");
    line("inline i32 lucid_flush(Ctx& m, GenOut* out) {");
    line("  i32 n = 0;");
    for (std::size_t site = 0; site < sites_.tables.size(); ++site) {
      const AtomicTable* t = sites_.tables[site];
      const std::string p = "m.g" + std::to_string(site) + "_";
      const auto& ev = ir_.events[static_cast<std::size_t>(t->gen.event_id)];
      const std::size_t nargs =
          std::min(t->gen.args.size(), ev.params.size());
      line("  if (" + p + "fired) {  // " + ev.name);
      line("    GenOut& g = out[n++];");
      line("    g.event_id = " + std::to_string(t->gen.event_id) + ";");
      line("    g.multicast = " + std::string(t->gen.multicast ? "1" : "0") +
           ";");
      line("    g.group = " +
           std::to_string(t->gen.group.empty() ? -1
                                               : group_slot(t->gen.group)) +
           ";");
      line("    g.nargs = " + std::to_string(nargs) + ";");
      line("    g.delay_ns = " + p + "delay;");
      line("    g.location = " + p + "loc;");
      for (std::size_t i = 0; i < nargs; ++i) {
        line("    g.args[" + std::to_string(i) + "] = " +
             masked(p + "a" + std::to_string(i), ev.params[i].second) + ";");
      }
      line("  }");
    }
    if (sites_.tables.empty()) line("  (void)m; (void)out;");
    line("  return n;");
    line("}");
    blank();
  }

  void entry_points() {
    const int gens = static_cast<int>(sites_.tables.size());
    const int stages = static_cast<int>(pipeline_.stages.size());
    line("}  // namespace");
    blank();
    line("extern \"C\" u32 lucid_native_abi_version() { return " +
         std::to_string(kAbiVersion) + "; }");
    line("extern \"C\" i32 lucid_native_max_gens() { return " +
         std::to_string(gens) + "; }");
    blank();
    line("// Batch mode: per-packet straight-line execution with one shared");
    line("// Ctx — the pipeline state stays in registers instead of round-");
    line("// tripping a scratch slab between stage loops (the event loop's");
    line("// drains are tens of packets, far below streaming sizes where a");
    line("// stage-major walk could pay off). Per-array access order is");
    line("// packet order either way: each register array is pinned to one");
    line("// stage, and packets run in order.");
    line("extern \"C\" void lucid_native_run_batch(i64* const* R, "
         "const PacketIn* in, i32 n, GenOut* out, i32* gen_counts) {");
    line("  Ctx m;");
    line("  for (i32 i = 0; i < n; ++i) {");
    line("    lucid_load(m, in[i]);");
    for (int s = 0; s < stages; ++s) {
      line("    lucid_stage_" + std::to_string(s) + "(m, R);");
    }
    line("    gen_counts[i] = lucid_flush(m, out + (i64)i * " +
         std::to_string(std::max(gens, 1)) + ");");
    line("  }");
    line("}");
  }

  const ir::ProgramIR& ir_;
  const opt::Pipeline& pipeline_;
  std::string_view name_;
  std::string out_;
  int loc_ = 0;
  const std::map<std::string, int> vars_;  // ctx fields (widths unused)
  const opt::GenerateSites sites_;
};

}  // namespace

EmittedModule emit_source(const Compilation& comp,
                          std::string_view program_name) {
  Emitter e(comp.ir(), comp.pipeline(), program_name);
  return e.run();
}

}  // namespace lucid::native
