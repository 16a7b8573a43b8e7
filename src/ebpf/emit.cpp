#include "ebpf/emit.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "opt/emit_walk.hpp"
#include "support/linewriter.hpp"
#include "support/strings.hpp"

namespace lucid::ebpf {

using ir::AtomicTable;
using ir::MemKind;
using ir::Operand;
using ir::TableKind;

std::string_view category_name(LineCategory c) {
  switch (c) {
    case LineCategory::Header: return "headers";
    case LineCategory::Map: return "maps";
    case LineCategory::Helper: return "helpers";
    case LineCategory::Parser: return "parsers";
    case LineCategory::Handler: return "handlers";
    case LineCategory::Control: return "control";
    case LineCategory::Other: return "other";
  }
  return "?";
}

namespace {

using LineWriter = CategoryLineWriter<LineCategory>;

/// C scalar type for a ctx (metadata) field: word-sized for ALU simplicity.
std::string ctx_ty(int width) { return width > 32 ? "__u64" : "__u32"; }

/// C scalar type for a packed wire-format field: exact-size.
std::string wire_ty(int width) {
  if (width <= 8) return "__u8";
  if (width <= 16) return "__u16";
  if (width <= 32) return "__u32";
  return "__u64";
}

std::string ctx_ref(const std::string& var) {
  return "m." + opt::sanitize(var);
}

/// Wire -> host conversion of a packed field expression, by field width.
std::string ntoh(const std::string& expr, int width) {
  if (width <= 8) return expr;
  if (width <= 16) return "lucid_ntohs(" + expr + ")";
  if (width <= 32) return "lucid_ntohl(" + expr + ")";
  return "lucid_ntohll(" + expr + ")";
}

/// Host -> wire conversion, by field width.
std::string hton(const std::string& expr, int width) {
  if (width <= 8) return expr;
  if (width <= 16) return "lucid_htons(" + expr + ")";
  if (width <= 32) return "lucid_htonl(" + expr + ")";
  return "lucid_htonll(" + expr + ")";
}

std::string operand_str(const Operand& o) {
  switch (o.kind) {
    case Operand::Kind::None: return "0";
    case Operand::Kind::Var: return ctx_ref(o.var);
    case Operand::Kind::Const:
      return std::to_string(o.value);
  }
  return "0";
}

/// Memop operand inside a map-update block: the canonical "cell" parameter
/// resolves to the local single-read value, anything else to the call-site
/// argument.
std::string memop_operand(const Operand& o, const Operand& call_arg,
                          const std::string& cell_name) {
  if (o.is_const()) return std::to_string(o.value);
  if (o.var == "cell") return cell_name;
  return operand_str(call_arg);
}

std::string memop_expr(const Operand& lhs,
                       const std::optional<frontend::BinOp>& op,
                       const Operand& rhs, const Operand& call_arg,
                       const std::string& cell_name) {
  std::string s = memop_operand(lhs, call_arg, cell_name);
  if (op) {
    s += " " + std::string(frontend::binop_name(*op)) + " " +
         memop_operand(rhs, call_arg, cell_name);
  }
  return s;
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

  XdpProgram run() {
    preamble();
    maps();
    headers();
    ctx_struct();
    crc_helper();
    recirc_program();
    main_program();
    license();
    XdpProgram p;
    p.text = w_.text();
    p.loc_by_category = w_.counts();
    return p;
  }

 private:
  // ---- sections -----------------------------------------------------------

  void preamble() {
    w_.line(LineCategory::Other,
            "// " + std::string(name_) +
                " — generated by the Lucid compiler (eBPF/XDP backend)");
    w_.line(LineCategory::Other,
            "// Self-contained: compile with `clang -O2 -target bpf -c`; no "
            "kernel headers needed.");
    w_.blank();
    w_.line(LineCategory::Other, "typedef unsigned char __u8;");
    w_.line(LineCategory::Other, "typedef unsigned short __u16;");
    w_.line(LineCategory::Other, "typedef unsigned int __u32;");
    w_.line(LineCategory::Other, "typedef unsigned long long __u64;");
    w_.blank();
    w_.line(LineCategory::Other,
            "#define SEC(name) __attribute__((section(name), used))");
    w_.line(LineCategory::Other,
            "#define __always_inline inline __attribute__((always_inline))");
    w_.line(LineCategory::Other,
            "#define LUCID_MASK(w) ((__u32)0xffffffffu >> (32 - (w)))");
    w_.blank();
    w_.line(LineCategory::Other, "// Minimal XDP ABI (linux/bpf.h subset).");
    w_.line(LineCategory::Other, "struct xdp_md {");
    w_.line(LineCategory::Other, "    __u32 data;");
    w_.line(LineCategory::Other, "    __u32 data_end;");
    w_.line(LineCategory::Other, "    __u32 data_meta;");
    w_.line(LineCategory::Other, "    __u32 ingress_ifindex;");
    w_.line(LineCategory::Other, "    __u32 rx_queue_index;");
    w_.line(LineCategory::Other, "    __u32 egress_ifindex;");
    w_.line(LineCategory::Other, "};");
    w_.blank();
    w_.line(LineCategory::Other, "enum xdp_action {");
    w_.line(LineCategory::Other, "    XDP_ABORTED = 0,");
    w_.line(LineCategory::Other, "    XDP_DROP = 1,");
    w_.line(LineCategory::Other, "    XDP_PASS = 2,");
    w_.line(LineCategory::Other, "    XDP_TX = 3,");
    w_.line(LineCategory::Other, "    XDP_REDIRECT = 4,");
    w_.line(LineCategory::Other, "};");
    w_.blank();
    w_.line(LineCategory::Other, "#define BPF_MAP_TYPE_ARRAY 2");
    w_.line(LineCategory::Other, "#define BPF_MAP_TYPE_PROG_ARRAY 3");
    w_.line(LineCategory::Other, "struct bpf_map_def {");
    w_.line(LineCategory::Other, "    __u32 type;");
    w_.line(LineCategory::Other, "    __u32 key_size;");
    w_.line(LineCategory::Other, "    __u32 value_size;");
    w_.line(LineCategory::Other, "    __u32 max_entries;");
    w_.line(LineCategory::Other, "    __u32 map_flags;");
    w_.line(LineCategory::Other, "};");
    w_.blank();
    w_.line(LineCategory::Other,
            "// BPF helper stubs, resolved by the loader to helper ids.");
    w_.line(LineCategory::Other,
            "static void *(*bpf_map_lookup_elem)(void *map, const void *key) "
            "= (void *)1;");
    w_.line(LineCategory::Other,
            "static __u64 (*bpf_ktime_get_ns)(void) = (void *)5;");
    w_.line(LineCategory::Other,
            "static long (*bpf_tail_call)(void *ctx, void *map, __u32 index) "
            "= (void *)12;");
    w_.line(LineCategory::Other,
            "static long (*bpf_xdp_adjust_tail)(void *ctx, long delta) = "
            "(void *)65;");
    w_.blank();
    w_.line(LineCategory::Other, "#define ETHERTYPE_LUCID 0x0666");
    w_.line(LineCategory::Other,
            "// Multi-byte wire fields are network byte order, matching the "
            "P4 target.");
    w_.line(LineCategory::Other,
            "#if __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__");
    w_.line(LineCategory::Other,
            "#define lucid_htons(x) __builtin_bswap16(x)");
    w_.line(LineCategory::Other,
            "#define lucid_htonl(x) __builtin_bswap32(x)");
    w_.line(LineCategory::Other,
            "#define lucid_htonll(x) __builtin_bswap64(x)");
    w_.line(LineCategory::Other, "#else");
    w_.line(LineCategory::Other, "#define lucid_htons(x) (x)");
    w_.line(LineCategory::Other, "#define lucid_htonl(x) (x)");
    w_.line(LineCategory::Other, "#define lucid_htonll(x) (x)");
    w_.line(LineCategory::Other, "#endif");
    w_.line(LineCategory::Other, "#define lucid_ntohs(x) lucid_htons(x)");
    w_.line(LineCategory::Other, "#define lucid_ntohl(x) lucid_htonl(x)");
    w_.line(LineCategory::Other, "#define lucid_ntohll(x) lucid_htonll(x)");
    w_.blank();
    w_.line(LineCategory::Other,
            "// This switch's identity; patched per deployment by the "
            "loader.");
    w_.line(LineCategory::Other, "#define LUCID_SELF_ID 1");
    w_.blank();
  }

  void maps() {
    w_.line(LineCategory::Map,
            "// Register arrays: one preallocated BPF array map per Lucid "
            "Array<<w>>(n).");
    for (const auto& arr : ir_.arrays) {
      const int value_size = arr.width > 32 ? 8 : 4;
      w_.line(LineCategory::Map,
              "struct bpf_map_def SEC(\"maps\") reg_" + arr.name + " = {");
      w_.line(LineCategory::Map, "    .type = BPF_MAP_TYPE_ARRAY,");
      w_.line(LineCategory::Map, "    .key_size = 4,");
      w_.line(LineCategory::Map,
              "    .value_size = " + std::to_string(value_size) + ",");
      w_.line(LineCategory::Map,
              "    .max_entries = " + std::to_string(arr.size) + ",");
      w_.line(LineCategory::Map, "};");
    }
    w_.blank();
    w_.line(LineCategory::Map,
            "// Recirculation prog array: generate re-enters the pipeline "
            "via bpf_tail_call.");
    w_.line(LineCategory::Map, "enum {");
    w_.line(LineCategory::Map, "    LUCID_PROG_MAIN = 0,");
    w_.line(LineCategory::Map, "    LUCID_PROG_RECIRC = 1,");
    w_.line(LineCategory::Map, "};");
    w_.line(LineCategory::Map,
            "struct bpf_map_def SEC(\"maps\") lucid_progs = {");
    w_.line(LineCategory::Map, "    .type = BPF_MAP_TYPE_PROG_ARRAY,");
    w_.line(LineCategory::Map, "    .key_size = 4,");
    w_.line(LineCategory::Map, "    .value_size = 4,");
    w_.line(LineCategory::Map, "    .max_entries = 2,");
    w_.line(LineCategory::Map, "};");
    w_.blank();
  }

  void headers() {
    w_.line(LineCategory::Header,
            "// Event wire format — mirrors the P4 backend's headers.");
    w_.line(LineCategory::Header, "struct ethernet_h {");
    w_.line(LineCategory::Header, "    __u8 dst_addr[6];");
    w_.line(LineCategory::Header, "    __u8 src_addr[6];");
    w_.line(LineCategory::Header, "    __u16 ether_type;");
    w_.line(LineCategory::Header, "} __attribute__((packed));");
    w_.blank();
    w_.line(LineCategory::Header, "struct lucid_event_h {");
    w_.line(LineCategory::Header, "    __u16 event_id;");
    w_.line(LineCategory::Header, "    __u8 mcast_flag;");
    w_.line(LineCategory::Header, "    __u32 delay_ns;");
    w_.line(LineCategory::Header, "    __u32 location;");
    w_.line(LineCategory::Header, "} __attribute__((packed));");
    w_.blank();
    for (const auto& ev : ir_.events) {
      w_.line(LineCategory::Header, "struct ev_" + ev.name + "_h {");
      for (const auto& [pname, pwidth] : ev.params) {
        w_.line(LineCategory::Header,
                "    " + wire_ty(pwidth) + " " + pname + ";");
      }
      if (ev.params.empty()) {
        w_.line(LineCategory::Header, "    __u8 pad;");
      }
      w_.line(LineCategory::Header, "} __attribute__((packed));");
      w_.blank();
    }
  }

  void ctx_struct() {
    w_.line(LineCategory::Other,
            "// Handler locals + event params (the P4 backend's ig_md).");
    w_.line(LineCategory::Other, "struct lucid_ctx {");
    for (const auto& [name, width] : vars_) {
      w_.line(LineCategory::Other,
              "    " + ctx_ty(width) + " " + opt::sanitize(name) + ";");
    }
    w_.line(LineCategory::Other, "    __u32 ev_id;");
    // Per-generate-site staging: XDP cannot set headers valid mid-pipeline
    // the way Tofino does, so generated events stage their fields here and
    // the end-of-pipeline serializer rewrites the packet.
    for (std::size_t site = 0; site < sites_.tables.size(); ++site) {
      const AtomicTable* t = sites_.tables[site];
      const std::string p = "gen" + std::to_string(site) + "_";
      w_.line(LineCategory::Other, "    __u32 " + p + "fired;");
      w_.line(LineCategory::Other, "    __u32 " + p + "delay;");
      w_.line(LineCategory::Other, "    __u32 " + p + "loc;");
      const auto& ev =
          ir_.events[static_cast<std::size_t>(t->gen.event_id)];
      for (std::size_t i = 0;
           i < t->gen.args.size() && i < ev.params.size(); ++i) {
        w_.line(LineCategory::Other,
                "    " + ctx_ty(ev.params[i].second) + " " + p + "a" +
                    std::to_string(i) + ";");
      }
    }
    w_.line(LineCategory::Other, "};");
    w_.blank();
  }

  // NOTE: this is a deliberate divergence from the modeled hash. The
  // interpreter and the native engine share salted FNV-1a
  // (support/hash.hpp), which keeps their register state byte-identical
  // under differential tests. An XDP program, however, should hash the way
  // the adjacent hardware does — CRC32 is what NIC/switch hash units
  // implement — so this emitter inlines CRC32 and is excluded from
  // cross-engine state-equality tests.
  void crc_helper() {
    w_.line(LineCategory::Helper,
            "// Hash builtin: inline CRC32 (one unrolled round per input "
            "word).");
    w_.line(LineCategory::Helper,
            "static __always_inline __u32 lucid_crc32_word(__u32 crc, __u32 "
            "word)");
    w_.line(LineCategory::Helper, "{");
    w_.line(LineCategory::Helper, "    crc ^= word;");
    w_.line(LineCategory::Helper, "#pragma unroll");
    w_.line(LineCategory::Helper, "    for (int i = 0; i < 32; i++)");
    w_.line(LineCategory::Helper,
            "        crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));");
    w_.line(LineCategory::Helper, "    return crc;");
    w_.line(LineCategory::Helper, "}");
    w_.blank();
  }

  void recirc_program() {
    w_.line(LineCategory::Control,
            "// Recirculation entry: the userspace delay queue re-injects "
            "matured");
    w_.line(LineCategory::Control,
            "// event packets here (fresh tail-call budget). Events still "
            "carrying a");
    w_.line(LineCategory::Control,
            "// delay go back up (the kernel has no pausable queue); "
            "immediate ones");
    w_.line(LineCategory::Control, "// re-enter the pipeline.");
    w_.line(LineCategory::Control, "SEC(\"xdp\")");
    w_.line(LineCategory::Control,
            "int lucid_xdp_recirc(struct xdp_md *ctx)");
    w_.line(LineCategory::Control, "{");
    w_.line(LineCategory::Control,
            "    void *data = (void *)(long)ctx->data;");
    w_.line(LineCategory::Control,
            "    void *data_end = (void *)(long)ctx->data_end;");
    w_.line(LineCategory::Control,
            "    struct ethernet_h *eth = data;");
    w_.line(LineCategory::Control,
            "    if ((void *)(eth + 1) > data_end)");
    w_.line(LineCategory::Control, "        return XDP_ABORTED;");
    w_.line(LineCategory::Control,
            "    struct lucid_event_h *ev = (void *)(eth + 1);");
    w_.line(LineCategory::Control,
            "    if ((void *)(ev + 1) > data_end)");
    w_.line(LineCategory::Control, "        return XDP_ABORTED;");
    w_.line(LineCategory::Control, "    if (ev->delay_ns > 0)");
    w_.line(LineCategory::Control,
            "        return XDP_PASS; // userspace delay queue");
    w_.line(LineCategory::Control,
            "    bpf_tail_call(ctx, &lucid_progs, LUCID_PROG_MAIN);");
    w_.line(LineCategory::Control,
            "    return XDP_ABORTED; // prog array not populated");
    w_.line(LineCategory::Control, "}");
    w_.blank();
  }

  // ---- table lowering ------------------------------------------------------

  void emit_memop_assign(const std::string& indent, const std::string& dst,
                         const ir::MemopInfo* mo, const Operand& call_arg,
                         const std::string& cell_name) {
    if (mo == nullptr) return;
    if (mo->has_condition) {
      w_.line(LineCategory::Handler,
              indent + "if (" +
                  memop_operand(mo->cond_lhs, call_arg, cell_name) + " " +
                  std::string(ir::cmp_name(mo->cond_op)) + " " +
                  memop_operand(mo->cond_rhs, call_arg, cell_name) + ")");
      w_.line(LineCategory::Handler,
              indent + "    " + dst + " = " +
                  memop_expr(mo->then_lhs, mo->then_op, mo->then_rhs,
                             call_arg, cell_name) +
                  ";");
      w_.line(LineCategory::Handler, indent + "else");
      w_.line(LineCategory::Handler,
              indent + "    " + dst + " = " +
                  memop_expr(mo->else_lhs, mo->else_op, mo->else_rhs,
                             call_arg, cell_name) +
                  ";");
    } else {
      w_.line(LineCategory::Handler,
              indent + dst + " = " +
                  memop_expr(mo->then_lhs, mo->then_op, mo->then_rhs,
                             call_arg, cell_name) +
                  ";");
    }
  }

  void emit_mem(const AtomicTable& t, const std::string& indent) {
    const ir::ArrayInfo* arr = ir_.find_array(t.mem.array);
    const int width = arr ? arr->width : 32;
    const std::string cell_ty = ctx_ty(width);
    // Sub-word cells wrap at 2^w in the P4 RegisterAction (bit<w>) and the
    // interpreter; mirror that by masking everything computed from a memop.
    // Plain reads need no mask: stored cells are always in range.
    const std::string mask =
        width < 32 ? " & LUCID_MASK(" + std::to_string(width) + ")" : "";
    const ir::MemopInfo* getm =
        t.mem.get_memop.empty() ? nullptr : ir_.find_memop(t.mem.get_memop);
    const ir::MemopInfo* setm =
        t.mem.set_memop.empty() ? nullptr : ir_.find_memop(t.mem.set_memop);

    w_.line(LineCategory::Handler, indent + "{");
    const std::string in = indent + "    ";
    w_.line(LineCategory::Handler,
            in + "__u32 key = " + operand_str(t.mem.index) + ";");
    w_.line(LineCategory::Handler,
            in + cell_ty + " *cellp = bpf_map_lookup_elem(&reg_" +
                t.mem.array + ", &key);");
    w_.line(LineCategory::Handler, in + "if (cellp) {");
    const std::string body = in + "    ";
    const auto read_cell = [&] {
      w_.line(LineCategory::Handler,
              body + cell_ty + " cell = *cellp; // single read");
    };

    const auto mask_assign = [&](const std::string& dst) {
      if (!mask.empty()) {
        w_.line(LineCategory::Handler,
                body + dst + " = " + dst + mask + ";");
      }
    };
    switch (t.mem.kind) {
      case MemKind::Get:
        read_cell();
        if (getm == nullptr) {
          w_.line(LineCategory::Handler,
                  body + ctx_ref(t.mem.dst) + " = cell;");
        } else {
          emit_memop_assign(body, ctx_ref(t.mem.dst), getm, t.mem.get_arg,
                            "cell");
          mask_assign(ctx_ref(t.mem.dst));
        }
        break;
      case MemKind::Set:
        if (setm == nullptr) {
          w_.line(LineCategory::Handler,
                  body + "*cellp = " + operand_str(t.mem.set_value) + mask +
                      "; // single write");
        } else {
          read_cell();
          w_.line(LineCategory::Handler, body + cell_ty + " nc = cell;");
          emit_memop_assign(body, "nc", setm, t.mem.set_arg, "cell");
          w_.line(LineCategory::Handler,
                  body + "*cellp = nc" + mask + "; // single write");
        }
        break;
      case MemKind::Update:
        read_cell();
        // Parallel get+set: both memops read the pre-update value.
        w_.line(LineCategory::Handler, body + cell_ty + " nc = cell;");
        emit_memop_assign(body, "nc", setm, t.mem.set_arg, "cell");
        w_.line(LineCategory::Handler,
                body + "*cellp = nc" + mask + "; // single write");
        if (t.mem.dst.empty()) {
          // update with discarded result
        } else if (getm != nullptr) {
          emit_memop_assign(body, ctx_ref(t.mem.dst), getm, t.mem.get_arg,
                            "cell");
          mask_assign(ctx_ref(t.mem.dst));
        } else {
          w_.line(LineCategory::Handler,
                  body + ctx_ref(t.mem.dst) + " = cell;");
        }
        break;
    }
    w_.line(LineCategory::Handler, in + "}");
    w_.line(LineCategory::Handler, indent + "}");
  }

  void emit_table(const AtomicTable& t, const std::string& indent) {
    switch (t.kind) {
      case TableKind::Op: {
        const bool cmp = t.op.op && (frontend::binop_is_comparison(*t.op.op) ||
                                     frontend::binop_is_logical(*t.op.op));
        std::string rhs;
        if (t.op.op) {
          rhs = operand_str(t.op.lhs) + " " +
                std::string(frontend::binop_name(*t.op.op)) + " " +
                operand_str(t.op.rhs);
        } else {
          rhs = operand_str(t.op.lhs);
        }
        if (!cmp && t.op.width < 32) {
          rhs = "(" + rhs + ") & LUCID_MASK(" + std::to_string(t.op.width) +
                ")";
        } else if (cmp) {
          rhs = "(" + rhs + ") ? 1 : 0";
        }
        w_.line(LineCategory::Handler,
                indent + ctx_ref(t.op.dst) + " = " + rhs + ";");
        break;
      }
      case TableKind::Mem:
        emit_mem(t, indent);
        break;
      case TableKind::Hash: {
        // crc32(seed, args...) — one unrolled round per 32-bit word; 64-bit
        // args fold as two words so the upper half is never truncated away.
        std::string expr =
            "0xffffffffu ^ " + std::to_string(t.hash.seed) + "u";
        for (const auto& a : t.hash.args) {
          if (a.width > 32) {
            expr = "lucid_crc32_word(" + expr + ", (__u32)" +
                   operand_str(a) + ")";
            expr = "lucid_crc32_word(" + expr + ", (__u32)(" +
                   operand_str(a) + " >> 32))";
          } else {
            expr = "lucid_crc32_word(" + expr + ", " + operand_str(a) + ")";
          }
        }
        expr = "(" + expr + ") ^ 0xffffffffu";
        if (t.hash.mask >= 0) {
          expr = "(" + expr + ") & " + std::to_string(t.hash.mask) + "u";
        }
        w_.line(LineCategory::Handler,
                indent + ctx_ref(t.hash.dst) + " = " + expr + ";");
        break;
      }
      case TableKind::Generate: {
        const int site = sites_.site_of(&t);
        const std::string p = "m.gen" + std::to_string(site) + "_";
        w_.line(LineCategory::Handler, indent + p + "fired = 1;");
        w_.line(LineCategory::Handler,
                indent + p + "delay = " + operand_str(t.gen.delay) + ";");
        w_.line(LineCategory::Handler,
                indent + p + "loc = " +
                    (t.gen.location.is_none() ? "m.__self"
                                              : operand_str(t.gen.location)) +
                    ";");
        const auto& ev =
            ir_.events[static_cast<std::size_t>(t.gen.event_id)];
        for (std::size_t i = 0;
             i < t.gen.args.size() && i < ev.params.size(); ++i) {
          w_.line(LineCategory::Handler,
                  indent + p + "a" + std::to_string(i) + " = " +
                      operand_str(t.gen.args[i]) + ";");
        }
        break;
      }
      case TableKind::Branch:
        // Dissolved by branch inlining; nothing to lower.
        break;
    }
  }

  void emit_stages() {
    int sidx = 0;
    for (const auto& stage : pipeline_.stages) {
      w_.line(LineCategory::Handler,
              "    // ---- stage " + std::to_string(sidx) + " ----");
      for (const auto& mt : stage.tables) {
        for (const auto* member : mt.members) {
          const AtomicTable& t = *member;
          if (t.kind == TableKind::Branch) continue;
          w_.line(LineCategory::Handler,
                  "    if (" + opt::table_condition(ir_, t) + ") { // " +
                      t.handler + ": " +
                      std::string(ir::table_kind_name(t.kind)));
          emit_table(t, "        ");
          w_.line(LineCategory::Handler, "    }");
        }
      }
      ++sidx;
    }
  }

  void emit_dispatcher() {
    w_.line(LineCategory::Parser,
            "    // Dispatcher: copy event params into the ctx struct.");
    w_.line(LineCategory::Parser, "    switch (m.ev_id) {");
    for (const auto& ev : ir_.events) {
      w_.line(LineCategory::Parser,
              "    case " + std::to_string(ev.event_id) + ": { // " +
                  ev.name);
      if (!ev.params.empty()) {
        w_.line(LineCategory::Parser,
                "        struct ev_" + ev.name +
                    "_h *p = (void *)(ev + 1);");
        w_.line(LineCategory::Parser,
                "        if ((void *)(p + 1) > data_end)");
        w_.line(LineCategory::Parser, "            return XDP_DROP;");
        for (const auto& [pname, pwidth] : ev.params) {
          w_.line(LineCategory::Parser,
                  "        " + ctx_ref(pname) + " = " +
                      ntoh("p->" + pname, pwidth) + ";");
        }
      }
      w_.line(LineCategory::Parser, "        break;");
      w_.line(LineCategory::Parser, "    }");
    }
    w_.line(LineCategory::Parser, "    default:");
    w_.line(LineCategory::Parser,
            "        return XDP_PASS; // unknown event: forward untouched");
    w_.line(LineCategory::Parser, "    }");
    w_.blank();
  }

  void emit_serializer() {
    w_.line(LineCategory::Control,
            "    // Serializer: recirculate the first generated event "
            "(XDP cannot");
    w_.line(LineCategory::Control,
            "    // clone; additional events would need an AF_XDP or devmap "
            "fan-out).");
    for (std::size_t site = 0; site < sites_.tables.size(); ++site) {
      const AtomicTable* t = sites_.tables[site];
      const std::string p = "m.gen" + std::to_string(site) + "_";
      const auto& ev =
          ir_.events[static_cast<std::size_t>(t->gen.event_id)];
      const std::size_t nargs =
          std::min(t->gen.args.size(), ev.params.size());
      w_.line(LineCategory::Control, "    if (" + p + "fired) {");
      if (nargs > 0) {
        // The packet arrived sized for the *triggering* event; grow it when
        // the generated event's payload needs more room. adjust_tail
        // invalidates every packet pointer, so re-derive and re-check.
        w_.line(LineCategory::Control,
                "        long need = (long)(sizeof(struct ethernet_h) + "
                "sizeof(struct lucid_event_h) + sizeof(struct ev_" +
                    ev.name + "_h));");
        w_.line(LineCategory::Control,
                "        long delta = need - (long)(data_end - data);");
        w_.line(LineCategory::Control, "        if (delta > 0) {");
        w_.line(LineCategory::Control,
                "            if (bpf_xdp_adjust_tail(ctx, delta))");
        w_.line(LineCategory::Control, "                return XDP_ABORTED;");
        w_.line(LineCategory::Control,
                "            data = (void *)(long)ctx->data;");
        w_.line(LineCategory::Control,
                "            data_end = (void *)(long)ctx->data_end;");
        w_.line(LineCategory::Control, "            eth = data;");
        w_.line(LineCategory::Control,
                "            if ((void *)(eth + 1) > data_end)");
        w_.line(LineCategory::Control, "                return XDP_ABORTED;");
        w_.line(LineCategory::Control,
                "            ev = (void *)(eth + 1);");
        w_.line(LineCategory::Control,
                "            if ((void *)(ev + 1) > data_end)");
        w_.line(LineCategory::Control, "                return XDP_ABORTED;");
        w_.line(LineCategory::Control, "        }");
      }
      w_.line(LineCategory::Control,
              "        ev->event_id = lucid_htons(" +
                  std::to_string(t->gen.event_id) + "); // " + ev.name);
      w_.line(LineCategory::Control,
              "        ev->mcast_flag = " +
                  std::string(t->gen.multicast ? "1" : "0") + ";");
      w_.line(LineCategory::Control,
              "        ev->delay_ns = lucid_htonl(" + p + "delay);");
      w_.line(LineCategory::Control,
              "        ev->location = lucid_htonl(" + p + "loc);");
      if (nargs > 0) {
        w_.line(LineCategory::Control,
                "        struct ev_" + ev.name +
                    "_h *out = (void *)(ev + 1);");
        w_.line(LineCategory::Control,
                "        if ((void *)(out + 1) > data_end)");
        w_.line(LineCategory::Control, "            return XDP_ABORTED;");
        for (std::size_t i = 0; i < nargs; ++i) {
          const int pwidth = ev.params[i].second;
          w_.line(LineCategory::Control,
                  "        out->" + ev.params[i].first + " = " +
                      hton("(" + wire_ty(pwidth) + ")" + p + "a" +
                               std::to_string(i),
                           pwidth) +
                      ";");
        }
      }
      // One tail call per generate hop (the checker's depth model counts
      // exactly these): immediate events re-enter the pipeline directly,
      // delayed events go up to the userspace delay queue, which re-injects
      // through lucid_xdp_recirc with a fresh tail-call budget.
      w_.line(LineCategory::Control, "        if (" + p + "delay > 0)");
      w_.line(LineCategory::Control,
              "            return XDP_PASS; // userspace delay queue");
      w_.line(LineCategory::Control,
              "        bpf_tail_call(ctx, &lucid_progs, "
              "LUCID_PROG_MAIN);");
      w_.line(LineCategory::Control,
              "        return XDP_ABORTED; // prog array not populated");
      w_.line(LineCategory::Control, "    }");
    }
    w_.line(LineCategory::Control, "    return XDP_PASS;");
  }

  void main_program() {
    w_.line(LineCategory::Control, "SEC(\"xdp\")");
    w_.line(LineCategory::Control, "int lucid_xdp_main(struct xdp_md *ctx)");
    w_.line(LineCategory::Control, "{");
    w_.line(LineCategory::Parser,
            "    void *data = (void *)(long)ctx->data;");
    w_.line(LineCategory::Parser,
            "    void *data_end = (void *)(long)ctx->data_end;");
    w_.blank();
    w_.line(LineCategory::Parser, "    struct ethernet_h *eth = data;");
    w_.line(LineCategory::Parser, "    if ((void *)(eth + 1) > data_end)");
    w_.line(LineCategory::Parser, "        return XDP_PASS;");
    w_.line(LineCategory::Parser,
            "    if (eth->ether_type != lucid_htons(ETHERTYPE_LUCID))");
    w_.line(LineCategory::Parser,
            "        return XDP_PASS; // not a Lucid event packet");
    w_.line(LineCategory::Parser,
            "    struct lucid_event_h *ev = (void *)(eth + 1);");
    w_.line(LineCategory::Parser, "    if ((void *)(ev + 1) > data_end)");
    w_.line(LineCategory::Parser, "        return XDP_PASS;");
    w_.blank();
    w_.line(LineCategory::Parser, "    struct lucid_ctx m = {};");
    w_.line(LineCategory::Parser, "    m.__self = LUCID_SELF_ID;");
    w_.line(LineCategory::Parser,
            "    m.__ts = (__u32)bpf_ktime_get_ns();");
    w_.line(LineCategory::Parser,
            "    m.ev_id = lucid_ntohs(ev->event_id);");
    w_.blank();
    emit_dispatcher();
    emit_stages();
    w_.blank();
    emit_serializer();
    w_.line(LineCategory::Control, "}");
    w_.blank();
  }

  void license() {
    w_.line(LineCategory::Other,
            "SEC(\"license\") char _license[] = \"GPL\";");
  }

  const ir::ProgramIR& ir_;
  const opt::Pipeline& pipeline_;
  std::string_view name_;
  LineWriter w_;
  const std::map<std::string, int> vars_;  // ctx fields: name -> width
  const opt::GenerateSites sites_;
};

}  // namespace

XdpProgram emit(const Compilation& comp, std::string_view program_name) {
  Emitter e(comp.ir(), comp.pipeline(), program_name);
  return e.run();
}

// ---------------------------------------------------------------------------
// Backend adapter
// ---------------------------------------------------------------------------

namespace {

class EbpfBackend final : public Backend {
 public:
  explicit EbpfBackend(EbpfLimits limits) : limits_(limits) {}

  [[nodiscard]] std::string name() const override { return "ebpf"; }
  [[nodiscard]] std::string description() const override {
    return "self-contained eBPF/XDP C code generation";
  }
  [[nodiscard]] Stage required_stage() const override { return Stage::Layout; }

  [[nodiscard]] BackendArtifact emit(Compilation& comp) override {
    BackendArtifact artifact;
    artifact.backend = name();
    if (!comp.pipeline().feasible) {
      comp.diags().error({}, "ebpf-layout-infeasible",
                         "cannot emit eBPF: pipeline layout is infeasible");
      return artifact;
    }
    // Refuse to emit a program the kernel verifier would reject; the checker
    // leaves the exact limit violations as diagnostics.
    const CheckReport report =
        check(comp.ir(), comp.pipeline(), limits_, comp.diags());
    if (!report.ok) return artifact;

    const XdpProgram p = ebpf::emit(comp, comp.options().program_name);
    artifact.text = p.text;
    for (const auto& [cat, loc] : p.loc_by_category) {
      artifact.metrics["loc_" + std::string(category_name(cat))] =
          static_cast<std::int64_t>(loc);
    }
    artifact.metrics["loc_total"] = static_cast<std::int64_t>(p.total_loc());
    artifact.metrics["est_insns"] = report.program_insns;
    artifact.metrics["maps"] = report.map_count;
    artifact.metrics["map_bytes"] = report.map_bytes;
    artifact.metrics["tail_call_depth"] = report.tail_call_depth;
    artifact.ok = true;
    return artifact;
  }

 private:
  EbpfLimits limits_;
};

}  // namespace

bool register_backend(BackendRegistry& registry, EbpfLimits limits) {
  return registry.add(std::make_unique<EbpfBackend>(limits));
}

}  // namespace lucid::ebpf
