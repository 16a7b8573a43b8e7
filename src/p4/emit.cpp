#include "p4/emit.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "opt/emit_walk.hpp"
#include "support/linewriter.hpp"
#include "support/strings.hpp"

namespace lucid::p4 {

using ir::AtomicTable;
using ir::MemKind;
using ir::Operand;
using ir::TableKind;

std::string_view category_name(LineCategory c) {
  switch (c) {
    case LineCategory::Header: return "headers";
    case LineCategory::Parser: return "parsers";
    case LineCategory::Action: return "actions";
    case LineCategory::RegisterAction: return "register-actions";
    case LineCategory::Table: return "tables";
    case LineCategory::Control: return "control";
    case LineCategory::Other: return "other";
  }
  return "?";
}

namespace {

using LineWriter = CategoryLineWriter<LineCategory>;

std::string bit_ty(int width) {
  return "bit<" + std::to_string(std::max(width, 1)) + ">";
}

std::string md(const std::string& var) { return "ig_md." + var; }

std::string operand_str(const Operand& o) {
  switch (o.kind) {
    case Operand::Kind::None: return "0";
    case Operand::Kind::Var: return md(o.var);
    case Operand::Kind::Const:
      return std::to_string(o.value);
  }
  return "0";
}

bool is_comparison(frontend::BinOp op) {
  return frontend::binop_is_comparison(op) || frontend::binop_is_logical(op);
}

/// Memop operand inside a RegisterAction body: `cell` stays symbolic, `arg`
/// is the call-site operand.
std::string memop_operand(const Operand& o, const Operand& call_arg) {
  if (o.is_const()) return std::to_string(o.value);
  if (o.var == "cell") return "cell";
  return operand_str(call_arg);
}

std::string memop_expr(const Operand& lhs,
                       const std::optional<frontend::BinOp>& op,
                       const Operand& rhs, const Operand& call_arg) {
  std::string s = memop_operand(lhs, call_arg);
  if (op) {
    s += " " + std::string(frontend::binop_name(*op)) + " " +
         memop_operand(rhs, call_arg);
  }
  return s;
}

/// Key for deduplicating RegisterActions: identical access + memops + args.
std::string mem_signature(const ir::MemStmt& m) {
  std::ostringstream os;
  os << m.array << "/" << static_cast<int>(m.kind) << "/" << m.get_memop
     << "/" << m.get_arg.str() << "/" << m.set_memop << "/"
     << m.set_arg.str() << "/" << m.set_value.str();
  return os.str();
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

  P4Program run() {
    preamble();
    headers();
    metadata_struct();
    parser();
    ingress();
    egress_scheduler();
    deparser();
    pipeline_decl();
    P4Program p;
    p.text = w_.text();
    p.loc_by_category = w_.counts();
    return p;
  }

 private:
  // ---- sections -----------------------------------------------------------

  void preamble() {
    w_.line(LineCategory::Other, "// " + std::string(name_) +
                                     " — generated by the Lucid compiler");
    w_.line(LineCategory::Other, "#include <core.p4>");
    w_.line(LineCategory::Other, "#include <tna.p4>");
    w_.blank();
    w_.line(LineCategory::Other, "typedef bit<48> mac_addr_t;");
    w_.line(LineCategory::Other, "typedef bit<16> ether_type_t;");
    w_.line(LineCategory::Other,
            "const ether_type_t ETHERTYPE_LUCID = 0x666;");
    w_.blank();
  }

  void headers() {
    w_.line(LineCategory::Header, "header ethernet_h {");
    w_.line(LineCategory::Header, "    mac_addr_t dst_addr;");
    w_.line(LineCategory::Header, "    mac_addr_t src_addr;");
    w_.line(LineCategory::Header, "    ether_type_t ether_type;");
    w_.line(LineCategory::Header, "}");
    w_.blank();
    // The Lucid event metadata header: every event packet carries it.
    w_.line(LineCategory::Header, "header lucid_event_h {");
    w_.line(LineCategory::Header, "    bit<16> event_id;");
    w_.line(LineCategory::Header, "    bit<8>  mcast_flag;");
    w_.line(LineCategory::Header, "    bit<32> delay_ns;");
    w_.line(LineCategory::Header, "    bit<32> location;");
    w_.line(LineCategory::Header, "}");
    w_.blank();
    for (const auto& ev : ir_.events) {
      w_.line(LineCategory::Header, "header ev_" + ev.name + "_h {");
      for (const auto& [pname, pwidth] : ev.params) {
        w_.line(LineCategory::Header,
                "    " + bit_ty(pwidth) + " " + pname + ";");
      }
      if (ev.params.empty()) {
        w_.line(LineCategory::Header, "    bit<8> pad;");
      }
      w_.line(LineCategory::Header, "}");
      w_.blank();
    }
    // Out-headers, one per generate site (the serializer strips all but one
    // per clone, section 3.2).
    w_.line(LineCategory::Header, "struct headers_t {");
    w_.line(LineCategory::Header, "    ethernet_h ethernet;");
    w_.line(LineCategory::Header, "    lucid_event_h event;");
    for (const auto& ev : ir_.events) {
      w_.line(LineCategory::Header,
              "    ev_" + ev.name + "_h ev_" + ev.name + ";");
    }
    for (std::size_t site = 0; site < sites_.tables.size(); ++site) {
      const std::string n = std::to_string(site);
      w_.line(LineCategory::Header, "    lucid_event_h gen_meta_" + n + ";");
      w_.line(LineCategory::Header,
              "    ev_" + sites_.tables[site]->gen.event + "_h gen_" + n + ";");
    }
    w_.line(LineCategory::Header, "}");
    w_.blank();
  }

  void metadata_struct() {
    w_.line(LineCategory::Other, "struct ig_metadata_t {");
    for (const auto& [name, width] : vars_) {
      w_.line(LineCategory::Other,
              "    " + bit_ty(width) + " " + opt::sanitize(name) + ";");
    }
    w_.line(LineCategory::Other, "    bit<16> ev_id;");
    w_.line(LineCategory::Other, "    bit<8>  gen_count;");
    w_.line(LineCategory::Other, "}");
    w_.blank();
  }

  void parser() {
    w_.line(LineCategory::Parser,
            "parser IngressParser(packet_in pkt, out headers_t hdr, out "
            "ig_metadata_t ig_md,");
    w_.line(LineCategory::Parser,
            "        out ingress_intrinsic_metadata_t ig_intr_md) {");
    w_.line(LineCategory::Parser, "    state start {");
    w_.line(LineCategory::Parser, "        pkt.extract(ig_intr_md);");
    w_.line(LineCategory::Parser,
            "        pkt.advance(PORT_METADATA_SIZE);");
    w_.line(LineCategory::Parser, "        transition parse_ethernet;");
    w_.line(LineCategory::Parser, "    }");
    w_.line(LineCategory::Parser, "    state parse_ethernet {");
    w_.line(LineCategory::Parser, "        pkt.extract(hdr.ethernet);");
    w_.line(LineCategory::Parser,
            "        transition select(hdr.ethernet.ether_type) {");
    w_.line(LineCategory::Parser,
            "            ETHERTYPE_LUCID : parse_event;");
    w_.line(LineCategory::Parser, "            default : accept;");
    w_.line(LineCategory::Parser, "        }");
    w_.line(LineCategory::Parser, "    }");
    w_.line(LineCategory::Parser, "    state parse_event {");
    w_.line(LineCategory::Parser, "        pkt.extract(hdr.event);");
    w_.line(LineCategory::Parser,
            "        transition select(hdr.event.event_id) {");
    for (const auto& ev : ir_.events) {
      w_.line(LineCategory::Parser,
              "            " + std::to_string(ev.event_id) + " : parse_ev_" +
                  ev.name + ";");
    }
    w_.line(LineCategory::Parser, "            default : accept;");
    w_.line(LineCategory::Parser, "        }");
    w_.line(LineCategory::Parser, "    }");
    for (const auto& ev : ir_.events) {
      w_.line(LineCategory::Parser, "    state parse_ev_" + ev.name + " {");
      w_.line(LineCategory::Parser,
              "        pkt.extract(hdr.ev_" + ev.name + ");");
      w_.line(LineCategory::Parser, "        transition accept;");
      w_.line(LineCategory::Parser, "    }");
    }
    w_.line(LineCategory::Parser, "}");
    w_.blank();
  }

  // ---- register actions -----------------------------------------------------

  void emit_register_decls() {
    for (const auto& arr : ir_.arrays) {
      w_.line(LineCategory::RegisterAction,
              "    Register<" + bit_ty(arr.width) + ", bit<32>>(" +
                  std::to_string(arr.size) + ") reg_" + arr.name + ";");
    }
    w_.blank();

    // One RegisterAction per distinct stateful access.
    for (const auto& stage : pipeline_.stages) {
      for (const auto& mt : stage.tables) {
        for (const auto* member : mt.members) {
          const AtomicTable& t = *member;
          if (t.kind != TableKind::Mem) continue;
          const std::string sig = mem_signature(t.mem);
          if (reg_actions_.count(sig)) continue;
          const std::string ra_name =
              "ra_" + t.mem.array + "_" +
              std::to_string(reg_actions_.size());
          reg_actions_[sig] = ra_name;
          emit_register_action(t.mem, ra_name);
        }
      }
    }
  }

  void emit_register_action(const ir::MemStmt& m, const std::string& name) {
    const ir::ArrayInfo* arr = ir_.find_array(m.array);
    const std::string cell = bit_ty(arr ? arr->width : 32);
    w_.line(LineCategory::RegisterAction,
            "    RegisterAction<" + cell + ", bit<32>, " + cell + ">(reg_" +
                m.array + ") " + name + " = {");
    w_.line(LineCategory::RegisterAction,
            "        void apply(inout " + cell + " cell, out " + cell +
                " rv) {");

    const ir::MemopInfo* getm =
        m.get_memop.empty() ? nullptr : ir_.find_memop(m.get_memop);
    const ir::MemopInfo* setm =
        m.set_memop.empty() ? nullptr : ir_.find_memop(m.set_memop);

    auto subst_cell = [](std::string text, const std::string& cell_name) {
      // The canonical memop operand is spelled "cell"; for Array.update the
      // read memop must see the pre-update value captured in `old`.
      if (cell_name == "cell") return text;
      std::size_t pos = 0;
      while ((pos = text.find("cell", pos)) != std::string::npos) {
        text.replace(pos, 4, cell_name);
        pos += cell_name.size();
      }
      return text;
    };
    auto emit_memop_assign = [&](const std::string& dst,
                                 const ir::MemopInfo* mo,
                                 const Operand& call_arg,
                                 const std::string& cell_name = "cell") {
      if (mo == nullptr) return;
      if (mo->has_condition) {
        w_.line(LineCategory::RegisterAction,
                "            if (" +
                    subst_cell(memop_operand(mo->cond_lhs, call_arg),
                               cell_name) +
                    " " + std::string(ir::cmp_name(mo->cond_op)) + " " +
                    subst_cell(memop_operand(mo->cond_rhs, call_arg),
                               cell_name) +
                    ") {");
        w_.line(LineCategory::RegisterAction,
                "                " + dst + " = " +
                    subst_cell(memop_expr(mo->then_lhs, mo->then_op,
                                          mo->then_rhs, call_arg),
                               cell_name) +
                    ";");
        w_.line(LineCategory::RegisterAction, "            } else {");
        w_.line(LineCategory::RegisterAction,
                "                " + dst + " = " +
                    subst_cell(memop_expr(mo->else_lhs, mo->else_op,
                                          mo->else_rhs, call_arg),
                               cell_name) +
                    ";");
        w_.line(LineCategory::RegisterAction, "            }");
      } else {
        w_.line(LineCategory::RegisterAction,
                "            " + dst + " = " +
                    subst_cell(memop_expr(mo->then_lhs, mo->then_op,
                                          mo->then_rhs, call_arg),
                               cell_name) +
                    ";");
      }
    };

    switch (m.kind) {
      case MemKind::Get:
        if (getm == nullptr) {
          w_.line(LineCategory::RegisterAction, "            rv = cell;");
        } else {
          emit_memop_assign("rv", getm, m.get_arg);
        }
        break;
      case MemKind::Set:
        if (setm == nullptr) {
          w_.line(LineCategory::RegisterAction,
                  "            cell = " + operand_str(m.set_value) + ";");
        } else {
          emit_memop_assign("cell", setm, m.set_arg);
        }
        break;
      case MemKind::Update:
        // Parallel get+set: both memops read the pre-update value.
        w_.line(LineCategory::RegisterAction,
                "            " + cell + " old = cell;");
        emit_memop_assign("cell", setm, m.set_arg, "old");
        if (getm != nullptr) {
          emit_memop_assign("rv", getm, m.get_arg, "old");
        } else {
          w_.line(LineCategory::RegisterAction, "            rv = old;");
        }
        break;
    }
    w_.line(LineCategory::RegisterAction, "        };");
    w_.line(LineCategory::RegisterAction, "    };");
    w_.blank();
  }

  // ---- actions & tables ------------------------------------------------------

  void emit_member_op(const AtomicTable& t) {
    switch (t.kind) {
      case TableKind::Op: {
        std::string rhs;
        if (t.op.op && is_comparison(*t.op.op)) {
          rhs = "(" + bit_ty(t.op.width) + ")(" + operand_str(t.op.lhs) +
                " " + std::string(frontend::binop_name(*t.op.op)) + " " +
                operand_str(t.op.rhs) + ")";
        } else if (t.op.op) {
          rhs = operand_str(t.op.lhs) + " " +
                std::string(frontend::binop_name(*t.op.op)) + " " +
                operand_str(t.op.rhs);
        } else {
          rhs = operand_str(t.op.lhs);
        }
        w_.line(LineCategory::Action,
                "        " + md(opt::sanitize(t.op.dst)) + " = " + rhs + ";");
        break;
      }
      case TableKind::Mem: {
        const std::string& ra = reg_actions_.at(mem_signature(t.mem));
        if (t.mem.dst.empty()) {
          w_.line(LineCategory::Action,
                  "        " + ra + ".execute(" + operand_str(t.mem.index) +
                      ");");
        } else {
          w_.line(LineCategory::Action,
                  "        " + md(opt::sanitize(t.mem.dst)) + " = " + ra +
                      ".execute(" + operand_str(t.mem.index) + ");");
        }
        break;
      }
      case TableKind::Hash: {
        std::string args;
        for (std::size_t i = 0; i < t.hash.args.size(); ++i) {
          if (i > 0) args += ", ";
          args += operand_str(t.hash.args[i]);
        }
        w_.line(LineCategory::Action,
                "        " + md(opt::sanitize(t.hash.dst)) + " = hash_unit_" +
                    std::to_string(t.hash.seed) + ".get({" + args + "});");
        break;
      }
      case TableKind::Generate: {
        const int site = sites_.site_of(&t);
        const std::string h = "hdr.gen_" + std::to_string(site);
        const std::string hm = "hdr.gen_meta_" + std::to_string(site);
        w_.line(LineCategory::Action, "        " + hm + ".setValid();");
        w_.line(LineCategory::Action, "        " + h + ".setValid();");
        w_.line(LineCategory::Action,
                "        " + hm + ".event_id = " +
                    std::to_string(t.gen.event_id) + ";");
        w_.line(LineCategory::Action,
                "        " + hm + ".delay_ns = " + operand_str(t.gen.delay) +
                    ";");
        w_.line(LineCategory::Action,
                "        " + hm + ".mcast_flag = " +
                    (t.gen.multicast ? "1" : "0") + ";");
        w_.line(LineCategory::Action,
                "        " + hm + ".location = " +
                    (t.gen.location.is_none() ? md("__self")
                                              : operand_str(t.gen.location)) +
                    ";");
        const auto& ev =
            ir_.events[static_cast<std::size_t>(t.gen.event_id)];
        for (std::size_t i = 0;
             i < t.gen.args.size() && i < ev.params.size(); ++i) {
          w_.line(LineCategory::Action,
                  "        " + h + "." + ev.params[i].first + " = " +
                      operand_str(t.gen.args[i]) + ";");
        }
        w_.line(LineCategory::Action,
                "        ig_md.gen_count = ig_md.gen_count + 1;");
        break;
      }
      case TableKind::Branch:
        break;
    }
  }

  void emit_tables() {
    int sidx = 0;
    for (const auto& stage : pipeline_.stages) {
      int tidx = 0;
      for (const auto& mt : stage.tables) {
        emit_merged_table(mt, sidx, tidx);
        ++tidx;
      }
      ++sidx;
    }
  }

  struct EmitGroup {
    std::string handler;
    int event_id = -1;
    bool unconditional = true;
    std::vector<const AtomicTable*> members;  // unconditional group
    const AtomicTable* guarded = nullptr;     // guarded singleton
  };

  std::vector<EmitGroup> emission_groups(const opt::MergedTable& mt) const {
    std::vector<EmitGroup> groups;
    for (const auto* member : mt.members) {
      const AtomicTable& t = *member;
      if (t.guards.empty()) {
        EmitGroup* g = nullptr;
        for (auto& eg : groups) {
          if (eg.unconditional && eg.handler == t.handler) g = &eg;
        }
        if (g == nullptr) {
          groups.emplace_back();
          g = &groups.back();
          g->handler = t.handler;
          g->event_id = opt::handler_event_id(ir_, t);
          g->unconditional = true;
        }
        g->members.push_back(member);
      } else {
        groups.emplace_back();
        EmitGroup& g = groups.back();
        g.handler = t.handler;
        g.event_id = opt::handler_event_id(ir_, t);
        g.unconditional = false;
        g.guarded = member;
      }
    }
    return groups;
  }

  void emit_merged_table(const opt::MergedTable& mt, int sidx, int tidx) {
    const std::string tname =
        "tbl_s" + std::to_string(sidx) + "_t" + std::to_string(tidx);
    const auto groups = emission_groups(mt);

    // Key variables: the union of all guard variables.
    std::set<std::string> key_vars;
    for (const auto* t : mt.members) {
      for (const auto& conj : t->guards) {
        for (const auto& test : conj) key_vars.insert(test.var);
      }
    }

    // Actions.
    std::vector<std::string> action_names;
    int gidx = 0;
    for (const auto& g : groups) {
      const std::string aname = "do_" + tname + "_g" + std::to_string(gidx);
      action_names.push_back(aname);
      w_.line(LineCategory::Action, "    action " + aname + "() {");
      if (g.unconditional) {
        for (const auto* m : g.members) emit_member_op(*m);
      } else {
        emit_member_op(*g.guarded);
      }
      w_.line(LineCategory::Action, "    }");
      ++gidx;
    }
    w_.line(LineCategory::Action, "    action " + tname + "_noop() {}");
    w_.blank();

    // Table.
    w_.line(LineCategory::Table, "    table " + tname + " {");
    w_.line(LineCategory::Table, "        key = {");
    w_.line(LineCategory::Table, "            ig_md.ev_id : ternary;");
    for (const auto& k : key_vars) {
      w_.line(LineCategory::Table,
              "            " + md(opt::sanitize(k)) + " : ternary;");
    }
    w_.line(LineCategory::Table, "        }");
    w_.line(LineCategory::Table, "        actions = {");
    for (const auto& a : action_names) {
      w_.line(LineCategory::Table, "            " + a + ";");
    }
    w_.line(LineCategory::Table, "            " + tname + "_noop;");
    w_.line(LineCategory::Table, "        }");
    w_.line(LineCategory::Table, "        const entries = {");
    gidx = 0;
    for (const auto& g : groups) {
      auto entry_for = [&](const ir::Conj* conj) {
        std::string e = "            (" + std::to_string(g.event_id);
        for (const auto& k : key_vars) {
          std::string cell = "_";
          if (conj != nullptr) {
            for (const auto& test : *conj) {
              if (test.var != k) continue;
              cell = test.eq ? std::to_string(test.value)
                             : "~" + std::to_string(test.value);
            }
          }
          e += ", " + cell;
        }
        e += ") : " + action_names[static_cast<std::size_t>(gidx)] + "();";
        w_.line(LineCategory::Table, e);
      };
      if (g.unconditional) {
        entry_for(nullptr);
      } else {
        for (const auto& conj : g.guarded->guards) entry_for(&conj);
      }
      ++gidx;
    }
    w_.line(LineCategory::Table, "        }");
    w_.line(LineCategory::Table,
            "        const default_action = " + tname + "_noop();");
    w_.line(LineCategory::Table, "    }");
    w_.blank();
    table_names_.push_back(tname);
  }

  void emit_dispatcher() {
    // Copy event-header fields into metadata and pick the handler.
    for (const auto& ev : ir_.events) {
      w_.line(LineCategory::Action,
              "    action dispatch_" + ev.name + "() {");
      for (const auto& [pname, pwidth] : ev.params) {
        (void)pwidth;
        w_.line(LineCategory::Action, "        " + md(opt::sanitize(pname)) +
                                          " = hdr.ev_" + ev.name + "." +
                                          pname + ";");
      }
      w_.line(LineCategory::Action,
              "        ig_md.ev_id = hdr.event.event_id;");
      w_.line(LineCategory::Action, "    }");
    }
    w_.line(LineCategory::Action, "    action dispatch_forward() {");
    w_.line(LineCategory::Action,
            "        // non-local event: user forwarding table picks a port");
    w_.line(LineCategory::Action, "    }");
    w_.line(LineCategory::Action, "    action dispatch_delay() {");
    w_.line(LineCategory::Action,
            "        // delayed event: send to the paused delay queue");
    w_.line(LineCategory::Action,
            "        ig_tm_md.qid = LUCID_DELAY_QID;");
    w_.line(LineCategory::Action, "    }");
    w_.blank();
    w_.line(LineCategory::Table, "    table event_dispatch {");
    w_.line(LineCategory::Table, "        key = {");
    w_.line(LineCategory::Table, "            hdr.event.event_id : ternary;");
    w_.line(LineCategory::Table,
            "            hdr.event.location : ternary;");
    w_.line(LineCategory::Table, "            hdr.event.delay_ns : ternary;");
    w_.line(LineCategory::Table, "        }");
    w_.line(LineCategory::Table, "        actions = {");
    for (const auto& ev : ir_.events) {
      w_.line(LineCategory::Table, "            dispatch_" + ev.name + ";");
    }
    w_.line(LineCategory::Table, "            dispatch_forward;");
    w_.line(LineCategory::Table, "            dispatch_delay;");
    w_.line(LineCategory::Table, "        }");
    w_.line(LineCategory::Table, "        // location/delay rules installed");
    w_.line(LineCategory::Table, "        // by the inlined scheduler");
    w_.line(LineCategory::Table, "    }");
    w_.blank();
  }

  void ingress() {
    w_.line(LineCategory::Control,
            "control Ingress(inout headers_t hdr, inout ig_metadata_t "
            "ig_md,");
    w_.line(LineCategory::Control,
            "        in ingress_intrinsic_metadata_t ig_intr_md,");
    w_.line(LineCategory::Control,
            "        inout ingress_intrinsic_metadata_for_tm_t ig_tm_md) {");
    w_.blank();
    emit_register_decls();
    emit_dispatcher();
    emit_tables();

    w_.line(LineCategory::Control, "    apply {");
    w_.line(LineCategory::Control, "        ig_md.gen_count = 0;");
    w_.line(LineCategory::Control,
            "        ig_md.__ts = ig_intr_md.ingress_mac_tstamp[31:0];");
    w_.line(LineCategory::Control, "        ig_md.__self = SWITCH_SELF_ID;");
    w_.line(LineCategory::Control, "        event_dispatch.apply();");
    int sidx = 0;
    std::size_t i = 0;
    for (const auto& stage : pipeline_.stages) {
      w_.line(LineCategory::Control,
              "        // ---- stage " + std::to_string(sidx) + " ----");
      for (std::size_t t = 0; t < stage.tables.size(); ++t) {
        w_.line(LineCategory::Control,
                "        " + table_names_[i++] + ".apply();");
      }
      ++sidx;
    }
    w_.line(LineCategory::Control, "        if (ig_md.gen_count > 0) {");
    w_.line(LineCategory::Control,
            "            // serializer: one clone per generated event");
    w_.line(LineCategory::Control,
            "            ig_tm_md.mcast_grp_a = LUCID_SERIALIZE_GRP;");
    w_.line(LineCategory::Control, "        }");
    w_.line(LineCategory::Control, "    }");
    w_.line(LineCategory::Control, "}");
    w_.blank();
  }

  void egress_scheduler() {
    // The mostly-static event scheduler library (section 3.2): serializer
    // (strip all but the clone's own event header), delay accounting, and
    // PFC pause-queue control.
    w_.line(LineCategory::Control,
            "control Egress(inout headers_t hdr, inout ig_metadata_t eg_md,");
    w_.line(LineCategory::Control,
            "        in egress_intrinsic_metadata_t eg_intr_md) {");
    w_.line(LineCategory::Control, "    apply {");
    w_.line(LineCategory::Control,
            "        // --- Lucid event serializer ---");
    const std::size_t sites = sites_.tables.size();
    for (std::size_t site = 0; site < sites; ++site) {
      w_.line(LineCategory::Control,
              "        if (eg_intr_md.egress_rid == " +
                  std::to_string(site + 1) + ") {");
      w_.line(LineCategory::Control,
              "            // this clone carries generate site " +
                  std::to_string(site));
      w_.line(LineCategory::Control,
              "            hdr.event = hdr.gen_meta_" + std::to_string(site) +
                  ";");
      w_.line(LineCategory::Control,
              "            hdr.ev_" + sites_.tables[site]->gen.event +
                  " = hdr.gen_" + std::to_string(site) + ";");
      for (std::size_t other = 0; other < sites; ++other) {
        w_.line(LineCategory::Control, "            hdr.gen_meta_" +
                                           std::to_string(other) +
                                           ".setInvalid();");
        w_.line(LineCategory::Control,
                "            hdr.gen_" + std::to_string(other) +
                    ".setInvalid();");
      }
      w_.line(LineCategory::Control, "        }");
    }
    w_.line(LineCategory::Control,
            "        // --- delay accounting: subtract queue residence ---");
    w_.line(LineCategory::Control, "        if (hdr.event.isValid() &&");
    w_.line(LineCategory::Control,
            "            hdr.event.delay_ns > 0) {");
    w_.line(LineCategory::Control,
            "            hdr.event.delay_ns = hdr.event.delay_ns -");
    w_.line(LineCategory::Control,
            "                eg_intr_md.deq_timedelta;");
    w_.line(LineCategory::Control, "        }");
    w_.line(LineCategory::Control, "    }");
    w_.line(LineCategory::Control, "}");
    w_.blank();
  }

  void deparser() {
    w_.line(LineCategory::Control,
            "control IngressDeparser(packet_out pkt, inout headers_t hdr) {");
    w_.line(LineCategory::Control, "    apply {");
    w_.line(LineCategory::Control, "        pkt.emit(hdr.ethernet);");
    w_.line(LineCategory::Control, "        pkt.emit(hdr.event);");
    for (const auto& ev : ir_.events) {
      w_.line(LineCategory::Control, "        pkt.emit(hdr.ev_" + ev.name +
                                         ");");
    }
    for (std::size_t site = 0; site < sites_.tables.size(); ++site) {
      w_.line(LineCategory::Control,
              "        pkt.emit(hdr.gen_meta_" + std::to_string(site) + ");");
      w_.line(LineCategory::Control,
              "        pkt.emit(hdr.gen_" + std::to_string(site) + ");");
    }
    w_.line(LineCategory::Control, "    }");
    w_.line(LineCategory::Control, "}");
    w_.blank();
  }

  void pipeline_decl() {
    w_.line(LineCategory::Other,
            "Pipeline(IngressParser(), Ingress(), IngressDeparser(),");
    w_.line(LineCategory::Other,
            "         Egress()) pipe;");
    w_.line(LineCategory::Other, "Switch(pipe) main;");
  }

  const ir::ProgramIR& ir_;
  const opt::Pipeline& pipeline_;
  std::string_view name_;
  LineWriter w_;
  const std::map<std::string, int> vars_;        // metadata fields: widths
  const opt::GenerateSites sites_;
  std::map<std::string, std::string> reg_actions_;  // signature -> name
  std::vector<std::string> table_names_;
};

}  // namespace

P4Program emit(const Compilation& comp, std::string_view program_name) {
  Emitter e(comp.ir(), comp.pipeline(), program_name);
  return e.run();
}

// ---------------------------------------------------------------------------
// Backend adapter
// ---------------------------------------------------------------------------

namespace {

class P4Backend final : public Backend {
 public:
  [[nodiscard]] std::string name() const override { return "p4"; }
  [[nodiscard]] std::string description() const override {
    return "Tofino-style P4_16 code generation";
  }
  [[nodiscard]] Stage required_stage() const override { return Stage::Layout; }

  [[nodiscard]] BackendArtifact emit(Compilation& comp) override {
    BackendArtifact artifact;
    artifact.backend = name();
    if (!comp.pipeline().feasible) {
      comp.diags().error({}, "p4-layout-infeasible",
                         "cannot emit P4: pipeline layout is infeasible");
      return artifact;
    }
    const P4Program p = p4::emit(comp, comp.options().program_name);
    artifact.text = p.text;
    for (const auto& [cat, loc] : p.loc_by_category) {
      artifact.metrics["loc_" + std::string(category_name(cat))] =
          static_cast<std::int64_t>(loc);
    }
    artifact.metrics["loc_total"] = static_cast<std::int64_t>(p.total_loc());
    artifact.ok = true;
    return artifact;
  }
};

}  // namespace

bool register_backend(BackendRegistry& registry) {
  return registry.add(std::make_unique<P4Backend>());
}

}  // namespace lucid::p4
