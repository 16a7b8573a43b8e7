#include "opt/emit_walk.hpp"

#include <algorithm>

namespace lucid::opt {

using ir::AtomicTable;
using ir::Operand;
using ir::TableKind;

std::string sanitize(std::string name) {
  std::replace(name.begin(), name.end(), '.', '_');
  return name;
}

std::map<std::string, int> ctx_vars(const ir::ProgramIR& ir,
                                    const Pipeline& pipeline) {
  std::map<std::string, int> vars;
  const auto note = [&vars](const std::string& name, int width) {
    int& w = vars[name];
    w = std::max(w, width);
  };
  const auto note_operand = [&note](const Operand& o) {
    if (o.is_var()) note(o.var, o.width);
  };
  for (const auto& stage : pipeline.stages) {
    for (const auto& mt : stage.tables) {
      for (const AtomicTable* t : mt.members) {
        switch (t->kind) {
          case TableKind::Op:
            note(t->op.dst, t->op.width);
            note_operand(t->op.lhs);
            note_operand(t->op.rhs);
            break;
          case TableKind::Mem:
            if (!t->mem.dst.empty()) note(t->mem.dst, t->mem.cell_width);
            note_operand(t->mem.index);
            note_operand(t->mem.get_arg);
            note_operand(t->mem.set_arg);
            note_operand(t->mem.set_value);
            break;
          case TableKind::Hash:
            note(t->hash.dst, 32);
            for (const auto& a : t->hash.args) note_operand(a);
            break;
          case TableKind::Generate:
            for (const auto& a : t->gen.args) note_operand(a);
            note_operand(t->gen.delay);
            note_operand(t->gen.location);
            break;
          case TableKind::Branch:
            break;
        }
        for (const auto& conj : t->guards) {
          for (const auto& test : conj) note(test.var, 32);
        }
      }
    }
  }
  // Handler params arrive in event headers; each emitter's dispatcher
  // copies them into the context struct.
  for (const auto& ev : ir.events) {
    for (const auto& [pname, pwidth] : ev.params) note(pname, pwidth);
  }
  vars["__self"] = 32;
  vars["__ts"] = 32;
  return vars;
}

int GenerateSites::site_of(const AtomicTable* t) const {
  const auto it = index.find(t);
  return it != index.end() ? it->second : -1;
}

GenerateSites generate_sites(const Pipeline& pipeline) {
  GenerateSites sites;
  for (const auto& stage : pipeline.stages) {
    for (const auto& mt : stage.tables) {
      for (const AtomicTable* t : mt.members) {
        if (t->kind != TableKind::Generate) continue;
        sites.index[t] = static_cast<int>(sites.tables.size());
        sites.tables.push_back(t);
      }
    }
  }
  return sites;
}

int handler_event_id(const ir::ProgramIR& ir, const AtomicTable& t) {
  const ir::EventInfo* ev = ir.find_event(t.handler);
  return ev != nullptr ? ev->event_id : -1;
}

std::string table_condition(const ir::ProgramIR& ir, const AtomicTable& t) {
  std::string cond = "m.ev_id == " + std::to_string(handler_event_id(ir, t));
  if (t.guards.empty()) return cond;
  std::string dis;
  for (std::size_t c = 0; c < t.guards.size(); ++c) {
    if (c > 0) dis += " || ";
    std::string conj;
    for (std::size_t i = 0; i < t.guards[c].size(); ++i) {
      if (i > 0) conj += " && ";
      const ir::MatchTest& test = t.guards[c][i];
      conj += "m." + sanitize(test.var) + (test.eq ? " == " : " != ") +
              std::to_string(test.value);
    }
    if (t.guards[c].empty()) conj = "1";
    dis += t.guards.size() > 1 ? "(" + conj + ")" : conj;
  }
  return cond + " && (" + dis + ")";
}

}  // namespace lucid::opt
