// The walks every code emitter (P4, eBPF/XDP, native) makes over a laid-out
// pipeline: which variables the generated context struct holds, how
// generate sites are numbered, and how a table's guard renders as a C
// condition. What each backend does with them (operand spelling, masking,
// hashing, section layout) stays in its emitter.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ir/ir.hpp"
#include "opt/passes.hpp"

namespace lucid::opt {

/// `name` with every '.' replaced by '_', so it is a C and P4 identifier.
[[nodiscard]] std::string sanitize(std::string name);

/// The context variables of a pipeline, keyed (and so ordered) by name:
/// every local its tables read or write, every guard variable, every event
/// param, and the builtins `__self` and `__ts`. Each maps to the widest
/// width it is used at; guard variables and hash results count as 32 bits,
/// and the builtins are exactly 32.
[[nodiscard]] std::map<std::string, int> ctx_vars(const ir::ProgramIR& ir,
                                                  const Pipeline& pipeline);

/// The generate tables of a pipeline, numbered in placement order (stage,
/// then merged table, then member): site k is `tables[k]`.
struct GenerateSites {
  std::vector<const ir::AtomicTable*> tables;
  std::map<const ir::AtomicTable*, int> index;

  /// The site number of `t`, or -1 when `t` is not a generate table.
  [[nodiscard]] int site_of(const ir::AtomicTable* t) const;
};
[[nodiscard]] GenerateSites generate_sites(const Pipeline& pipeline);

/// The event id of the handler that owns `t`, or -1 when no event has that
/// name.
[[nodiscard]] int handler_event_id(const ir::ProgramIR& ir,
                                   const ir::AtomicTable& t);

/// The C condition under which `t` runs, over a context struct `m` with
/// sanitized field names: `m.ev_id == <id>`, followed for a guarded table
/// by `&& (<disjunction of conjunctions>)`.
[[nodiscard]] std::string table_condition(const ir::ProgramIR& ir,
                                          const ir::AtomicTable& t);

}  // namespace lucid::opt
