#include "frontend/ast.hpp"

namespace lucid::frontend {

std::string Type::str() const {
  switch (kind) {
    case TypeKind::Unknown: return "<unknown>";
    case TypeKind::Void: return "void";
    case TypeKind::Bool: return "bool";
    case TypeKind::Int:
      return width == 32 ? "int" : "int<<" + std::to_string(width) + ">>";
    case TypeKind::Event: return "event";
    case TypeKind::Group: return "group";
    case TypeKind::Array:
      return "Array<<" + std::to_string(width) + ">>";
  }
  return "<bad>";
}

std::string_view binop_name(BinOp op) {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Mod: return "%";
    case BinOp::BitAnd: return "&";
    case BinOp::BitOr: return "|";
    case BinOp::BitXor: return "^";
    case BinOp::Shl: return "<<";
    case BinOp::Shr: return ">>";
    case BinOp::Eq: return "==";
    case BinOp::Ne: return "!=";
    case BinOp::Lt: return "<";
    case BinOp::Gt: return ">";
    case BinOp::Le: return "<=";
    case BinOp::Ge: return ">=";
    case BinOp::LAnd: return "&&";
    case BinOp::LOr: return "||";
  }
  return "?";
}

std::string_view unop_name(UnOp op) {
  switch (op) {
    case UnOp::Neg: return "-";
    case UnOp::Not: return "!";
    case UnOp::BitNot: return "~";
  }
  return "?";
}

bool binop_is_comparison(BinOp op) {
  switch (op) {
    case BinOp::Eq:
    case BinOp::Ne:
    case BinOp::Lt:
    case BinOp::Gt:
    case BinOp::Le:
    case BinOp::Ge:
      return true;
    default:
      return false;
  }
}

bool binop_is_logical(BinOp op) {
  return op == BinOp::LAnd || op == BinOp::LOr;
}

const Decl* Program::find(std::string_view name, DeclKind kind) const {
  for (const auto& d : decls) {
    if (d->kind == kind && d->name == name) return d.get();
  }
  return nullptr;
}

const EventDecl* Program::find_event(std::string_view name) const {
  const Decl* d = find(name, DeclKind::Event);
  return d ? d->as<EventDecl>() : nullptr;
}
const HandlerDecl* Program::find_handler(std::string_view name) const {
  const Decl* d = find(name, DeclKind::Handler);
  return d ? d->as<HandlerDecl>() : nullptr;
}
const FunDecl* Program::find_fun(std::string_view name) const {
  const Decl* d = find(name, DeclKind::Fun);
  return d ? d->as<FunDecl>() : nullptr;
}
const GlobalDecl* Program::find_global(std::string_view name) const {
  const Decl* d = find(name, DeclKind::Global);
  return d ? d->as<GlobalDecl>() : nullptr;
}
const GroupDecl* Program::find_group(std::string_view name) const {
  const Decl* d = find(name, DeclKind::Group);
  return d ? d->as<GroupDecl>() : nullptr;
}

std::vector<const GlobalDecl*> Program::globals() const {
  std::vector<const GlobalDecl*> out;
  for (const auto& d : decls) {
    if (d->kind == DeclKind::Global) out.push_back(d->as<GlobalDecl>());
  }
  return out;
}

std::vector<const EventDecl*> Program::events() const {
  std::vector<const EventDecl*> out;
  for (const auto& d : decls) {
    if (d->kind == DeclKind::Event) out.push_back(d->as<EventDecl>());
  }
  return out;
}

std::vector<const HandlerDecl*> Program::handlers() const {
  std::vector<const HandlerDecl*> out;
  for (const auto& d : decls) {
    if (d->kind == DeclKind::Handler) out.push_back(d->as<HandlerDecl>());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Deep copies
// ---------------------------------------------------------------------------

ExprPtr clone_expr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::IntLit: {
      const auto* src = e.as<IntLitExpr>();
      auto out = std::make_unique<IntLitExpr>();
      out->value = src->value;
      out->is_time = src->is_time;
      out->range = e.range;
      out->type = e.type;
      return out;
    }
    case ExprKind::BoolLit: {
      const auto* src = e.as<BoolLitExpr>();
      auto out = std::make_unique<BoolLitExpr>();
      out->value = src->value;
      out->range = e.range;
      out->type = e.type;
      return out;
    }
    case ExprKind::VarRef: {
      const auto* src = e.as<VarRefExpr>();
      auto out = std::make_unique<VarRefExpr>();
      out->name = src->name;
      out->is_const = src->is_const;
      out->const_value = src->const_value;
      out->is_global_array = src->is_global_array;
      out->is_group = src->is_group;
      out->is_memop_ref = src->is_memop_ref;
      out->range = e.range;
      out->type = e.type;
      return out;
    }
    case ExprKind::Unary: {
      const auto* src = e.as<UnaryExpr>();
      auto out = std::make_unique<UnaryExpr>();
      out->op = src->op;
      out->sub = clone_expr(*src->sub);
      out->range = e.range;
      out->type = e.type;
      return out;
    }
    case ExprKind::Binary: {
      const auto* src = e.as<BinaryExpr>();
      auto out = std::make_unique<BinaryExpr>();
      out->op = src->op;
      out->lhs = clone_expr(*src->lhs);
      out->rhs = clone_expr(*src->rhs);
      out->range = e.range;
      out->type = e.type;
      return out;
    }
    case ExprKind::Call: {
      const auto* src = e.as<CallExpr>();
      auto out = std::make_unique<CallExpr>();
      out->callee = src->callee;
      out->resolved = src->resolved;
      for (const auto& a : src->args) out->args.push_back(clone_expr(*a));
      out->range = e.range;
      out->type = e.type;
      return out;
    }
  }
  return nullptr;
}

StmtPtr clone_stmt(const Stmt& s) {
  switch (s.kind) {
    case StmtKind::LocalDecl: {
      const auto* src = s.as<LocalDeclStmt>();
      auto out = std::make_unique<LocalDeclStmt>();
      out->declared_type = src->declared_type;
      out->name = src->name;
      if (src->init) out->init = clone_expr(*src->init);
      out->range = s.range;
      return out;
    }
    case StmtKind::Assign: {
      const auto* src = s.as<AssignStmt>();
      auto out = std::make_unique<AssignStmt>();
      out->name = src->name;
      out->value = clone_expr(*src->value);
      out->range = s.range;
      return out;
    }
    case StmtKind::If: {
      const auto* src = s.as<IfStmt>();
      auto out = std::make_unique<IfStmt>();
      out->cond = clone_expr(*src->cond);
      out->then_block = clone_block(src->then_block);
      out->else_block = clone_block(src->else_block);
      out->range = s.range;
      return out;
    }
    case StmtKind::ExprStmt: {
      const auto* src = s.as<ExprStmt>();
      auto out = std::make_unique<ExprStmt>();
      out->expr = clone_expr(*src->expr);
      out->range = s.range;
      return out;
    }
    case StmtKind::Generate: {
      const auto* src = s.as<GenerateStmt>();
      auto out = std::make_unique<GenerateStmt>();
      out->multicast = src->multicast;
      out->event = clone_expr(*src->event);
      out->range = s.range;
      return out;
    }
    case StmtKind::Return: {
      const auto* src = s.as<ReturnStmt>();
      auto out = std::make_unique<ReturnStmt>();
      if (src->value) out->value = clone_expr(*src->value);
      out->range = s.range;
      return out;
    }
  }
  return nullptr;
}

Block clone_block(const Block& b) {
  Block out;
  out.reserve(b.size());
  for (const auto& s : b) out.push_back(clone_stmt(*s));
  return out;
}

DeclPtr clone_decl(const Decl& d) {
  DeclPtr out;
  switch (d.kind) {
    case DeclKind::Const: {
      const auto* src = d.as<ConstDecl>();
      auto c = std::make_shared<ConstDecl>();
      c->declared_type = src->declared_type;
      c->value = clone_expr(*src->value);
      c->resolved_value = src->resolved_value;
      out = std::move(c);
      break;
    }
    case DeclKind::Global: {
      const auto* src = d.as<GlobalDecl>();
      auto g = std::make_shared<GlobalDecl>();
      g->width = src->width;
      g->size = clone_expr(*src->size);
      g->resolved_size = src->resolved_size;
      g->stage_index = src->stage_index;
      out = std::move(g);
      break;
    }
    case DeclKind::Memop: {
      const auto* src = d.as<MemopDecl>();
      auto m = std::make_shared<MemopDecl>();
      m->params = src->params;
      m->body = clone_block(src->body);
      out = std::move(m);
      break;
    }
    case DeclKind::Fun: {
      const auto* src = d.as<FunDecl>();
      auto f = std::make_shared<FunDecl>();
      f->return_type = src->return_type;
      f->params = src->params;
      f->body = clone_block(src->body);
      out = std::move(f);
      break;
    }
    case DeclKind::Event: {
      const auto* src = d.as<EventDecl>();
      auto e = std::make_shared<EventDecl>();
      e->params = src->params;
      e->event_id = src->event_id;
      out = std::move(e);
      break;
    }
    case DeclKind::Handler: {
      const auto* src = d.as<HandlerDecl>();
      auto h = std::make_shared<HandlerDecl>();
      h->params = src->params;
      h->body = clone_block(src->body);
      out = std::move(h);
      break;
    }
    case DeclKind::Group: {
      const auto* src = d.as<GroupDecl>();
      auto g = std::make_shared<GroupDecl>();
      for (const auto& m : src->members) g->members.push_back(clone_expr(*m));
      g->resolved_members = src->resolved_members;
      out = std::move(g);
      break;
    }
  }
  if (out) {
    out->range = d.range;
    out->name = d.name;
  }
  return out;
}

}  // namespace lucid::frontend
