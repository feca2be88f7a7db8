#include "p4/ir.h"

#include <stdexcept>

#include "util/strings.h"

namespace ndb::p4::ir {

int Header::field_index(std::string_view field_name) const {
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (fields[i].name == field_name) return static_cast<int>(i);
    }
    return -1;
}

// --- expressions ---------------------------------------------------------------

ExprPtr Expr::clone() const {
    auto e = std::make_unique<Expr>();
    e->kind = kind;
    e->width = width;
    e->is_bool = is_bool;
    e->cvalue = cvalue;
    e->fref = fref;
    e->index = index;
    e->un = un;
    e->bin = bin;
    e->hi = hi;
    e->lo = lo;
    if (a) e->a = a->clone();
    if (b) e->b = b->clone();
    if (c) e->c = c->clone();
    return e;
}

ExprPtr make_const(const Bitvec& value) {
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::constant;
    e->width = value.width();
    e->cvalue = value;
    return e;
}

std::string Expr::to_string() const {
    switch (kind) {
        case Kind::constant: return cvalue.to_string();
        case Kind::field:
            return "f[" + std::to_string(fref.header) + "." + std::to_string(fref.field) + "]";
        case Kind::param: return "p" + std::to_string(index);
        case Kind::local: return "l" + std::to_string(index);
        case Kind::is_valid: return "valid(h" + std::to_string(fref.header) + ")";
        case Kind::unary:
            return std::string(ast::un_op_name(un)) + a->to_string();
        case Kind::binary:
            return "(" + a->to_string() + " " + ast::bin_op_name(bin) + " " + b->to_string() + ")";
        case Kind::ternary:
            return "(" + c->to_string() + " ? " + a->to_string() + " : " + b->to_string() + ")";
        case Kind::slice:
            return a->to_string() + "[" + std::to_string(hi) + ":" + std::to_string(lo) + "]";
        case Kind::cast:
            return "(bit<" + std::to_string(width) + ">)" + a->to_string();
    }
    return "?";
}

// --- statements ------------------------------------------------------------------

StmtPtr Stmt::clone() const {
    auto s = std::make_unique<Stmt>();
    s->kind = kind;
    s->dst = dst;
    s->local_index = local_index;
    s->hi = hi;
    s->lo = lo;
    if (value) s->value = value->clone();
    if (cond) s->cond = cond->clone();
    s->then_body = clone_body(then_body);
    s->else_body = clone_body(else_body);
    s->table = table;
    s->action = action;
    for (const auto& a : action_args) s->action_args.push_back(a->clone());
    s->make_valid = make_valid;
    s->ext = ext;
    s->extern_id = extern_id;
    if (index_expr) s->index_expr = index_expr->clone();
    s->ext_dst = ext_dst;
    for (const auto& h : hash_inputs) s->hash_inputs.push_back(h->clone());
    s->hash_header = hash_header;
    s->checksum_field = checksum_field;
    return s;
}

std::vector<StmtPtr> clone_body(const std::vector<StmtPtr>& body) {
    std::vector<StmtPtr> out;
    out.reserve(body.size());
    for (const auto& s : body) out.push_back(s->clone());
    return out;
}

std::string Stmt::to_string(int indent) const {
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    switch (kind) {
        case Kind::assign_field:
            return pad + "f[" + std::to_string(dst.header) + "." + std::to_string(dst.field) +
                   "] = " + value->to_string() + "\n";
        case Kind::assign_local:
            return pad + "l" + std::to_string(local_index) + " = " + value->to_string() + "\n";
        case Kind::assign_slice:
            return pad + "f[" + std::to_string(dst.header) + "." + std::to_string(dst.field) +
                   "][" + std::to_string(hi) + ":" + std::to_string(lo) + "] = " +
                   value->to_string() + "\n";
        case Kind::if_stmt: {
            std::string s = pad + "if " + cond->to_string() + "\n";
            for (const auto& st : then_body) s += st->to_string(indent + 2);
            if (!else_body.empty()) {
                s += pad + "else\n";
                for (const auto& st : else_body) s += st->to_string(indent + 2);
            }
            return s;
        }
        case Kind::apply_table:
            return pad + "apply t" + std::to_string(table) + "\n";
        case Kind::call_action:
            return pad + "call a" + std::to_string(action) + "\n";
        case Kind::set_valid:
            return pad + (make_valid ? "setValid h" : "setInvalid h") +
                   std::to_string(dst.header) + "\n";
        case Kind::extern_op:
            return pad + "extern op " + std::to_string(static_cast<int>(ext)) + "\n";
        case Kind::exit_pipeline:
            return pad + "exit\n";
    }
    return pad + "?\n";
}

// --- parser -----------------------------------------------------------------------

ParserOp ParserOp::clone() const {
    ParserOp op;
    op.kind = kind;
    op.header = header;
    op.bits = bits;
    op.dst = dst;
    if (value) op.value = value->clone();
    return op;
}

Transition Transition::clone() const {
    Transition t;
    t.kind = kind;
    t.next_state = next_state;
    for (const auto& k : keys) t.keys.push_back(k->clone());
    t.cases = cases;
    return t;
}

ParserState ParserState::clone() const {
    ParserState s;
    s.name = name;
    for (const auto& op : ops) s.ops.push_back(op.clone());
    s.transition = transition.clone();
    return s;
}

// --- tables -----------------------------------------------------------------------

int Table::total_key_width() const {
    int w = 0;
    for (const auto& k : keys) w += k.width;
    return w;
}

bool Table::has_lpm() const {
    for (const auto& k : keys) {
        if (k.kind == MatchKind::lpm) return true;
    }
    return false;
}

bool Table::has_ternary() const {
    for (const auto& k : keys) {
        if (k.kind == MatchKind::ternary) return true;
    }
    return false;
}

// --- program ----------------------------------------------------------------------

int Program::header_index(std::string_view instance_name) const {
    for (std::size_t i = 0; i < headers.size(); ++i) {
        if (headers[i].name == instance_name) return static_cast<int>(i);
    }
    return -1;
}

const Field& Program::field(FieldRef ref) const {
    if (!ref.valid()) throw std::out_of_range("Program::field: invalid ref");
    return headers.at(static_cast<std::size_t>(ref.header))
        .fields.at(static_cast<std::size_t>(ref.field));
}

std::string Program::field_name(FieldRef ref) const {
    if (!ref.valid()) return "<none>";
    const auto& h = headers.at(static_cast<std::size_t>(ref.header));
    return h.name + "." + h.fields.at(static_cast<std::size_t>(ref.field)).name;
}

const Table* Program::table_by_name(std::string_view table_name) const {
    for (const auto& t : tables) {
        if (t.name == table_name) return &t;
    }
    return nullptr;
}

const Action* Program::action_by_name(std::string_view action_name) const {
    for (const auto& a : actions) {
        if (a.name == action_name) return &a;
    }
    return nullptr;
}

const ExternDecl* Program::extern_by_name(std::string_view extern_name) const {
    for (const auto& e : externs) {
        if (e.name == extern_name) return &e;
    }
    return nullptr;
}

Program Program::clone() const {
    Program p;
    p.name = name;
    p.headers = headers;
    p.stdmeta = stdmeta;
    p.usermeta = usermeta;
    for (const auto& s : parser_states) p.parser_states.push_back(s.clone());
    p.start_state = start_state;
    for (const auto& a : actions) {
        Action na;
        na.name = a.name;
        na.id = a.id;
        na.param_widths = a.param_widths;
        na.local_widths = a.local_widths;
        na.body = clone_body(a.body);
        p.actions.push_back(std::move(na));
    }
    for (const auto& t : tables) {
        Table nt;
        nt.name = t.name;
        nt.id = t.id;
        for (const auto& k : t.keys) {
            TableKey nk;
            nk.expr = k.expr->clone();
            nk.kind = k.kind;
            nk.width = k.width;
            nk.name = k.name;
            nt.keys.push_back(std::move(nk));
        }
        nt.actions = t.actions;
        nt.default_action = t.default_action;
        nt.default_args = t.default_args;
        nt.size = t.size;
        p.tables.push_back(std::move(nt));
    }
    p.externs = externs;
    p.ingress.name = ingress.name;
    p.ingress.local_widths = ingress.local_widths;
    p.ingress.body = clone_body(ingress.body);
    if (egress) {
        Control e;
        e.name = egress->name;
        e.local_widths = egress->local_widths;
        e.body = clone_body(egress->body);
        p.egress = std::move(e);
    }
    p.deparse_order = deparse_order;
    p.f_ingress_port = f_ingress_port;
    p.f_egress_spec = f_egress_spec;
    p.f_egress_port = f_egress_port;
    p.f_packet_length = f_packet_length;
    p.f_timestamp = f_timestamp;
    return p;
}

std::string Program::to_string() const {
    std::string s = "program " + name + "\n";
    for (const auto& h : headers) {
        s += util::format("  header %s (%s, %d bits)%s\n", h.name.c_str(),
                          h.type_name.c_str(), h.size_bits,
                          h.is_metadata ? " [meta]" : "");
    }
    s += util::format("  parser: %zu states (start=%d)\n", parser_states.size(),
                      start_state);
    for (const auto& st : parser_states) {
        s += "    state " + st.name + "\n";
    }
    for (const auto& t : tables) {
        s += util::format("  table %s: %d-bit key, %zu actions, size %lld\n",
                          t.name.c_str(), t.total_key_width(), t.actions.size(),
                          static_cast<long long>(t.size));
    }
    for (const auto& a : actions) {
        s += "  action " + a.name + "\n";
    }
    s += util::format("  ingress: %zu stmts\n", ingress.body.size());
    if (egress) s += util::format("  egress: %zu stmts\n", egress->body.size());
    s += util::format("  deparse: %zu headers\n", deparse_order.size());
    return s;
}

namespace {

void collect_branches(const std::vector<StmtPtr>& body,
                      std::unordered_map<const Stmt*, std::uint32_t>& ids) {
    for (const auto& s : body) {
        if (s->kind != Stmt::Kind::if_stmt) continue;
        const auto ordinal = static_cast<std::uint32_t>(ids.size());
        ids.emplace(s.get(), ordinal);
        collect_branches(s->then_body, ids);
        collect_branches(s->else_body, ids);
    }
}

}  // namespace

std::unordered_map<const Stmt*, std::uint32_t> number_branches(const Program& prog) {
    std::unordered_map<const Stmt*, std::uint32_t> ids;
    collect_branches(prog.ingress.body, ids);
    if (prog.egress) collect_branches(prog.egress->body, ids);
    for (const auto& action : prog.actions) {
        collect_branches(action.body, ids);
    }
    return ids;
}

}  // namespace ndb::p4::ir
