#include "p4/ir.h"
#include <stdexcept>


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
