#include "p4/ir.h"

#include <algorithm>
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
    s->branch = branch;
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
    p.layout = layout;
    p.coverage_salt = coverage_salt;
    p.reads_timestamp = reads_timestamp;
    p.branch_count = branch_count;
    return p;
}

namespace {

void number_branches(std::vector<StmtPtr>& body, std::uint32_t& next) {
    for (auto& s : body) {
        if (s->kind != Stmt::Kind::if_stmt) continue;
        s->branch = next++;
        number_branches(s->then_body, next);
        number_branches(s->else_body, next);
    }
}

// Does any expression in the program read the ingress timestamp?
bool expr_reads(const Expr& e, FieldRef ts) {
    if (e.kind == Expr::Kind::field && e.fref == ts) return true;
    if (e.a && expr_reads(*e.a, ts)) return true;
    if (e.b && expr_reads(*e.b, ts)) return true;
    if (e.c && expr_reads(*e.c, ts)) return true;
    return false;
}

bool body_reads(const std::vector<StmtPtr>& body, FieldRef ts) {
    for (const auto& stmt : body) {
        if (stmt->value && expr_reads(*stmt->value, ts)) return true;
        if (stmt->cond && expr_reads(*stmt->cond, ts)) return true;
        if (stmt->index_expr && expr_reads(*stmt->index_expr, ts)) return true;
        for (const auto& arg : stmt->action_args) {
            if (arg && expr_reads(*arg, ts)) return true;
        }
        for (const auto& input : stmt->hash_inputs) {
            if (input && expr_reads(*input, ts)) return true;
        }
        if (body_reads(stmt->then_body, ts)) return true;
        if (body_reads(stmt->else_body, ts)) return true;
    }
    return false;
}

bool reads_timestamp(const Program& prog) {
    const FieldRef ts = prog.f_timestamp;
    if (!ts.valid()) return false;
    if (body_reads(prog.ingress.body, ts)) return true;
    if (prog.egress && body_reads(prog.egress->body, ts)) return true;
    for (const auto& action : prog.actions) {
        if (body_reads(action.body, ts)) return true;
    }
    for (const auto& st : prog.parser_states) {
        for (const auto& op : st.ops) {
            if (op.value && expr_reads(*op.value, ts)) return true;
        }
        for (const auto& key : st.transition.keys) {
            if (key && expr_reads(*key, ts)) return true;
        }
    }
    return false;
}

// Sets wire bit `bit` (bit 0 is the MSB of byte 0) of a word image.
void set_wire_bit(std::vector<std::uint64_t>& image, std::size_t bit) {
    auto* bytes = reinterpret_cast<std::uint8_t*>(image.data());
    bytes[bit / 8] |= static_cast<std::uint8_t>(0x80u >> (bit % 8));
}

std::shared_ptr<const StateLayout> build_layout(const Program& prog) {
    auto layout = std::make_shared<StateLayout>();
    std::size_t field_count = 0;
    for (const auto& h : prog.headers) field_count += h.fields.size();
    layout->headers.reserve(prog.headers.size());
    layout->digest.reserve(prog.headers.size());
    layout->fields.reserve(field_count);
    std::size_t word = 0;
    for (const auto& h : prog.headers) {
        StateLayout::Header lh;
        lh.word = word;
        lh.bits = static_cast<std::size_t>(h.size_bits);
        lh.first_field = layout->fields.size();
        lh.field_count = h.fields.size();
        std::size_t end = lh.bits;
        for (const auto& f : h.fields) {
            end = std::max(end, static_cast<std::size_t>(f.offset + f.width));
            layout->fields.push_back(
                {word * 64 + static_cast<std::size_t>(f.offset), f.width});
        }
        const std::size_t words = (end + 63) / 64;
        layout->headers.push_back(lh);
        layout->digest.push_back({static_cast<std::uint32_t>(word),
                                  static_cast<std::uint32_t>(words), h.is_metadata});
        word += words;
    }
    // Every packet's reset writes these three without a lookup or a width
    // check, so both happen here.
    const auto resolve = [&](FieldRef ref, int width) {
        if (!ref.valid() || prog.field(ref).width != width) {
            throw std::logic_error("finalize: malformed standard metadata field " +
                                   prog.field_name(ref));
        }
        const StateLayout::Header& h =
            layout->headers[static_cast<std::size_t>(ref.header)];
        return layout->fields[h.first_field + static_cast<std::size_t>(ref.field)];
    };
    layout->ingress_port = resolve(prog.f_ingress_port, 9);
    layout->packet_length = resolve(prog.f_packet_length, 32);
    layout->timestamp = resolve(prog.f_timestamp, 48);

    layout->initial_valid.assign((prog.headers.size() + 63) / 64, 0);
    layout->clobber_image.assign(word + 1, 0);  // plus the trailing zero word
    for (std::size_t hi = 0; hi < prog.headers.size(); ++hi) {
        const auto& h = prog.headers[hi];
        if (!h.is_metadata) continue;
        layout->initial_valid[hi / 64] |= 1ull << (hi % 64);
        if (h.name == "standard_metadata") continue;
        for (std::size_t fi = 0; fi < h.fields.size(); ++fi) {
            const StateLayout::Field& f =
                layout->fields[layout->headers[hi].first_field + fi];
            // Value bit i sits at wire bit f.bit + width - 1 - i.
            for (int i = 0; i < f.width; i += 2) {
                set_wire_bit(layout->clobber_image,
                             f.bit + static_cast<std::size_t>(f.width - 1 - i));
            }
        }
    }
    return layout;
}

}  // namespace

void finalize(Program& prog) {
    prog.layout = build_layout(prog);
    prog.coverage_salt = util::fnv1a_64(prog.name);
    prog.reads_timestamp = reads_timestamp(prog);
    std::uint32_t next = 0;
    number_branches(prog.ingress.body, next);
    if (prog.egress) number_branches(prog.egress->body, next);
    for (auto& action : prog.actions) number_branches(action.body, next);
    prog.branch_count = next;
}

}  // namespace ndb::p4::ir
