#include "p4/compiler.h"

#include <map>
#include <optional>
#include <unordered_map>

#include "p4/parser.h"

namespace ndb::p4 {

namespace {

using util::Bitvec;
using util::DiagEngine;
using util::SourceLoc;

// Role a parser/control parameter plays in the NdpSwitch architecture.
enum class Role { packet_in, packet_out, headers, usermeta, stdmeta };

struct LocalVar {
    int index = 0;
    int width = 0;
};

struct ParamVar {
    int index = 0;
    int width = 0;
};

// Lowering context for one parser/control/action body.
struct Scope {
    std::map<std::string, Role> roles;          // parameter name -> role
    std::map<std::string, LocalVar> locals;     // var decls in this body
    std::map<std::string, ParamVar> params;     // action data parameters
    std::vector<int>* local_widths = nullptr;   // slot table of the owner
    bool in_parser = false;
    bool in_action = false;
    bool in_deparser = false;
};

struct ConstVal {
    Bitvec value;
    bool sized = false;  // false: came from an unsized literal (width fluid)
};

class Compiler {
public:
    Compiler(const ast::Program& prog, std::string name, DiagEngine& diags)
        : src_(prog), diags_(diags) {
        out_ = std::make_unique<ir::Program>();
        out_->name = std::move(name);
    }

    CompileResult run();

private:
    [[noreturn]] void fatal(SourceLoc loc, const std::string& msg) {
        diags_.error(loc, msg);
        throw Abort{};
    }
    void error(SourceLoc loc, const std::string& msg) { diags_.error(loc, msg); }

    struct Abort {};

    // --- declaration collection ---
    void collect_types();
    int resolve_width(const ast::TypeRef& type);  // bit width of a value type
    void build_headers(const ast::ParserDecl& parser);
    void add_std_metadata();
    void collect_externs_and_actions();

    // --- const evaluation ---
    ConstVal const_eval(const ast::Expr& e, int expected_width);

    // --- expression lowering ---
    ir::ExprPtr lower_expr(const ast::Expr& e, Scope& scope, int expected_width);
    ir::ExprPtr lower_bool(const ast::Expr& e, Scope& scope);
    std::pair<ir::ExprPtr, ir::ExprPtr> lower_pair(const ast::Expr& lhs,
                                                   const ast::Expr& rhs,
                                                   Scope& scope);
    // Resolves hdr.x / meta.f / smeta.f member chains to a FieldRef; returns
    // nullopt when `e` is not a field path.
    std::optional<ir::FieldRef> resolve_field(const ast::Expr& e, Scope& scope);
    // Resolves `hdr.x` to a header instance index, if it is one.
    int resolve_header(const ast::Expr& e, Scope& scope);

    // --- statement lowering ---
    void lower_stmt(const ast::Stmt& s, Scope& scope, std::vector<ir::StmtPtr>& out);
    void lower_call(const ast::Expr& call, Scope& scope, std::vector<ir::StmtPtr>& out);

    // --- top-level pieces ---
    void lower_parser(const ast::ParserDecl& parser);
    void lower_actions_of(const ast::ControlDecl& control);
    void lower_tables_of(const ast::ControlDecl& control);
    void lower_control(const ast::ControlDecl& control, ir::Control& out_control);
    void lower_deparser(const ast::ControlDecl& control);

    Scope make_scope(const std::vector<ast::Param>& params, bool in_parser,
                     bool in_deparser);

    const ast::ControlDecl* find_control(const std::string& name, SourceLoc loc);
    const ast::ParserDecl* find_parser(const std::string& name, SourceLoc loc);

    const ast::Program& src_;
    DiagEngine& diags_;
    std::unique_ptr<ir::Program> out_;

    std::map<std::string, int> typedef_widths_;
    std::map<std::string, ConstVal> consts_;
    std::map<std::string, const ast::HeaderDecl*> header_types_;
    std::map<std::string, const ast::StructDecl*> struct_types_;
    std::map<std::string, int> action_ids_;
    std::map<std::string, int> extern_ids_;
    std::map<std::string, int> table_ids_;
    std::map<std::string, int> state_ids_;
    std::string headers_struct_name_;
    std::string usermeta_struct_name_;
};

int Compiler::resolve_width(const ast::TypeRef& type) {
    switch (type.kind) {
        case ast::TypeRef::Kind::bits:
            return type.width;
        case ast::TypeRef::Kind::boolean:
            return 1;
        case ast::TypeRef::Kind::named: {
            const auto it = typedef_widths_.find(type.name);
            if (it == typedef_widths_.end()) {
                fatal(type.loc, "unknown type '" + type.name + "' (expected a bit<N> type)");
            }
            return it->second;
        }
    }
    return 1;
}

void Compiler::collect_types() {
    for (const auto& t : src_.typedefs) {
        if (typedef_widths_.count(t.name)) {
            error(t.loc, "duplicate typedef '" + t.name + "'");
            continue;
        }
        typedef_widths_[t.name] = resolve_width(t.type);
    }
    for (const auto& h : src_.headers) {
        if (header_types_.count(h.name)) {
            error(h.loc, "duplicate header type '" + h.name + "'");
            continue;
        }
        header_types_[h.name] = &h;
    }
    for (const auto& s : src_.structs) {
        if (struct_types_.count(s.name)) {
            error(s.loc, "duplicate struct type '" + s.name + "'");
            continue;
        }
        struct_types_[s.name] = &s;
    }
    for (const auto& c : src_.consts) {
        const int w = resolve_width(c.type);
        ConstVal v = const_eval(*c.value, w);
        v.value = v.value.resize(w);
        v.sized = true;
        if (consts_.count(c.name)) {
            error(c.loc, "duplicate constant '" + c.name + "'");
            continue;
        }
        consts_[c.name] = std::move(v);
    }
}

ConstVal Compiler::const_eval(const ast::Expr& e, int expected_width) {
    switch (e.kind) {
        case ast::Expr::Kind::number: {
            if (e.declared_width > 0) {
                return {e.value, true};
            }
            if (expected_width > 0) {
                const Bitvec v = e.value.resize(expected_width);
                if (!v.resize(64).eq(e.value)) {
                    error(e.loc, "literal does not fit in " +
                                     std::to_string(expected_width) + " bits");
                }
                return {v, true};
            }
            return {e.value, false};
        }
        case ast::Expr::Kind::boolean:
            return {Bitvec(1, e.bvalue ? 1 : 0), true};
        case ast::Expr::Kind::name: {
            const auto it = consts_.find(e.name);
            if (it == consts_.end()) {
                fatal(e.loc, "'" + e.name + "' is not a compile-time constant");
            }
            return it->second;
        }
        case ast::Expr::Kind::cast: {
            const int w = resolve_width(e.cast_type);
            ConstVal v = const_eval(*e.lhs, w);
            return {v.value.resize(w), true};
        }
        case ast::Expr::Kind::unary: {
            ConstVal v = const_eval(*e.lhs, expected_width);
            if (e.un == ast::UnOp::bnot) return {v.value.bnot(), v.sized};
            if (e.un == ast::UnOp::neg) return {v.value.neg(), v.sized};
            fatal(e.loc, "operator not allowed in constant expression");
        }
        case ast::Expr::Kind::binary: {
            ConstVal a = const_eval(*e.lhs, expected_width);
            ConstVal b = const_eval(*e.rhs, a.sized ? a.value.width() : expected_width);
            const int w = std::max(a.value.width(), b.value.width());
            const Bitvec av = a.value.resize(w);
            const Bitvec bv = b.value.resize(w);
            const bool sized = a.sized || b.sized;
            switch (e.bin) {
                case ast::BinOp::add: return {av.add(bv), sized};
                case ast::BinOp::sub: return {av.sub(bv), sized};
                case ast::BinOp::mul: return {av.mul(bv), sized};
                case ast::BinOp::band: return {av.band(bv), sized};
                case ast::BinOp::bor: return {av.bor(bv), sized};
                case ast::BinOp::bxor: return {av.bxor(bv), sized};
                case ast::BinOp::shl: return {av.shl(static_cast<int>(bv.to_u64())), sized};
                case ast::BinOp::shr: return {av.lshr(static_cast<int>(bv.to_u64())), sized};
                default:
                    fatal(e.loc, "operator not allowed in constant expression");
            }
        }
        default:
            fatal(e.loc, "expression is not a compile-time constant");
    }
}

void Compiler::add_std_metadata() {
    ir::Header std_meta;
    std_meta.name = "standard_metadata";
    std_meta.type_name = "standard_metadata_t";
    std_meta.is_metadata = true;
    const std::pair<const char*, int> fields[] = {
        {"ingress_port", 9},     {"egress_spec", 9},
        {"egress_port", 9},      {"packet_length", 32},
        {"ingress_global_timestamp", 48},
    };
    int offset = 0;
    for (const auto& [fname, fwidth] : fields) {
        std_meta.fields.push_back({fname, fwidth, offset});
        offset += fwidth;
    }
    std_meta.size_bits = offset;
    out_->stdmeta = static_cast<int>(out_->headers.size());
    out_->headers.push_back(std::move(std_meta));
    const int h = out_->stdmeta;
    out_->f_ingress_port = {h, 0};
    out_->f_egress_spec = {h, 1};
    out_->f_egress_port = {h, 2};
    out_->f_packet_length = {h, 3};
    out_->f_timestamp = {h, 4};
}

void Compiler::build_headers(const ast::ParserDecl& parser) {
    // The parser's `out` struct parameter defines the header instances; the
    // `inout` user-struct parameter (not standard_metadata_t) defines the
    // user metadata.
    for (const auto& p : parser.params) {
        if (p.type.kind != ast::TypeRef::Kind::named) continue;
        if (p.type.name == "packet_in" || p.type.name == "standard_metadata_t") continue;
        const auto it = struct_types_.find(p.type.name);
        if (it == struct_types_.end()) {
            fatal(p.loc, "unknown struct type '" + p.type.name + "' in parser signature");
        }
        const ast::StructDecl& st = *it->second;
        const bool is_headers = p.dir == ast::ParamDir::out;
        if (is_headers) {
            headers_struct_name_ = st.name;
            for (const auto& f : st.fields) {
                if (f.type.kind != ast::TypeRef::Kind::named ||
                    !header_types_.count(f.type.name)) {
                    fatal(f.loc, "headers struct field '" + f.name +
                                     "' must have a header type");
                }
                const ast::HeaderDecl& hd = *header_types_[f.type.name];
                ir::Header h;
                h.name = f.name;
                h.type_name = hd.name;
                int offset = 0;
                for (const auto& hf : hd.fields) {
                    const int w = resolve_width(hf.type);
                    h.fields.push_back({hf.name, w, offset});
                    offset += w;
                }
                h.size_bits = offset;
                if (out_->header_index(h.name) >= 0) {
                    error(f.loc, "duplicate header instance '" + h.name + "'");
                }
                out_->headers.push_back(std::move(h));
            }
        } else {
            usermeta_struct_name_ = st.name;
            ir::Header h;
            h.name = "meta";
            h.type_name = st.name;
            h.is_metadata = true;
            int offset = 0;
            for (const auto& f : st.fields) {
                const int w = resolve_width(f.type);
                h.fields.push_back({f.name, w, offset});
                offset += w;
            }
            h.size_bits = offset;
            out_->usermeta = static_cast<int>(out_->headers.size());
            out_->headers.push_back(std::move(h));
        }
    }
}

void Compiler::collect_externs_and_actions() {
    // Builtin NoAction is always action 0.
    ir::Action no_action;
    no_action.name = "NoAction";
    no_action.id = 0;
    action_ids_["NoAction"] = 0;
    out_->actions.push_back(std::move(no_action));

    for (const auto& control : src_.controls) {
        for (const auto& e : control.externs) {
            if (extern_ids_.count(e.name)) {
                error(e.loc, "duplicate extern instance '" + e.name + "'");
                continue;
            }
            ir::ExternDecl d;
            d.name = e.name;
            d.id = static_cast<int>(out_->externs.size());
            d.array_size = e.array_size;
            switch (e.kind) {
                case ast::ExternInstance::Kind::reg:
                    d.kind = ir::ExternDecl::Kind::reg;
                    d.elem_width = resolve_width(e.elem_type);
                    break;
                case ast::ExternInstance::Kind::counter:
                    d.kind = ir::ExternDecl::Kind::counter;
                    d.elem_width = 64;
                    break;
                case ast::ExternInstance::Kind::meter:
                    d.kind = ir::ExternDecl::Kind::meter;
                    d.elem_width = 2;
                    break;
            }
            if (d.array_size <= 0 || d.array_size > (1 << 24)) {
                error(e.loc, "extern array size out of range");
                d.array_size = 1;
            }
            extern_ids_[e.name] = d.id;
            out_->externs.push_back(std::move(d));
        }
        for (const auto& a : control.actions) {
            if (action_ids_.count(a.name)) {
                error(a.loc, "duplicate action '" + a.name +
                                 "' (action names are global in this architecture)");
                continue;
            }
            ir::Action act;
            act.name = a.name;
            act.id = static_cast<int>(out_->actions.size());
            for (const auto& p : a.params) {
                act.param_widths.push_back(resolve_width(p.type));
            }
            action_ids_[a.name] = act.id;
            out_->actions.push_back(std::move(act));
        }
    }
}

Scope Compiler::make_scope(const std::vector<ast::Param>& params, bool in_parser,
                           bool in_deparser) {
    Scope scope;
    scope.in_parser = in_parser;
    scope.in_deparser = in_deparser;
    for (const auto& p : params) {
        if (p.type.kind == ast::TypeRef::Kind::named) {
            if (p.type.name == "packet_in") {
                scope.roles[p.name] = Role::packet_in;
                continue;
            }
            if (p.type.name == "packet_out") {
                scope.roles[p.name] = Role::packet_out;
                continue;
            }
            if (p.type.name == "standard_metadata_t") {
                scope.roles[p.name] = Role::stdmeta;
                continue;
            }
            if (p.type.name == headers_struct_name_) {
                scope.roles[p.name] = Role::headers;
                continue;
            }
            if (p.type.name == usermeta_struct_name_) {
                scope.roles[p.name] = Role::usermeta;
                continue;
            }
        }
        fatal(p.loc, "parameter '" + p.name +
                         "' does not match the NdpSwitch architecture signature");
    }
    return scope;
}

std::optional<ir::FieldRef> Compiler::resolve_field(const ast::Expr& e, Scope& scope) {
    if (e.kind != ast::Expr::Kind::member) return std::nullopt;
    const ast::Expr& base = *e.base;
    // meta.f / smeta.f: one-level member on a struct-role parameter.
    if (base.kind == ast::Expr::Kind::name) {
        const auto role = scope.roles.find(base.name);
        if (role == scope.roles.end()) return std::nullopt;
        if (role->second == Role::usermeta) {
            if (out_->usermeta < 0) return std::nullopt;
            const int f = out_->headers[static_cast<std::size_t>(out_->usermeta)]
                              .field_index(e.name);
            if (f < 0) {
                fatal(e.loc, "metadata has no field '" + e.name + "'");
            }
            return ir::FieldRef{out_->usermeta, f};
        }
        if (role->second == Role::stdmeta) {
            const int f = out_->headers[static_cast<std::size_t>(out_->stdmeta)]
                              .field_index(e.name);
            if (f < 0) {
                fatal(e.loc, "standard_metadata has no field '" + e.name + "'");
            }
            return ir::FieldRef{out_->stdmeta, f};
        }
        return std::nullopt;
    }
    // hdr.instance.field: two-level member through the headers role.
    if (base.kind == ast::Expr::Kind::member &&
        base.base->kind == ast::Expr::Kind::name) {
        const auto role = scope.roles.find(base.base->name);
        if (role == scope.roles.end() || role->second != Role::headers) {
            return std::nullopt;
        }
        const int h = out_->header_index(base.name);
        if (h < 0) {
            fatal(base.loc, "no header instance '" + base.name + "'");
        }
        const int f = out_->headers[static_cast<std::size_t>(h)].field_index(e.name);
        if (f < 0) {
            fatal(e.loc, "header '" + base.name + "' has no field '" + e.name + "'");
        }
        return ir::FieldRef{h, f};
    }
    return std::nullopt;
}

int Compiler::resolve_header(const ast::Expr& e, Scope& scope) {
    if (e.kind != ast::Expr::Kind::member) return -1;
    if (e.base->kind != ast::Expr::Kind::name) return -1;
    const auto role = scope.roles.find(e.base->name);
    if (role == scope.roles.end() || role->second != Role::headers) return -1;
    return out_->header_index(e.name);
}

ir::ExprPtr Compiler::lower_bool(const ast::Expr& e, Scope& scope) {
    auto r = lower_expr(e, scope, -1);
    if (!r->is_bool) {
        fatal(e.loc, "expected a boolean expression");
    }
    return r;
}

std::pair<ir::ExprPtr, ir::ExprPtr> Compiler::lower_pair(const ast::Expr& lhs,
                                                         const ast::Expr& rhs,
                                                         Scope& scope) {
    // Width inference: try the side that is not an unsized literal first.
    const bool lhs_unsized =
        lhs.kind == ast::Expr::Kind::number && lhs.declared_width <= 0;
    if (lhs_unsized) {
        auto r = lower_expr(rhs, scope, -1);
        auto l = lower_expr(lhs, scope, r->width);
        return {std::move(l), std::move(r)};
    }
    auto l = lower_expr(lhs, scope, -1);
    auto r = lower_expr(rhs, scope, l->width);
    return {std::move(l), std::move(r)};
}

ir::ExprPtr Compiler::lower_expr(const ast::Expr& e, Scope& scope, int expected_width) {
    auto out = std::make_unique<ir::Expr>();
    switch (e.kind) {
        case ast::Expr::Kind::number: {
            ConstVal v = const_eval(e, expected_width);
            if (!v.sized) {
                fatal(e.loc, "cannot infer width of literal; add a width prefix (e.g. 8w1)");
            }
            out->kind = ir::Expr::Kind::constant;
            out->cvalue = v.value;
            out->width = v.value.width();
            return out;
        }
        case ast::Expr::Kind::boolean: {
            out->kind = ir::Expr::Kind::constant;
            out->cvalue = Bitvec(1, e.bvalue ? 1 : 0);
            out->width = 1;
            out->is_bool = true;
            return out;
        }
        case ast::Expr::Kind::name: {
            if (const auto it = scope.locals.find(e.name); it != scope.locals.end()) {
                out->kind = ir::Expr::Kind::local;
                out->index = it->second.index;
                out->width = it->second.width;
                return out;
            }
            if (const auto it = scope.params.find(e.name); it != scope.params.end()) {
                out->kind = ir::Expr::Kind::param;
                out->index = it->second.index;
                out->width = it->second.width;
                return out;
            }
            if (const auto it = consts_.find(e.name); it != consts_.end()) {
                out->kind = ir::Expr::Kind::constant;
                out->cvalue = it->second.value;
                out->width = it->second.value.width();
                return out;
            }
            fatal(e.loc, "unknown name '" + e.name + "'");
        }
        case ast::Expr::Kind::member: {
            if (auto fref = resolve_field(e, scope)) {
                out->kind = ir::Expr::Kind::field;
                out->fref = *fref;
                out->width = out_->field(*fref).width;
                return out;
            }
            fatal(e.loc, "cannot resolve '" + e.to_string() + "' to a field");
        }
        case ast::Expr::Kind::slice: {
            auto base = lower_expr(*e.base, scope, -1);
            const ConstVal hi = const_eval(*e.hi, 32);
            const ConstVal lo = const_eval(*e.lo, 32);
            const int hi_i = static_cast<int>(hi.value.to_u64());
            const int lo_i = static_cast<int>(lo.value.to_u64());
            if (lo_i < 0 || hi_i < lo_i || hi_i >= base->width) {
                fatal(e.loc, "slice bounds out of range");
            }
            out->kind = ir::Expr::Kind::slice;
            out->hi = hi_i;
            out->lo = lo_i;
            out->width = hi_i - lo_i + 1;
            out->a = std::move(base);
            return out;
        }
        case ast::Expr::Kind::unary: {
            if (e.un == ast::UnOp::lnot) {
                out->kind = ir::Expr::Kind::unary;
                out->un = e.un;
                out->a = lower_bool(*e.lhs, scope);
                out->width = 1;
                out->is_bool = true;
                return out;
            }
            auto a = lower_expr(*e.lhs, scope, expected_width);
            out->kind = ir::Expr::Kind::unary;
            out->un = e.un;
            out->width = a->width;
            out->a = std::move(a);
            return out;
        }
        case ast::Expr::Kind::binary: {
            switch (e.bin) {
                case ast::BinOp::land:
                case ast::BinOp::lor: {
                    out->kind = ir::Expr::Kind::binary;
                    out->bin = e.bin;
                    out->a = lower_bool(*e.lhs, scope);
                    out->b = lower_bool(*e.rhs, scope);
                    out->width = 1;
                    out->is_bool = true;
                    return out;
                }
                case ast::BinOp::eq:
                case ast::BinOp::ne:
                case ast::BinOp::lt:
                case ast::BinOp::le:
                case ast::BinOp::gt:
                case ast::BinOp::ge: {
                    auto [l, r] = lower_pair(*e.lhs, *e.rhs, scope);
                    if (l->width != r->width) {
                        fatal(e.loc, "comparison width mismatch: " +
                                         std::to_string(l->width) + " vs " +
                                         std::to_string(r->width));
                    }
                    out->kind = ir::Expr::Kind::binary;
                    out->bin = e.bin;
                    out->a = std::move(l);
                    out->b = std::move(r);
                    out->width = 1;
                    out->is_bool = true;
                    return out;
                }
                case ast::BinOp::concat: {
                    auto l = lower_expr(*e.lhs, scope, -1);
                    auto r = lower_expr(*e.rhs, scope, -1);
                    out->kind = ir::Expr::Kind::binary;
                    out->bin = e.bin;
                    out->width = l->width + r->width;
                    out->a = std::move(l);
                    out->b = std::move(r);
                    return out;
                }
                case ast::BinOp::shl:
                case ast::BinOp::shr: {
                    auto l = lower_expr(*e.lhs, scope, expected_width);
                    auto r = lower_expr(*e.rhs, scope, 32);
                    out->kind = ir::Expr::Kind::binary;
                    out->bin = e.bin;
                    out->width = l->width;
                    out->a = std::move(l);
                    out->b = std::move(r);
                    return out;
                }
                default: {
                    auto [l, r] = lower_pair(*e.lhs, *e.rhs, scope);
                    if (l->width != r->width) {
                        fatal(e.loc, "operand width mismatch: " +
                                         std::to_string(l->width) + " vs " +
                                         std::to_string(r->width));
                    }
                    out->kind = ir::Expr::Kind::binary;
                    out->bin = e.bin;
                    out->width = l->width;
                    out->a = std::move(l);
                    out->b = std::move(r);
                    return out;
                }
            }
        }
        case ast::Expr::Kind::ternary: {
            out->kind = ir::Expr::Kind::ternary;
            out->c = lower_bool(*e.cond, scope);
            auto [l, r] = lower_pair(*e.lhs, *e.rhs, scope);
            if (l->width != r->width) {
                fatal(e.loc, "conditional branches have different widths");
            }
            out->width = l->width;
            out->is_bool = l->is_bool && r->is_bool;
            out->a = std::move(l);
            out->b = std::move(r);
            return out;
        }
        case ast::Expr::Kind::cast: {
            const int w = resolve_width(e.cast_type);
            auto a = lower_expr(*e.lhs, scope, w);
            out->kind = ir::Expr::Kind::cast;
            out->width = w;
            out->is_bool = e.cast_type.kind == ast::TypeRef::Kind::boolean;
            out->a = std::move(a);
            return out;
        }
        case ast::Expr::Kind::call: {
            // Only hdr.x.isValid() is an expression-position builtin.
            const ast::Expr& callee = *e.callee;
            if (callee.kind == ast::Expr::Kind::member && callee.name == "isValid" &&
                e.args.empty()) {
                const int h = resolve_header(*callee.base, scope);
                if (h < 0) {
                    fatal(e.loc, "isValid() receiver is not a header instance");
                }
                out->kind = ir::Expr::Kind::is_valid;
                out->fref = {h, 0};
                out->width = 1;
                out->is_bool = true;
                return out;
            }
            fatal(e.loc, "call '" + e.to_string() + "' is not valid in an expression");
        }
    }
    fatal(e.loc, "unsupported expression");
}

void Compiler::lower_call(const ast::Expr& call, Scope& scope,
                          std::vector<ir::StmtPtr>& out) {
    const ast::Expr& callee = *call.callee;
    auto stmt = std::make_unique<ir::Stmt>();

    // --- global builtin functions: name(...) ---
    if (callee.kind == ast::Expr::Kind::name) {
        if (callee.name == "mark_to_drop") {
            // Accept mark_to_drop(smeta) or mark_to_drop().
            stmt->kind = ir::Stmt::Kind::extern_op;
            stmt->ext = ir::ExternKind::mark_to_drop;
            out.push_back(std::move(stmt));
            return;
        }
        if (callee.name == "hash") {
            if (call.args.size() < 2) {
                fatal(call.loc, "hash(dst, inputs...) needs a destination and inputs");
            }
            const auto dst = resolve_field(*call.args[0], scope);
            if (!dst) fatal(call.args[0]->loc, "hash destination must be a field");
            stmt->kind = ir::Stmt::Kind::extern_op;
            stmt->ext = ir::ExternKind::hash;
            stmt->ext_dst = *dst;
            for (std::size_t i = 1; i < call.args.size(); ++i) {
                stmt->hash_inputs.push_back(lower_expr(*call.args[i], scope, -1));
            }
            out.push_back(std::move(stmt));
            return;
        }
        if (callee.name == "ipv4_checksum_update") {
            if (call.args.size() != 2) {
                fatal(call.loc,
                      "ipv4_checksum_update(header, checksum_field) takes 2 arguments");
            }
            const int h = resolve_header(*call.args[0], scope);
            if (h < 0) fatal(call.args[0]->loc, "first argument must be a header");
            const auto f = resolve_field(*call.args[1], scope);
            if (!f || f->header != h) {
                fatal(call.args[1]->loc,
                      "second argument must be a checksum field of that header");
            }
            stmt->kind = ir::Stmt::Kind::extern_op;
            stmt->ext = ir::ExternKind::checksum_update;
            stmt->hash_header = h;
            stmt->checksum_field = f->field;
            out.push_back(std::move(stmt));
            return;
        }
        // Direct action invocation.
        if (const auto it = action_ids_.find(callee.name); it != action_ids_.end()) {
            if (scope.in_parser || scope.in_deparser) {
                fatal(call.loc, "actions cannot be invoked here");
            }
            const ir::Action& act = out_->actions[static_cast<std::size_t>(it->second)];
            if (call.args.size() != act.param_widths.size()) {
                fatal(call.loc, "action '" + callee.name + "' expects " +
                                    std::to_string(act.param_widths.size()) +
                                    " arguments");
            }
            stmt->kind = ir::Stmt::Kind::call_action;
            stmt->action = it->second;
            for (std::size_t i = 0; i < call.args.size(); ++i) {
                stmt->action_args.push_back(
                    lower_expr(*call.args[i], scope, act.param_widths[i]));
            }
            out.push_back(std::move(stmt));
            return;
        }
        fatal(call.loc, "unknown function '" + callee.name + "'");
    }

    // --- member builtins: recv.obj(...) ---
    if (callee.kind != ast::Expr::Kind::member) {
        fatal(call.loc, "expected a call statement");
    }
    const ast::Expr& base = *callee.base;
    const std::string& method = callee.name;

    // packet_in / packet_out methods.
    if (base.kind == ast::Expr::Kind::name) {
        const auto role = scope.roles.find(base.name);
        if (role != scope.roles.end() && role->second == Role::packet_in) {
            if (!scope.in_parser) fatal(call.loc, "packet_in is only usable in the parser");
            fatal(call.loc, "packet method handled by parser lowering");  // unreachable
        }
        if (role != scope.roles.end() && role->second == Role::packet_out) {
            fatal(call.loc, "packet_out is only usable in the deparser");
        }
        // Table or extern instance methods.
        if (const auto it = table_ids_.find(base.name); it != table_ids_.end()) {
            if (method != "apply" || !call.args.empty()) {
                fatal(call.loc, "tables only support .apply()");
            }
            if (scope.in_parser || scope.in_action || scope.in_deparser) {
                fatal(call.loc, "table apply is only allowed in a control apply block");
            }
            stmt->kind = ir::Stmt::Kind::apply_table;
            stmt->table = it->second;
            out.push_back(std::move(stmt));
            return;
        }
        if (const auto it = extern_ids_.find(base.name); it != extern_ids_.end()) {
            const ir::ExternDecl& decl = out_->externs[static_cast<std::size_t>(it->second)];
            stmt->kind = ir::Stmt::Kind::extern_op;
            stmt->extern_id = it->second;
            if (decl.kind == ir::ExternDecl::Kind::reg && method == "read") {
                if (call.args.size() != 2) fatal(call.loc, "register.read(dst, index)");
                const auto dst = resolve_field(*call.args[0], scope);
                if (!dst) fatal(call.loc, "register.read destination must be a field");
                stmt->ext = ir::ExternKind::register_read;
                stmt->ext_dst = *dst;
                stmt->index_expr = lower_expr(*call.args[1], scope, 32);
            } else if (decl.kind == ir::ExternDecl::Kind::reg && method == "write") {
                if (call.args.size() != 2) fatal(call.loc, "register.write(index, value)");
                stmt->ext = ir::ExternKind::register_write;
                stmt->index_expr = lower_expr(*call.args[0], scope, 32);
                stmt->value = lower_expr(*call.args[1], scope, decl.elem_width);
                if (stmt->value->width != decl.elem_width) {
                    fatal(call.loc, "register value width mismatch");
                }
            } else if (decl.kind == ir::ExternDecl::Kind::counter && method == "count") {
                if (call.args.size() != 1) fatal(call.loc, "counter.count(index)");
                stmt->ext = ir::ExternKind::counter_count;
                stmt->index_expr = lower_expr(*call.args[0], scope, 32);
            } else if (decl.kind == ir::ExternDecl::Kind::meter && method == "execute") {
                if (call.args.size() != 2) fatal(call.loc, "meter.execute(index, dst)");
                stmt->ext = ir::ExternKind::meter_execute;
                stmt->index_expr = lower_expr(*call.args[0], scope, 32);
                const auto dst = resolve_field(*call.args[1], scope);
                if (!dst) fatal(call.loc, "meter.execute destination must be a field");
                stmt->ext_dst = *dst;
            } else {
                fatal(call.loc, "extern '" + base.name + "' has no method '" + method + "'");
            }
            out.push_back(std::move(stmt));
            return;
        }
    }

    // header.setValid() / setInvalid().
    const int h = resolve_header(base, scope);
    if (h >= 0 && (method == "setValid" || method == "setInvalid")) {
        if (!call.args.empty()) fatal(call.loc, method + "() takes no arguments");
        stmt->kind = ir::Stmt::Kind::set_valid;
        stmt->dst = {h, 0};
        stmt->make_valid = method == "setValid";
        out.push_back(std::move(stmt));
        return;
    }
    fatal(call.loc, "cannot resolve call '" + call.to_string() + "'");
}

void Compiler::lower_stmt(const ast::Stmt& s, Scope& scope,
                          std::vector<ir::StmtPtr>& out) {
    switch (s.kind) {
        case ast::Stmt::Kind::block: {
            // Locals declared inside nested blocks stay visible to the end of
            // the body; duplicate names are rejected, which keeps the slot
            // model simple without changing observable behaviour.
            for (const auto& st : s.body) lower_stmt(*st, scope, out);
            return;
        }
        case ast::Stmt::Kind::var_decl: {
            if (!scope.local_widths) {
                fatal(s.loc, "variable declarations are not allowed here");
            }
            if (scope.locals.count(s.var_name) || scope.params.count(s.var_name)) {
                fatal(s.loc, "duplicate variable '" + s.var_name + "'");
            }
            const int w = resolve_width(s.var_type);
            const int slot = static_cast<int>(scope.local_widths->size());
            scope.local_widths->push_back(w);
            scope.locals[s.var_name] = {slot, w};
            if (s.var_init) {
                auto stmt = std::make_unique<ir::Stmt>();
                stmt->kind = ir::Stmt::Kind::assign_local;
                stmt->local_index = slot;
                stmt->value = lower_expr(*s.var_init, scope, w);
                if (stmt->value->width != w) {
                    fatal(s.loc, "initializer width mismatch");
                }
                out.push_back(std::move(stmt));
            }
            return;
        }
        case ast::Stmt::Kind::assign: {
            const ast::Expr& lhs = *s.lhs;
            auto stmt = std::make_unique<ir::Stmt>();
            if (lhs.kind == ast::Expr::Kind::slice) {
                const auto fref = resolve_field(*lhs.base, scope);
                if (!fref) fatal(lhs.loc, "slice assignment target must be a field");
                const ConstVal hi = const_eval(*lhs.hi, 32);
                const ConstVal lo = const_eval(*lhs.lo, 32);
                const int hi_i = static_cast<int>(hi.value.to_u64());
                const int lo_i = static_cast<int>(lo.value.to_u64());
                const int fw = out_->field(*fref).width;
                if (lo_i < 0 || hi_i < lo_i || hi_i >= fw) {
                    fatal(lhs.loc, "slice bounds out of range");
                }
                stmt->kind = ir::Stmt::Kind::assign_slice;
                stmt->dst = *fref;
                stmt->hi = hi_i;
                stmt->lo = lo_i;
                stmt->value = lower_expr(*s.rhs, scope, hi_i - lo_i + 1);
                if (stmt->value->width != hi_i - lo_i + 1) {
                    fatal(s.loc, "slice assignment width mismatch");
                }
                out.push_back(std::move(stmt));
                return;
            }
            if (auto fref = resolve_field(lhs, scope)) {
                const int w = out_->field(*fref).width;
                stmt->kind = ir::Stmt::Kind::assign_field;
                stmt->dst = *fref;
                stmt->value = lower_expr(*s.rhs, scope, w);
                if (stmt->value->width != w) {
                    fatal(s.loc, "assignment width mismatch: field is " +
                                     std::to_string(w) + " bits, value is " +
                                     std::to_string(stmt->value->width));
                }
                out.push_back(std::move(stmt));
                return;
            }
            if (lhs.kind == ast::Expr::Kind::name) {
                const auto it = scope.locals.find(lhs.name);
                if (it != scope.locals.end()) {
                    stmt->kind = ir::Stmt::Kind::assign_local;
                    stmt->local_index = it->second.index;
                    stmt->value = lower_expr(*s.rhs, scope, it->second.width);
                    if (stmt->value->width != it->second.width) {
                        fatal(s.loc, "assignment width mismatch");
                    }
                    out.push_back(std::move(stmt));
                    return;
                }
                if (scope.params.count(lhs.name)) {
                    fatal(s.loc, "action parameters are read-only");
                }
            }
            fatal(s.loc, "cannot assign to '" + lhs.to_string() + "'");
        }
        case ast::Stmt::Kind::if_stmt: {
            auto stmt = std::make_unique<ir::Stmt>();
            stmt->kind = ir::Stmt::Kind::if_stmt;
            stmt->cond = lower_bool(*s.cond, scope);
            lower_stmt(*s.then_branch, scope, stmt->then_body);
            if (s.else_branch) {
                lower_stmt(*s.else_branch, scope, stmt->else_body);
            }
            out.push_back(std::move(stmt));
            return;
        }
        case ast::Stmt::Kind::call:
            lower_call(*s.call, scope, out);
            return;
        case ast::Stmt::Kind::exit: {
            auto stmt = std::make_unique<ir::Stmt>();
            stmt->kind = ir::Stmt::Kind::exit_pipeline;
            out.push_back(std::move(stmt));
            return;
        }
        case ast::Stmt::Kind::ret:
            fatal(s.loc, "'return' is not supported; use 'exit'");
        default:
            fatal(s.loc, "unsupported statement");
    }
}

void Compiler::lower_parser(const ast::ParserDecl& parser) {
    Scope scope = make_scope(parser.params, /*in_parser=*/true, /*in_deparser=*/false);

    // Assign state ids; `start` must exist.
    for (const auto& st : parser.states) {
        if (state_ids_.count(st.name)) {
            error(st.loc, "duplicate parser state '" + st.name + "'");
            continue;
        }
        state_ids_[st.name] = static_cast<int>(state_ids_.size());
    }
    const auto resolve_state = [&](const std::string& name, SourceLoc loc) -> int {
        if (name == "accept") return ir::kAccept;
        if (name == "reject") return ir::kReject;
        const auto it = state_ids_.find(name);
        if (it == state_ids_.end()) {
            fatal(loc, "unknown parser state '" + name + "'");
        }
        return it->second;
    };
    if (!state_ids_.count("start")) {
        fatal(parser.loc, "parser has no 'start' state");
    }
    out_->start_state = state_ids_["start"];

    out_->parser_states.resize(parser.states.size());
    for (const auto& st : parser.states) {
        ir::ParserState ir_state;
        ir_state.name = st.name;
        for (const auto& stmt : st.stmts) {
            if (stmt->kind == ast::Stmt::Kind::call) {
                const ast::Expr& call = *stmt->call;
                const ast::Expr& callee = *call.callee;
                if (callee.kind == ast::Expr::Kind::member &&
                    callee.base->kind == ast::Expr::Kind::name &&
                    scope.roles.count(callee.base->name) &&
                    scope.roles[callee.base->name] == Role::packet_in) {
                    ir::ParserOp op;
                    if (callee.name == "extract") {
                        if (call.args.size() != 1) {
                            fatal(call.loc, "extract takes one header argument");
                        }
                        const int h = resolve_header(*call.args[0], scope);
                        if (h < 0) {
                            fatal(call.loc, "extract argument must be a header instance");
                        }
                        op.kind = ir::ParserOp::Kind::extract;
                        op.header = h;
                    } else if (callee.name == "advance") {
                        if (call.args.size() != 1) {
                            fatal(call.loc, "advance takes a bit count");
                        }
                        op.kind = ir::ParserOp::Kind::advance;
                        op.bits = static_cast<int>(
                            const_eval(*call.args[0], 32).value.to_u64());
                    } else {
                        fatal(call.loc, "packet_in has no method '" + callee.name + "'");
                    }
                    ir_state.ops.push_back(std::move(op));
                    continue;
                }
                fatal(call.loc, "only packet extract/advance calls are allowed in parser states");
            }
            if (stmt->kind == ast::Stmt::Kind::assign) {
                const auto fref = resolve_field(*stmt->lhs, scope);
                if (!fref) {
                    fatal(stmt->loc, "parser assignments must target metadata fields");
                }
                ir::ParserOp op;
                op.kind = ir::ParserOp::Kind::assign;
                op.dst = *fref;
                op.value = lower_expr(*stmt->rhs, scope, out_->field(*fref).width);
                ir_state.ops.push_back(std::move(op));
                continue;
            }
            fatal(stmt->loc, "statement not allowed in a parser state");
        }
        // Transition.
        if (st.tkind == ast::ParserState::TransitionKind::direct) {
            ir_state.transition.kind = ir::Transition::Kind::direct;
            ir_state.transition.next_state = resolve_state(st.next_state, st.loc);
        } else {
            ir_state.transition.kind = ir::Transition::Kind::select;
            std::vector<int> key_widths;
            for (const auto& k : st.select_exprs) {
                auto e = lower_expr(*k, scope, -1);
                key_widths.push_back(e->width);
                ir_state.transition.keys.push_back(std::move(e));
            }
            for (const auto& c : st.cases) {
                if (c.keys.size() != key_widths.size()) {
                    fatal(c.loc, "select case arity mismatch");
                }
                ir::Transition::Case ir_case;
                for (std::size_t i = 0; i < c.keys.size(); ++i) {
                    ir::Keyset ks;
                    const int w = key_widths[i];
                    switch (c.keys[i].kind) {
                        case ast::Keyset::Kind::any:
                            ks.any = true;
                            break;
                        case ast::Keyset::Kind::value:
                            ks.value = const_eval(*c.keys[i].value, w).value.resize(w);
                            ks.mask = Bitvec::ones(w);
                            break;
                        case ast::Keyset::Kind::masked:
                            ks.value = const_eval(*c.keys[i].value, w).value.resize(w);
                            ks.mask = const_eval(*c.keys[i].mask, w).value.resize(w);
                            break;
                    }
                    ir_case.sets.push_back(std::move(ks));
                }
                ir_case.next_state = resolve_state(c.next_state, c.loc);
                ir_state.transition.cases.push_back(std::move(ir_case));
            }
        }
        out_->parser_states[static_cast<std::size_t>(state_ids_[st.name])] =
            std::move(ir_state);
    }
}

void Compiler::lower_actions_of(const ast::ControlDecl& control) {
    for (const auto& a : control.actions) {
        const auto it = action_ids_.find(a.name);
        if (it == action_ids_.end()) continue;  // duplicate reported earlier
        ir::Action& act = out_->actions[static_cast<std::size_t>(it->second)];
        if (!act.body.empty()) continue;
        Scope scope = make_scope(control.params, false, false);
        scope.in_action = true;
        scope.local_widths = &act.local_widths;
        for (std::size_t i = 0; i < a.params.size(); ++i) {
            scope.params[a.params[i].name] = {static_cast<int>(i),
                                              act.param_widths[i]};
        }
        for (const auto& s : a.body) {
            lower_stmt(*s, scope, act.body);
        }
    }
}

void Compiler::lower_tables_of(const ast::ControlDecl& control) {
    for (const auto& t : control.tables) {
        if (table_ids_.count(t.name)) {
            error(t.loc, "duplicate table '" + t.name + "'");
            continue;
        }
        ir::Table table;
        table.name = t.name;
        table.id = static_cast<int>(out_->tables.size());
        table.size = t.size;
        Scope scope = make_scope(control.params, false, false);
        int lpm_count = 0;
        for (const auto& k : t.keys) {
            ir::TableKey key;
            key.expr = lower_expr(*k.expr, scope, -1);
            key.width = key.expr->width;
            key.name = k.expr->to_string();
            if (k.match_kind == "exact") {
                key.kind = ir::MatchKind::exact;
            } else if (k.match_kind == "lpm") {
                key.kind = ir::MatchKind::lpm;
                ++lpm_count;
            } else if (k.match_kind == "ternary") {
                key.kind = ir::MatchKind::ternary;
            } else {
                error(k.loc, "unknown match kind '" + k.match_kind + "'");
                key.kind = ir::MatchKind::exact;
            }
            table.keys.push_back(std::move(key));
        }
        if (lpm_count > 0 && table.keys.size() != 1) {
            error(t.loc, "an lpm table must have exactly one key in this architecture");
        }
        if (lpm_count > 0 && table.has_ternary()) {
            error(t.loc, "lpm and ternary keys cannot be mixed");
        }
        for (const auto& ar : t.actions) {
            const auto it = action_ids_.find(ar.name);
            if (it == action_ids_.end()) {
                error(ar.loc, "table references unknown action '" + ar.name + "'");
                continue;
            }
            table.actions.push_back(it->second);
        }
        if (table.actions.empty()) {
            table.actions.push_back(0);  // NoAction
        }
        table.default_action = 0;
        if (t.default_action) {
            const auto it = action_ids_.find(t.default_action->name);
            if (it == action_ids_.end()) {
                error(t.default_action->loc, "unknown default action '" +
                                                 t.default_action->name + "'");
            } else {
                table.default_action = it->second;
                const ir::Action& act =
                    out_->actions[static_cast<std::size_t>(it->second)];
                if (t.default_action->args.size() != act.param_widths.size()) {
                    error(t.default_action->loc,
                          "default action argument count mismatch");
                } else {
                    for (std::size_t i = 0; i < act.param_widths.size(); ++i) {
                        table.default_args.push_back(
                            const_eval(*t.default_action->args[i], act.param_widths[i])
                                .value.resize(act.param_widths[i]));
                    }
                }
                bool listed = false;
                for (const int a : table.actions) listed |= a == it->second;
                if (!listed) table.actions.push_back(it->second);
            }
        }
        table_ids_[t.name] = table.id;
        out_->tables.push_back(std::move(table));
    }
}

void Compiler::lower_control(const ast::ControlDecl& control, ir::Control& out_control) {
    out_control.name = control.name;
    Scope scope = make_scope(control.params, false, false);
    scope.local_widths = &out_control.local_widths;
    for (const auto& s : control.apply_body) {
        lower_stmt(*s, scope, out_control.body);
    }
}

void Compiler::lower_deparser(const ast::ControlDecl& control) {
    Scope scope = make_scope(control.params, false, /*in_deparser=*/true);
    for (const auto& s : control.apply_body) {
        if (s->kind != ast::Stmt::Kind::call) {
            fatal(s->loc, "deparser apply block may only contain emit calls");
        }
        const ast::Expr& call = *s->call;
        const ast::Expr& callee = *call.callee;
        if (callee.kind != ast::Expr::Kind::member || callee.name != "emit" ||
            callee.base->kind != ast::Expr::Kind::name ||
            !scope.roles.count(callee.base->name) ||
            scope.roles[callee.base->name] != Role::packet_out) {
            fatal(call.loc, "deparser statements must be pkt.emit(header)");
        }
        if (call.args.size() != 1) fatal(call.loc, "emit takes one header");
        const int h = resolve_header(*call.args[0], scope);
        if (h < 0) fatal(call.loc, "emit argument must be a header instance");
        out_->deparse_order.push_back(h);
    }
}

const ast::ControlDecl* Compiler::find_control(const std::string& name, SourceLoc loc) {
    for (const auto& c : src_.controls) {
        if (c.name == name) return &c;
    }
    fatal(loc, "package references unknown control '" + name + "'");
}

const ast::ParserDecl* Compiler::find_parser(const std::string& name, SourceLoc loc) {
    for (const auto& p : src_.parsers) {
        if (p.name == name) return &p;
    }
    fatal(loc, "package references unknown parser '" + name + "'");
}

CompileResult Compiler::run() {
    try {
        collect_types();

        if (!src_.package) {
            fatal({}, "program has no package instantiation "
                      "(expected NdpSwitch(Parser(), Ingress(), [Egress(),] Deparser()) main;)");
        }
        const ast::PackageInst& pkg = *src_.package;
        if (pkg.package_name != "NdpSwitch") {
            error(pkg.loc, "unknown package '" + pkg.package_name +
                               "'; expected NdpSwitch");
        }
        if (pkg.args.size() != 3 && pkg.args.size() != 4) {
            fatal(pkg.loc, "NdpSwitch takes (parser, ingress, [egress,] deparser)");
        }
        const ast::ParserDecl* parser = find_parser(pkg.args[0], pkg.loc);
        const ast::ControlDecl* ingress = find_control(pkg.args[1], pkg.loc);
        const ast::ControlDecl* egress =
            pkg.args.size() == 4 ? find_control(pkg.args[2], pkg.loc) : nullptr;
        const ast::ControlDecl* deparser = find_control(pkg.args.back(), pkg.loc);

        add_std_metadata();
        build_headers(*parser);
        collect_externs_and_actions();
        lower_parser(*parser);

        // Tables/actions of both match-action controls must be lowered before
        // their apply bodies so direct calls and applies resolve.
        lower_actions_of(*ingress);
        lower_tables_of(*ingress);
        if (egress) {
            lower_actions_of(*egress);
            lower_tables_of(*egress);
        }
        lower_control(*ingress, out_->ingress);
        if (egress) {
            ir::Control e;
            lower_control(*egress, e);
            out_->egress = std::move(e);
        }
        lower_deparser(*deparser);
    } catch (const Abort&) {
        // fatal() already recorded the diagnostic.
    }

    CompileResult result;
    result.ok = !diags_.has_errors();
    if (result.ok) {
        ir::finalize(*out_);
        result.program = std::move(out_);
    }
    return result;
}

}  // namespace

CompileResult compile(const ast::Program& prog, std::string name,
                      util::DiagEngine& diags) {
    Compiler c(prog, std::move(name), diags);
    return c.run();
}

CompileResult try_compile_source(std::string_view source, std::string name,
                                 util::DiagEngine& diags) {
    ast::Program prog = parse_source(source, diags);
    if (diags.has_errors()) {
        return {};
    }
    return compile(prog, std::move(name), diags);
}

std::unique_ptr<ir::Program> compile_source(std::string_view source, std::string name) {
    util::DiagEngine diags;
    CompileResult result = try_compile_source(source, std::move(name), diags);
    if (!result.ok) {
        throw util::CompileError(diags.report());
    }
    return std::move(result.program);
}

}  // namespace ndb::p4
