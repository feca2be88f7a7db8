#include "verify/expr.h"

#include <stdexcept>

#include "util/strings.h"

namespace ndb::verify {

namespace {

SExpr make(Op op, int width, bool is_bool) {
    auto n = std::make_shared<Node>();
    n->op = op;
    n->width = width;
    n->is_bool = is_bool;
    return n;
}

const Bitvec& cval(const SExpr& e) { return e->value; }

void require_same_width(const SExpr& a, const SExpr& b, const char* who) {
    if (a->width != b->width) {
        throw std::invalid_argument(std::string(who) + ": width mismatch " +
                                    std::to_string(a->width) + " vs " +
                                    std::to_string(b->width));
    }
}

SExpr binary(Op op, SExpr a, SExpr b, int width, bool is_bool) {
    auto n = std::make_shared<Node>();
    n->op = op;
    n->width = width;
    n->is_bool = is_bool;
    n->a = std::move(a);
    n->b = std::move(b);
    return n;
}

}  // namespace

SExpr sv_const(const Bitvec& value) {
    auto n = make(Op::constant, value.width(), false);
    const_cast<Node*>(n.get())->value = value;
    return n;
}

SExpr sv_const_u(int width, std::uint64_t value) {
    return sv_const(Bitvec(width, value));
}

SExpr sv_bool(bool value) {
    auto n = make(Op::bool_const, 1, true);
    const_cast<Node*>(n.get())->value = Bitvec(1, value ? 1 : 0);
    return n;
}

SExpr sv_var(int var_id, int width, std::string name) {
    auto n = make(Op::var, width, false);
    auto* m = const_cast<Node*>(n.get());
    m->var_id = var_id;
    m->name = std::move(name);
    return n;
}

SExpr sv_bool_var(int var_id, std::string name) {
    auto n = make(Op::bool_var, 1, true);
    auto* m = const_cast<Node*>(n.get());
    m->var_id = var_id;
    m->name = std::move(name);
    return n;
}

bool sv_is_const(const SExpr& e) {
    return e->op == Op::constant || e->op == Op::bool_const;
}
bool sv_is_true(const SExpr& e) { return sv_is_const(e) && !e->value.is_zero(); }
bool sv_is_false(const SExpr& e) { return sv_is_const(e) && e->value.is_zero(); }

SExpr sv_add(SExpr a, SExpr b) {
    require_same_width(a, b, "sv_add");
    if (sv_is_const(a) && sv_is_const(b)) return sv_const(cval(a).add(cval(b)));
    if (sv_is_const(b) && cval(b).is_zero()) return a;
    if (sv_is_const(a) && cval(a).is_zero()) return b;
    const int w = a->width;
    return binary(Op::add, std::move(a), std::move(b), w, false);
}

SExpr sv_sub(SExpr a, SExpr b) {
    require_same_width(a, b, "sv_sub");
    if (sv_is_const(a) && sv_is_const(b)) return sv_const(cval(a).sub(cval(b)));
    if (sv_is_const(b) && cval(b).is_zero()) return a;
    const int w = a->width;
    return binary(Op::sub, std::move(a), std::move(b), w, false);
}

SExpr sv_mul(SExpr a, SExpr b) {
    require_same_width(a, b, "sv_mul");
    if (sv_is_const(a) && sv_is_const(b)) return sv_const(cval(a).mul(cval(b)));
    const int w = a->width;
    return binary(Op::mul, std::move(a), std::move(b), w, false);
}

SExpr sv_and(SExpr a, SExpr b) {
    require_same_width(a, b, "sv_and");
    if (sv_is_const(a) && sv_is_const(b)) return sv_const(cval(a).band(cval(b)));
    if (sv_is_const(a) && cval(a).is_zero()) return a;
    if (sv_is_const(b) && cval(b).is_zero()) return b;
    if (sv_is_const(a) && cval(a).is_ones()) return b;
    if (sv_is_const(b) && cval(b).is_ones()) return a;
    const int w = a->width;
    return binary(Op::band, std::move(a), std::move(b), w, false);
}

SExpr sv_or(SExpr a, SExpr b) {
    require_same_width(a, b, "sv_or");
    if (sv_is_const(a) && sv_is_const(b)) return sv_const(cval(a).bor(cval(b)));
    if (sv_is_const(a) && cval(a).is_zero()) return b;
    if (sv_is_const(b) && cval(b).is_zero()) return a;
    const int w = a->width;
    return binary(Op::bor, std::move(a), std::move(b), w, false);
}

SExpr sv_xor(SExpr a, SExpr b) {
    require_same_width(a, b, "sv_xor");
    if (sv_is_const(a) && sv_is_const(b)) return sv_const(cval(a).bxor(cval(b)));
    const int w = a->width;
    return binary(Op::bxor, std::move(a), std::move(b), w, false);
}

SExpr sv_not(SExpr a) {
    if (sv_is_const(a)) return sv_const(cval(a).bnot());
    auto n = make(Op::bnot, a->width, false);
    const_cast<Node*>(n.get())->a = std::move(a);
    return n;
}

SExpr sv_neg(SExpr a) {
    const int w = a->width;
    return sv_add(sv_not(std::move(a)), sv_const_u(w, 1));
}

SExpr sv_shl(SExpr a, SExpr amount) {
    if (sv_is_const(a) && sv_is_const(amount)) {
        const auto amt = static_cast<int>(
            std::min<std::uint64_t>(cval(amount).to_u64(),
                                    static_cast<std::uint64_t>(a->width)));
        return sv_const(cval(a).shl(amt));
    }
    const int w = a->width;
    return binary(Op::shl, std::move(a), std::move(amount), w, false);
}

SExpr sv_lshr(SExpr a, SExpr amount) {
    if (sv_is_const(a) && sv_is_const(amount)) {
        const auto amt = static_cast<int>(
            std::min<std::uint64_t>(cval(amount).to_u64(),
                                    static_cast<std::uint64_t>(a->width)));
        return sv_const(cval(a).lshr(amt));
    }
    const int w = a->width;
    return binary(Op::lshr, std::move(a), std::move(amount), w, false);
}

SExpr sv_eq(SExpr a, SExpr b) {
    require_same_width(a, b, "sv_eq");
    if (sv_is_const(a) && sv_is_const(b)) return sv_bool(cval(a).eq(cval(b)));
    return binary(Op::eq, std::move(a), std::move(b), 1, true);
}

SExpr sv_ne(SExpr a, SExpr b) { return sv_lnot(sv_eq(std::move(a), std::move(b))); }

SExpr sv_ult(SExpr a, SExpr b) {
    require_same_width(a, b, "sv_ult");
    if (sv_is_const(a) && sv_is_const(b)) return sv_bool(cval(a).ult(cval(b)));
    return binary(Op::ult, std::move(a), std::move(b), 1, true);
}

SExpr sv_ule(SExpr a, SExpr b) {
    require_same_width(a, b, "sv_ule");
    if (sv_is_const(a) && sv_is_const(b)) return sv_bool(cval(a).ule(cval(b)));
    return binary(Op::ule, std::move(a), std::move(b), 1, true);
}

SExpr sv_land(SExpr a, SExpr b) {
    if (sv_is_false(a)) return a;
    if (sv_is_false(b)) return b;
    if (sv_is_true(a)) return b;
    if (sv_is_true(b)) return a;
    return binary(Op::bool_and, std::move(a), std::move(b), 1, true);
}

SExpr sv_lor(SExpr a, SExpr b) {
    if (sv_is_true(a)) return a;
    if (sv_is_true(b)) return b;
    if (sv_is_false(a)) return b;
    if (sv_is_false(b)) return a;
    return binary(Op::bool_or, std::move(a), std::move(b), 1, true);
}

SExpr sv_lnot(SExpr a) {
    if (sv_is_const(a)) return sv_bool(a->value.is_zero());
    if (a->op == Op::bool_not) return a->a;  // double negation
    auto n = make(Op::bool_not, 1, true);
    const_cast<Node*>(n.get())->a = std::move(a);
    return n;
}

SExpr sv_ite(SExpr c, SExpr a, SExpr b) {
    require_same_width(a, b, "sv_ite");
    if (sv_is_true(c)) return a;
    if (sv_is_false(c)) return b;
    auto n = make(Op::ite, a->width, a->is_bool && b->is_bool);
    auto* m = const_cast<Node*>(n.get());
    m->c = std::move(c);
    m->a = std::move(a);
    m->b = std::move(b);
    return n;
}

SExpr sv_slice(SExpr a, int hi, int lo) {
    if (lo < 0 || hi < lo || hi >= a->width) {
        throw std::out_of_range("sv_slice: bad bounds");
    }
    if (sv_is_const(a)) return sv_const(cval(a).slice(hi, lo));
    if (hi == a->width - 1 && lo == 0) return a;
    auto n = make(Op::slice, hi - lo + 1, false);
    auto* m = const_cast<Node*>(n.get());
    m->a = std::move(a);
    m->hi = hi;
    m->lo = lo;
    return n;
}

SExpr sv_concat(SExpr a, SExpr b) {
    if (a->width == 0) return b;
    if (b->width == 0) return a;
    if (sv_is_const(a) && sv_is_const(b)) {
        return sv_const(Bitvec::concat(cval(a), cval(b)));
    }
    const int w = a->width + b->width;
    return binary(Op::concat, std::move(a), std::move(b), w, false);
}

SExpr sv_resize(SExpr a, int width) {
    if (a->width == width) return a;
    if (sv_is_const(a)) return sv_const(cval(a).resize(width));
    if (width < a->width) return sv_slice(std::move(a), width - 1, 0);
    auto n = make(Op::zext, width, false);
    const_cast<Node*>(n.get())->a = std::move(a);
    return n;
}

std::string sv_to_string(const SExpr& e) {
    const auto infix = [&](const char* op) {
        return util::format("(%s %s %s)", sv_to_string(e->a).c_str(), op,
                            sv_to_string(e->b).c_str());
    };
    switch (e->op) {
        case Op::var: return e->name;
        case Op::bool_var: return e->name;
        case Op::constant: return e->value.to_string();
        case Op::bool_const: return e->value.is_zero() ? "false" : "true";
        case Op::add: return infix("+");
        case Op::sub: return infix("-");
        case Op::mul: return infix("*");
        case Op::band: return infix("&");
        case Op::bor: return infix("|");
        case Op::bxor: return infix("^");
        case Op::bnot: return util::format("~%s", sv_to_string(e->a).c_str());
        case Op::shl: return infix("<<");
        case Op::lshr: return infix(">>");
        case Op::eq: return infix("==");
        case Op::ult: return infix("<u");
        case Op::ule: return infix("<=u");
        case Op::bool_and: return infix("&&");
        case Op::bool_or: return infix("||");
        case Op::bool_not: return util::format("!%s", sv_to_string(e->a).c_str());
        case Op::ite:
            return util::format("(%s ? %s : %s)", sv_to_string(e->c).c_str(),
                                sv_to_string(e->a).c_str(), sv_to_string(e->b).c_str());
        case Op::slice:
            return util::format("%s[%d:%d]", sv_to_string(e->a).c_str(), e->hi, e->lo);
        case Op::concat: return infix("++");
        case Op::zext:
            return util::format("zext%d(%s)", e->width, sv_to_string(e->a).c_str());
    }
    return "?";
}

SExpr VarPool::fresh(int width, std::string name) {
    const int id = next_++;
    vars_.emplace_back(name, width);
    return sv_var(id, width, std::move(name));
}

SExpr VarPool::get(const std::string& name, int width) {
    for (const auto& [n, e] : named_) {
        if (n == name) {
            if (e->width != width) {
                throw std::invalid_argument("VarPool::get: width conflict for " + name);
            }
            return e;
        }
    }
    SExpr e = fresh(width, name);
    named_.emplace_back(name, e);
    return e;
}

}  // namespace ndb::verify
