#include "verify/bitblast.h"

#include <stdexcept>

namespace ndb::verify {

BitBlaster::BitBlaster(SatSolver& solver) : solver_(solver) {}

Lit BitBlaster::true_lit() {
    if (const_true_ < 0) {
        const int v = solver_.new_var();
        const_true_ = mk_lit(v);
        solver_.add_unit(const_true_);
    }
    return const_true_;
}

Lit BitBlaster::fresh() { return mk_lit(solver_.new_var()); }

Lit BitBlaster::lit_and(Lit a, Lit b) {
    if (a == false_lit() || b == false_lit()) return false_lit();
    if (a == true_lit()) return b;
    if (b == true_lit()) return a;
    if (a == b) return a;
    if (a == neg(b)) return false_lit();
    const Lit z = fresh();
    solver_.add_binary(neg(z), a);
    solver_.add_binary(neg(z), b);
    solver_.add_ternary(z, neg(a), neg(b));
    return z;
}

Lit BitBlaster::lit_or(Lit a, Lit b) { return neg(lit_and(neg(a), neg(b))); }

Lit BitBlaster::lit_xor(Lit a, Lit b) {
    if (a == false_lit()) return b;
    if (b == false_lit()) return a;
    if (a == true_lit()) return neg(b);
    if (b == true_lit()) return neg(a);
    if (a == b) return false_lit();
    if (a == neg(b)) return true_lit();
    const Lit z = fresh();
    solver_.add_ternary(neg(z), a, b);
    solver_.add_ternary(neg(z), neg(a), neg(b));
    solver_.add_ternary(z, neg(a), b);
    solver_.add_ternary(z, a, neg(b));
    return z;
}

Lit BitBlaster::lit_mux(Lit sel, Lit then_lit, Lit else_lit) {
    if (sel == true_lit()) return then_lit;
    if (sel == false_lit()) return else_lit;
    if (then_lit == else_lit) return then_lit;
    const Lit z = fresh();
    solver_.add_ternary(neg(z), neg(sel), then_lit);
    solver_.add_ternary(neg(z), sel, else_lit);
    solver_.add_ternary(z, neg(sel), neg(then_lit));
    solver_.add_ternary(z, sel, neg(else_lit));
    return z;
}

std::pair<Lit, Lit> BitBlaster::full_adder(Lit a, Lit b, Lit carry) {
    const Lit axb = lit_xor(a, b);
    const Lit sum = lit_xor(axb, carry);
    const Lit carry_out = lit_or(lit_and(a, b), lit_and(carry, axb));
    return {sum, carry_out};
}

std::vector<Lit> BitBlaster::add_vectors(const std::vector<Lit>& a,
                                         const std::vector<Lit>& b, Lit carry_in) {
    std::vector<Lit> out(a.size());
    Lit carry = carry_in;
    for (std::size_t i = 0; i < a.size(); ++i) {
        auto [sum, carry_out] = full_adder(a[i], b[i], carry);
        out[i] = sum;
        carry = carry_out;
    }
    return out;
}

Lit BitBlaster::equals(const std::vector<Lit>& a, const std::vector<Lit>& b) {
    Lit acc = true_lit();
    for (std::size_t i = 0; i < a.size(); ++i) {
        acc = lit_and(acc, neg(lit_xor(a[i], b[i])));
    }
    return acc;
}

Lit BitBlaster::less_than(const std::vector<Lit>& a, const std::vector<Lit>& b,
                          bool or_equal) {
    // LSB-to-MSB recurrence: lt = (~a_i & b_i) | (xnor(a_i,b_i) & lt_prev).
    Lit lt = or_equal ? true_lit() : false_lit();
    for (std::size_t i = 0; i < a.size(); ++i) {
        const Lit bit_lt = lit_and(neg(a[i]), b[i]);
        const Lit same = neg(lit_xor(a[i], b[i]));
        lt = lit_or(bit_lt, lit_and(same, lt));
    }
    return lt;
}

std::vector<Lit> BitBlaster::shift(const std::vector<Lit>& value,
                                   const std::vector<Lit>& amount, bool left) {
    const std::size_t n = value.size();
    std::vector<Lit> cur = value;
    // Barrel shifter over the amount bits that matter.
    for (std::size_t j = 0; j < amount.size() && (1ull << j) < n; ++j) {
        const std::size_t step = 1ull << j;
        std::vector<Lit> shifted(n, false_lit());
        for (std::size_t i = 0; i < n; ++i) {
            if (left) {
                if (i >= step) shifted[i] = cur[i - step];
            } else {
                if (i + step < n) shifted[i] = cur[i + step];
            }
        }
        std::vector<Lit> next(n);
        for (std::size_t i = 0; i < n; ++i) {
            next[i] = lit_mux(amount[j], shifted[i], cur[i]);
        }
        cur = std::move(next);
    }
    // Any set amount bit at weight >= n zeroes the result.
    Lit overflow = false_lit();
    for (std::size_t j = 0; j < amount.size(); ++j) {
        if ((1ull << j) >= n || j >= 63) overflow = lit_or(overflow, amount[j]);
    }
    if (overflow != false_lit()) {
        for (auto& bit : cur) bit = lit_mux(overflow, false_lit(), bit);
    }
    return cur;
}

std::vector<Lit> BitBlaster::blast(const SExpr& e) {
    const auto cached = cache_.find(e);
    if (cached != cache_.end()) return cached->second;

    std::vector<Lit> out;
    switch (e->op) {
        case Op::constant:
        case Op::bool_const: {
            out.resize(static_cast<std::size_t>(e->width));
            for (int i = 0; i < e->width; ++i) {
                out[static_cast<std::size_t>(i)] =
                    e->value.bit(i) ? true_lit() : false_lit();
            }
            break;
        }
        case Op::var: {
            auto& bits = var_bits_[e->var_id];
            if (bits.empty()) {
                bits.resize(static_cast<std::size_t>(e->width));
                for (auto& b : bits) b = fresh();
            }
            out = bits;
            break;
        }
        case Op::add:
            out = add_vectors(blast(e->a), blast(e->b), false_lit());
            break;
        case Op::sub: {
            auto b = blast(e->b);
            for (auto& bit : b) bit = neg(bit);
            out = add_vectors(blast(e->a), b, true_lit());
            break;
        }
        case Op::mul: {
            const auto a = blast(e->a);
            const auto b = blast(e->b);
            const std::size_t n = a.size();
            std::vector<Lit> acc(n, false_lit());
            for (std::size_t i = 0; i < n; ++i) {
                std::vector<Lit> addend(n, false_lit());
                for (std::size_t k = i; k < n; ++k) {
                    addend[k] = lit_and(a[k - i], b[i]);
                }
                acc = add_vectors(acc, addend, false_lit());
            }
            out = std::move(acc);
            break;
        }
        case Op::band: {
            const auto a = blast(e->a);
            const auto b = blast(e->b);
            out.resize(a.size());
            for (std::size_t i = 0; i < a.size(); ++i) out[i] = lit_and(a[i], b[i]);
            break;
        }
        case Op::bor: {
            const auto a = blast(e->a);
            const auto b = blast(e->b);
            out.resize(a.size());
            for (std::size_t i = 0; i < a.size(); ++i) out[i] = lit_or(a[i], b[i]);
            break;
        }
        case Op::bxor: {
            const auto a = blast(e->a);
            const auto b = blast(e->b);
            out.resize(a.size());
            for (std::size_t i = 0; i < a.size(); ++i) out[i] = lit_xor(a[i], b[i]);
            break;
        }
        case Op::bnot: {
            out = blast(e->a);
            for (auto& bit : out) bit = neg(bit);
            break;
        }
        case Op::shl:
            out = shift(blast(e->a), blast(e->b), /*left=*/true);
            break;
        case Op::lshr:
            out = shift(blast(e->a), blast(e->b), /*left=*/false);
            break;
        case Op::eq:
            out = {equals(blast(e->a), blast(e->b))};
            break;
        case Op::ult:
            out = {less_than(blast(e->a), blast(e->b), false)};
            break;
        case Op::ule:
            out = {less_than(blast(e->a), blast(e->b), true)};
            break;
        case Op::bool_and:
            out = {lit_and(blast(e->a)[0], blast(e->b)[0])};
            break;
        case Op::bool_or:
            out = {lit_or(blast(e->a)[0], blast(e->b)[0])};
            break;
        case Op::bool_not:
            out = {neg(blast(e->a)[0])};
            break;
        case Op::ite: {
            const Lit sel = blast(e->c)[0];
            const auto a = blast(e->a);
            const auto b = blast(e->b);
            out.resize(a.size());
            for (std::size_t i = 0; i < a.size(); ++i) {
                out[i] = lit_mux(sel, a[i], b[i]);
            }
            break;
        }
        case Op::slice: {
            const auto a = blast(e->a);
            out.assign(a.begin() + e->lo, a.begin() + e->hi + 1);
            break;
        }
        case Op::concat: {
            const auto hi = blast(e->a);
            const auto lo = blast(e->b);
            out = lo;
            out.insert(out.end(), hi.begin(), hi.end());
            break;
        }
        case Op::zext: {
            out = blast(e->a);
            out.resize(static_cast<std::size_t>(e->width), false_lit());
            break;
        }
    }
    if (static_cast<int>(out.size()) != e->width) {
        throw std::logic_error("BitBlaster: width bookkeeping error");
    }
    cache_.emplace(e, out);
    return out;
}

void BitBlaster::assert_true(const SExpr& e) {
    if (!e->is_bool) throw std::invalid_argument("assert_true: not a boolean term");
    solver_.add_unit(blast(e)[0]);
}

Bitvec BitBlaster::model_value(const SExpr& e) {
    const auto bits = blast(e);
    Bitvec v(static_cast<int>(bits.size()));
    for (std::size_t i = 0; i < bits.size(); ++i) {
        const bool bit = solver_.value(lit_var(bits[i])) != lit_sign(bits[i]);
        if (bit) v.set_bit(static_cast<int>(i), true);
    }
    return v;
}

}  // namespace ndb::verify
