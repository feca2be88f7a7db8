// Symbolic bit-vector expressions for the verification substrate.
//
// A small SMT-style term language over fixed-width bit-vectors plus
// booleans.  Terms are immutable shared DAG nodes with light constant
// folding in the builders; the bit-blaster lowers them to CNF for the
// native SAT solver (this repository's stand-in for Z3).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "util/bitvec.h"

namespace ndb::verify {

using util::Bitvec;

struct Node;
using SExpr = std::shared_ptr<const Node>;

enum class Op {
    var,        // free bit-vector variable (width, var_id, name)
    constant,   // value
    add, sub, mul,
    band, bor, bxor, bnot,
    shl, lshr,  // b is the (symbolic) shift amount
    eq, ult, ule,          // -> bool
    bool_and, bool_or, bool_not, bool_const, bool_var,
    ite,        // c ? a : b   (a,b bit-vectors or bools)
    slice,      // a[hi:lo]
    concat,     // a ++ b (a high)
    zext,       // widen/truncate to width
};

struct Node {
    Op op = Op::constant;
    int width = 1;            // bools have width 1 and is_bool
    bool is_bool = false;
    Bitvec value;             // constant / bool_const (bit 0)
    int var_id = -1;          // var / bool_var
    std::string name;         // var name for models & diagnostics
    SExpr a, b, c;
    int hi = 0, lo = 0;
};

// --- builders (with folding) ---------------------------------------------------

SExpr sv_const(const Bitvec& value);
SExpr sv_const_u(int width, std::uint64_t value);
SExpr sv_bool(bool value);

// Fresh variables are numbered by the caller (VarPool below helps).
SExpr sv_var(int var_id, int width, std::string name);
SExpr sv_bool_var(int var_id, std::string name);

SExpr sv_add(SExpr a, SExpr b);
SExpr sv_sub(SExpr a, SExpr b);
SExpr sv_mul(SExpr a, SExpr b);
SExpr sv_and(SExpr a, SExpr b);
SExpr sv_or(SExpr a, SExpr b);
SExpr sv_xor(SExpr a, SExpr b);
SExpr sv_not(SExpr a);
SExpr sv_neg(SExpr a);
SExpr sv_shl(SExpr a, SExpr amount);
SExpr sv_lshr(SExpr a, SExpr amount);
SExpr sv_eq(SExpr a, SExpr b);
SExpr sv_ne(SExpr a, SExpr b);
SExpr sv_ult(SExpr a, SExpr b);
SExpr sv_ule(SExpr a, SExpr b);
SExpr sv_band(SExpr a, SExpr b) = delete;  // use sv_and
SExpr sv_land(SExpr a, SExpr b);
SExpr sv_lor(SExpr a, SExpr b);
SExpr sv_lnot(SExpr a);
SExpr sv_ite(SExpr c, SExpr a, SExpr b);
SExpr sv_slice(SExpr a, int hi, int lo);
SExpr sv_concat(SExpr a, SExpr b);
SExpr sv_resize(SExpr a, int width);

// Is this term a literal constant?  (Used for folding and fast paths.)
bool sv_is_const(const SExpr& e);
bool sv_is_true(const SExpr& e);
bool sv_is_false(const SExpr& e);

std::string sv_to_string(const SExpr& e);

// Hands out fresh variable ids and remembers (id -> name, width).
class VarPool {
public:
    SExpr fresh(int width, std::string name);

    // Name-keyed variable: repeated calls with the same name return the SAME
    // variable.  Two programs executed against one pool therefore see the
    // same symbolic packet -- the basis of equivalence checking.
    SExpr get(const std::string& name, int width);

    int count() const { return next_; }
    const std::vector<std::pair<std::string, int>>& vars() const { return vars_; }

private:
    int next_ = 0;
    std::vector<std::pair<std::string, int>> vars_;  // name, width
    std::vector<std::pair<std::string, SExpr>> named_;
};

}  // namespace ndb::verify
