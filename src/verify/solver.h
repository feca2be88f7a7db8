// Solver facade: assert bit-vector constraints, check satisfiability,
// extract models.  One Solver per query (non-incremental).
#pragma once

#include <vector>

#include "verify/bitblast.h"
#include "verify/expr.h"
#include "verify/sat.h"

namespace ndb::verify {

class Solver {
public:
    Solver() : blaster_(sat_) {}

    void add(const SExpr& constraint);
    SatResult check(std::uint64_t max_conflicts = 5'000'000);

    // Model value of any term after a sat result.
    Bitvec eval(const SExpr& e) { return blaster_.model_value(e); }

    std::uint64_t conflicts() const { return sat_.conflicts(); }
    std::uint64_t decisions() const { return sat_.decisions(); }
    std::size_t clauses() const { return sat_.clause_count(); }
    int variables() const { return sat_.var_count(); }

private:
    SatSolver sat_;
    BitBlaster blaster_;
};

}  // namespace ndb::verify
