#include "verify/solver.h"

namespace ndb::verify {

void Solver::add(const SExpr& constraint) { blaster_.assert_true(constraint); }

SatResult Solver::check(std::uint64_t max_conflicts) {
    return sat_.solve(max_conflicts);
}

}  // namespace ndb::verify
