// Native CDCL SAT solver.
//
// The verification substrate's decision engine: conflict-driven clause
// learning with two-watched-literal propagation, first-UIP learning,
// activity-based (VSIDS-style) branching and geometric restarts.  It is
// deliberately dependency-free -- this repository's replacement for an
// off-the-shelf SMT solver backend.
#pragma once

#include <cstdint>
#include <vector>

namespace ndb::verify {

// Literals use the usual encoding: variable v (0-based), literal 2v (positive)
// or 2v+1 (negated).
using Lit = std::int32_t;

inline Lit mk_lit(int var, bool negated = false) { return 2 * var + (negated ? 1 : 0); }
inline Lit neg(Lit l) { return l ^ 1; }
inline int lit_var(Lit l) { return l >> 1; }
inline bool lit_sign(Lit l) { return l & 1; }  // true = negated

enum class SatResult { sat, unsat, unknown };

class SatSolver {
public:
    // Returns the index of a fresh variable.
    int new_var();
    int var_count() const { return static_cast<int>(assign_.size()); }

    // Adds a clause (empty clause makes the instance trivially unsat).
    void add_clause(std::vector<Lit> lits);
    void add_unit(Lit l) { add_clause({l}); }
    void add_binary(Lit a, Lit b) { add_clause({a, b}); }
    void add_ternary(Lit a, Lit b, Lit c) { add_clause({a, b, c}); }

    // Solves; `max_conflicts` of 0 means no limit.
    SatResult solve(std::uint64_t max_conflicts = 0);

    // Model access after sat.
    bool value(int var) const;

    // Statistics.
    std::uint64_t conflicts() const { return stats_conflicts_; }
    std::uint64_t decisions() const { return stats_decisions_; }
    std::uint64_t propagations() const { return stats_propagations_; }
    std::size_t clause_count() const { return clauses_.size(); }

private:
    // Truth values: 0 = false, 1 = true, 2 = unassigned.
    static constexpr std::uint8_t kFalse = 0, kTrue = 1, kUndef = 2;

    struct Clause {
        std::vector<Lit> lits;
        bool learned = false;
    };

    std::uint8_t lit_value(Lit l) const {
        const std::uint8_t v = assign_[static_cast<std::size_t>(lit_var(l))];
        if (v == kUndef) return kUndef;
        return lit_sign(l) ? static_cast<std::uint8_t>(v ^ 1) : v;
    }

    void enqueue(Lit l, int reason);
    int propagate();  // returns conflicting clause index or -1
    void analyze(int conflict, std::vector<Lit>& learned, int& backtrack_level);
    void backtrack(int level);
    Lit pick_branch();
    void bump_var(int var);
    void decay_activity();

    std::vector<Clause> clauses_;
    std::vector<std::vector<int>> watchers_;  // per literal: clause indices
    std::vector<std::uint8_t> assign_;        // per var
    std::vector<int> level_;                  // per var
    std::vector<int> reason_;                 // per var: clause index or -1
    std::vector<Lit> trail_;
    std::vector<std::size_t> trail_lim_;      // decision level boundaries
    std::size_t qhead_ = 0;
    std::vector<double> activity_;
    double var_inc_ = 1.0;
    bool unsat_ = false;

    std::uint64_t stats_conflicts_ = 0;
    std::uint64_t stats_decisions_ = 0;
    std::uint64_t stats_propagations_ = 0;
};

}  // namespace ndb::verify
