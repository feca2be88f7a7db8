// Symbolic executor over the P4 IR.
//
// Explores every feasible path of the *program specification*: the parser
// state machine, both match-action controls (tables fork over their allowed
// actions with unconstrained action data) and the drop/forward decision.
// This is the repository's stand-in for software formal verification tools
// such as p4v [3]: it reasons about the P4 program only, so it can prove
// program-level properties but is blind to target-implementation bugs --
// exactly the limitation Figure 2 of the paper gives it.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "p4/ir.h"
#include "verify/expr.h"

namespace ndb::verify {

enum class PathEnd {
    forwarded,       // reached the deparser with egress_spec != drop
    dropped,         // egress_spec == drop after a control
    parser_reject,   // explicit transition to reject (or select fall-through)
};

const char* path_end_name(PathEnd end);

struct SymHeader {
    bool valid = false;   // validity is concrete along a path
    std::vector<SExpr> fields;
};

// One stretch of packet bytes the parser consumed, in wire order.
// `header >= 0` means the whole header instance was extracted there;
// `header == -1` is skipped (advanced-over) bits with no field backing.
struct WireChunk {
    int header = -1;
    int bits = 0;
};

struct SymPath {
    SExpr condition;                 // conjunction of branch constraints
    std::vector<SymHeader> headers;  // state at the end of the path
    PathEnd end = PathEnd::forwarded;
    bool egress_assigned = false;    // was egress_spec written on this path?
    std::vector<std::pair<int, int>> table_choices;  // (table id, action id)
    std::vector<std::string> warnings;  // e.g. reads of possibly-invalid headers

    // --- execution trace, mirrors the coverage instrumentation sites ---
    // Parser transitions taken, (from, to) with to possibly kAccept/kReject.
    std::vector<std::pair<int, int>> parser_edges;
    // State the parser terminated in: kAccept or kReject.
    int final_parser_state = p4::ir::kAccept;
    // Every if_stmt evaluated, with the direction taken.  Stmt pointers are
    // stable (the IR is owned by the Program), and each carries its
    // coverage ordinal (Stmt::branch).
    std::vector<std::pair<const p4::ir::Stmt*, bool>> branches;
    // Every action body entered (table hits and direct calls), in order.
    std::vector<int> actions_run;
    // Wire layout the parser consumed, in order.
    std::vector<WireChunk> wire;
    // Fresh action-data variables per table choice; parallel to
    // table_choices.  Needed because fresh-var names embed a counter, so a
    // later model lookup by name cannot reconstruct them.
    std::vector<std::vector<SExpr>> table_args;
};

struct SymExecResult {
    std::vector<SymPath> paths;
    // True when exploration hit max_paths and dropped work: an edge with no
    // covering path in `paths` is then "not found", never "unreachable".
    bool paths_exhausted = false;
};

struct SymExecOptions {
    int max_paths = 4096;
    // Treat reads of invalid (non-metadata) headers as warnings.
    bool track_invalid_reads = true;
};

class SymExec {
public:
    // `pool` provides input variables; sharing one pool between two programs
    // identifies their packets (same header/field names = same variables),
    // which is what program-equivalence checking needs.
    SymExec(const p4::ir::Program& prog, VarPool& pool, SymExecOptions options = {});

    // Explores the whole program: every syntactically feasible path (callers
    // filter with the solver if they need semantic feasibility), and whether
    // max_paths truncated the search.
    SymExecResult explore();

    // Final value of a field on a path.
    SExpr field(const SymPath& path, p4::ir::FieldRef ref) const;
    // Symbolic egress_spec at the end of a path.
    SExpr egress_spec(const SymPath& path) const;

    int paths_truncated() const { return truncated_; }

private:
    struct State {
        SExpr condition;
        std::vector<SymHeader> headers;
        std::vector<SExpr> locals;
        std::vector<SExpr> params;
        bool exited = false;
        bool egress_assigned = false;
        std::vector<std::pair<int, int>> table_choices;
        std::vector<std::string> warnings;
        std::vector<std::pair<int, int>> parser_edges;
        int final_parser_state = p4::ir::kAccept;
        std::vector<std::pair<const p4::ir::Stmt*, bool>> branches;
        std::vector<int> actions_run;
        std::vector<WireChunk> wire;
        std::vector<std::vector<SExpr>> table_args;
    };

    // Copies the shared trace/bookkeeping fields of `st` into a SymPath.
    static SymPath finish_path(State&& st, SExpr condition, PathEnd end);

    State initial_state();
    SExpr input_var(const std::string& name, int width);

    // Charges one unit of the max_paths exploration budget for an extra
    // branch at a fork site (parser select case, if-statement second side,
    // table action beyond the first).  Returns false -- and records the
    // truncation -- once the budget is spent, so explore() can report that
    // missing paths mean "not found within budget", never "unreachable".
    bool fork_budget() {
        if (forks_ >= options_.max_paths) {
            ++truncated_;
            return false;
        }
        ++forks_;
        return true;
    }

    void run_parser(State state, int state_id, int depth, std::vector<State>& accepted,
                    std::vector<SymPath>& finished);
    // Executes body[from..] over `state`; appends completed states to `out`.
    void exec_body(const std::vector<p4::ir::StmtPtr>& body, std::size_t from,
                   State state, std::vector<State>& out);
    SExpr eval(const p4::ir::Expr& e, State& state);
    SExpr checksum_expr(const State& state, int header, int checksum_field) const;

    const p4::ir::Program& prog_;
    VarPool& pool_;
    SymExecOptions options_;
    int truncated_ = 0;
    int forks_ = 0;  // fork-budget units consumed (see fork_budget())
    int fresh_counter_ = 0;
};

}  // namespace ndb::verify
