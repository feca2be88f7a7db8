// IR interpreter: expression evaluation and match-action control execution.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "dataplane/quirks.h"
#include "dataplane/state.h"
#include "dataplane/stateful.h"
#include "dataplane/tables.h"
#include "p4/ir.h"

namespace ndb::coverage {
class CoverageMap;
}  // namespace ndb::coverage

namespace ndb::dataplane {

// Local/parameter slots for the body currently executing.
struct Frame {
    std::vector<Bitvec> locals;
    std::vector<Bitvec> params;
};

// Evaluates `e` against packet state and frame.  Shared by the parser
// engine (select keys), the interpreter and tests.  Honours the quirks
// that affect expression semantics (shift miscompilation).
Bitvec eval_expr(const p4::ir::Program& prog, const p4::ir::Expr& e,
                 const PacketState& state, const Frame& frame,
                 const Quirks& quirks);

// Executes ingress/egress controls over a PacketState.
//
// The execution machinery (call frames, table-key scratch, extern byte
// buffers) is pooled on the interpreter and reused across packets and
// programs, so a steady-state packet traversal performs no heap allocation
// of its own, and neither does switching to another program.
class Interpreter {
public:
    // Executes nothing until load() names a program.
    Interpreter(TableSet& tables, StatefulSet& stateful, Quirks quirks = {});

    // Runs `prog` from now on, keeping the pooled machinery.  The program
    // must outlive its use here.
    void load(const p4::ir::Program& prog);

    // Runs a control body.
    void run_control(const p4::ir::Control& control, PacketState& state);

    // Runs one action directly (used for table results and direct calls).
    void run_action(int action_id, std::span<const Bitvec> args, PacketState& state);

    // Coverage instrumentation: when a map is set, table hits/misses,
    // action invocations and branch edges are recorded into it, salted by
    // the program's coverage salt XOR `salt` (devices pass a per-backend
    // salt so DUT edges never alias reference edges).  Branch edges use the
    // ordinals the compiler stamped on each if_stmt.  `salt` survives
    // load(), which re-salts for the new program.
    void set_coverage(coverage::CoverageMap* map, std::uint64_t salt = 0);

private:
    void exec_body(const std::vector<p4::ir::StmtPtr>& body, PacketState& state,
                   Frame& frame);
    void exec(const p4::ir::Stmt& s, PacketState& state, Frame& frame);
    void exec_extern(const p4::ir::Stmt& s, PacketState& state, Frame& frame);

    // Call-frame pool: frames_ grows to the deepest nesting ever seen and
    // its vectors keep their capacity, so re-entry is allocation-free.
    struct FrameScope;
    Frame& push_frame();
    void pop_frame() { --depth_; }

    const p4::ir::Program* prog_ = nullptr;
    TableSet& tables_;
    StatefulSet& stateful_;
    Quirks quirks_;

    std::deque<Frame> frames_;  // deque: references stay valid while growing
    std::size_t depth_ = 0;
    std::vector<Bitvec> keys_scratch_;
    std::vector<Bitvec> args_scratch_;
    std::vector<std::uint8_t> bytes_scratch_;

    coverage::CoverageMap* coverage_ = nullptr;
    std::uint64_t device_salt_ = 0;
    std::uint64_t cov_salt_ = 0;  // prog_->coverage_salt ^ device_salt_
};

}  // namespace ndb::dataplane
