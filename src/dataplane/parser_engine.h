// Programmable parser engine: executes the IR parser state machine.
#pragma once

#include <vector>

#include "dataplane/quirks.h"
#include "dataplane/state.h"
#include "p4/ir.h"
#include "packet/packet.h"

namespace ndb::coverage {
class CoverageMap;
}  // namespace ndb::coverage

namespace ndb::dataplane {

class ParserEngine {
public:
    // Parses nothing until load() names a program.
    explicit ParserEngine(Quirks quirks = {}) : quirks_(quirks) {}
    explicit ParserEngine(const p4::ir::Program& prog, Quirks quirks = {})
        : ParserEngine(quirks) {
        load(prog);
    }

    // Runs `prog`'s state machine from now on, keeping the key scratch.
    // The program must outlive its use here.
    void load(const p4::ir::Program& prog) {
        prog_ = &prog;
        cov_salt_ = prog.coverage_salt ^ device_salt_;
    }

    // Coverage instrumentation: when set, every state transition (and the
    // terminal state/verdict pair) records an edge into the map, salted by
    // the program's coverage salt XOR `salt` (devices pass a per-backend
    // salt so a DUT's execution of the same path lights distinct slots from
    // the reference's).  nullptr (the default) reduces the instrumentation
    // to one untaken branch per transition.  `salt` survives load().
    void set_coverage(coverage::CoverageMap* map, std::uint64_t salt = 0) {
        coverage_ = map;
        device_salt_ = salt;
        if (prog_) cov_salt_ = prog_->coverage_salt ^ salt;
    }

    // Fills `state` (headers, payload, verdict) from the packet bytes.
    // With the `reject_as_accept` quirk, explicit rejects and parse errors
    // leave the state as-is and report `accept` -- modeling a target that
    // never implemented the reject path.
    ParserVerdict run(const packet::Packet& pkt, PacketState& state,
                      int* states_visited = nullptr);

    // Cycle guard so malformed state machines cannot loop forever.
    static constexpr int kMaxStates = 256;

private:
    const p4::ir::Program* prog_ = nullptr;
    Quirks quirks_;
    coverage::CoverageMap* coverage_ = nullptr;
    std::uint64_t device_salt_ = 0;
    std::uint64_t cov_salt_ = 0;  // prog_->coverage_salt ^ device_salt_
    // Select keys, reused across transitions and packets (capacity kept).
    std::vector<util::Bitvec> keys_scratch_;
};

}  // namespace ndb::dataplane
