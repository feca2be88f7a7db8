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
    explicit ParserEngine(const p4::ir::Program& prog, Quirks quirks = {})
        : prog_(prog), quirks_(quirks) {}

    // Coverage instrumentation: when set, every state transition (and the
    // terminal state/verdict pair) records an edge into the map, salted by
    // the program name XOR `salt` (devices pass a per-backend salt so a
    // DUT's execution of the same path lights distinct slots from the
    // reference's).  nullptr (the default) reduces the instrumentation to
    // one untaken branch per transition.
    void set_coverage(coverage::CoverageMap* map, std::uint64_t salt = 0);

    // Fills `state` (headers, payload, verdict) from the packet bytes.
    // With the `reject_as_accept` quirk, explicit rejects and parse errors
    // leave the state as-is and report `accept` -- modeling a target that
    // never implemented the reject path.
    ParserVerdict run(const packet::Packet& pkt, PacketState& state,
                      int* states_visited = nullptr);

    // Cycle guard so malformed state machines cannot loop forever.
    static constexpr int kMaxStates = 256;

private:
    const p4::ir::Program& prog_;
    Quirks quirks_;
    coverage::CoverageMap* coverage_ = nullptr;
    std::uint64_t cov_salt_ = 0;  // program_salt(prog_.name) ^ device salt
    // Select keys, reused across transitions and packets (capacity kept).
    std::vector<util::Bitvec> keys_scratch_;
};

}  // namespace ndb::dataplane
