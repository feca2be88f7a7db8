// Per-packet execution state flowing through the pipeline stages.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "p4/ir.h"
#include "packet/packet.h"
#include "util/bitvec.h"

namespace ndb::dataplane {

enum class ParserVerdict {
    accept,
    reject,            // explicit transition to reject
    error_truncated,   // extract past the end of the packet
    error_loop,        // state-machine cycle guard tripped
};

const char* parser_verdict_name(ParserVerdict verdict);

struct HeaderInstance {
    bool valid = false;
    std::vector<util::Bitvec> fields;
};

// The parsed representation plus metadata; one per packet in flight.
struct PacketState {
    std::vector<HeaderInstance> headers;   // parallel to ir::Program::headers
    std::vector<std::uint8_t> payload;     // bytes beyond the parsed headers
    // The program `headers` was last shaped for; identity, not equivalence,
    // so ensure_shape() rebuilds whenever a different Program object shows
    // up even if it happens to declare the same header count.
    const p4::ir::Program* shaped_for = nullptr;
    packet::PacketMeta meta;
    ParserVerdict parser_verdict = ParserVerdict::accept;
    std::uint64_t cycles = 0;  // accumulated processing cost
    bool exited = false;       // an `exit` statement fired

    // Builds the initial state for `prog`: all header field slots allocated,
    // metadata headers valid and zeroed, standard metadata populated from
    // `meta`.  `clobber_meta` simulates targets that do not zero user
    // metadata.
    static PacketState initial(const p4::ir::Program& prog,
                               const packet::PacketMeta& meta,
                               std::uint32_t packet_len,
                               bool clobber_meta = false);

    // Allocates the header/field slots for `prog` (no-op when already
    // shaped for exactly that program object).
    void ensure_shape(const p4::ir::Program& prog);

    // Re-initializes an already-shaped state in place, equivalent to
    // initial() but reusing every allocation: the pipeline's per-packet
    // scratch path.
    void reset(const p4::ir::Program& prog, const packet::PacketMeta& m,
               std::uint32_t packet_len, bool clobber_meta = false);

    const util::Bitvec& get(p4::ir::FieldRef ref) const;
    void set(p4::ir::FieldRef ref, util::Bitvec value);
    bool header_valid(int header) const;

    // Reads egress_spec from standard metadata.
    std::uint64_t egress_spec(const p4::ir::Program& prog) const;
    bool drop_flagged(const p4::ir::Program& prog) const;

    std::string summary(const p4::ir::Program& prog) const;
};

}  // namespace ndb::dataplane
