// Test specifications: packet templates and field mutations.
//
// A TestSpec describes the stream one scenario injects: a template packet,
// per-sequence field mutations, the ingress port, the packet count and the
// rate.  What the stream must produce is not part of the spec: the campaign
// loop derives it by running the same stream on the reference backend.
#pragma once

#include <string>
#include <vector>

#include "packet/packet.h"
#include "util/bitvec.h"

namespace ndb::core {

// How one field of the template evolves over the generated sequence.
struct FieldMutation {
    enum class Mode {
        fixed,      // value
        increment,  // value + seq * step
        sweep,      // value + (seq % range) * step
        random,     // uniform random (deterministic per seed + seq)
    };

    std::size_t bit_offset = 0;
    int width = 0;
    Mode mode = Mode::fixed;
    util::Bitvec value;
    std::uint64_t step = 1;
    std::uint64_t range = 0;  // sweep period (0 disables wrap)
};

struct PacketTemplate {
    packet::Packet base;
    std::vector<FieldMutation> mutations;
    std::uint64_t seed = 0x5eed;
};

struct TestSpec {
    std::string name;
    PacketTemplate tmpl;
    std::uint32_t inject_port = 0;
    std::uint64_t count = 1;
    double rate_pps = 0;  // 0 = back-to-back
};

// Builds the generated packet for sequence number `seq` (mutations applied;
// stamps are the generator's job).
packet::Packet instantiate(const PacketTemplate& tmpl, std::uint64_t seq);

}  // namespace ndb::core
