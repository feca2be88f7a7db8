// Test packet generator: the in-device packet source of paper Figure 1.
//
// Builds a deterministic packet stream from a TestSpec -- template field
// mutations plus sequence/timestamp stamps -- one packet at a time.  The
// campaign loop builds each scenario's stream once and injects it into the
// reference and every DUT on the same timeline; Figure 1's other module,
// the output checker, is that loop's diff of each DUT against the
// reference (core/scenario_exec.h).
#pragma once

#include <cstdint>

#include "core/testspec.h"

namespace ndb::core {

// Stamps every packet with its sequence number and inject time in the
// layout packet::kStampBytes describes.
class TestPacketGenerator {
public:
    explicit TestPacketGenerator(const TestSpec& spec) : spec_(spec) {}

    // Builds packet number `seq`, stamped and timed for injection at
    // `inject_ns` (without injecting it).
    packet::Packet make_packet(std::uint64_t seq, std::uint64_t inject_ns) const;

    static void write_stamp(packet::Packet& pkt, std::uint64_t seq,
                            std::uint64_t t_ns);
    static bool read_stamp(const packet::Packet& pkt, std::uint64_t& seq,
                           std::uint64_t& t_ns);

private:
    const TestSpec& spec_;
};

}  // namespace ndb::core
