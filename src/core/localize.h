// Fault localization via internal stage taps.
//
// "If a bug prevents packets from being correctly forwarded ... users can
// find where the fault occurred, even inside the data plane" (paper,
// Section 2).  The localizer traces a stimulus once through the device
// under test and once through a golden reference (target::Device::trace,
// which leaves the stage copies in the device's own taps()), walks the two
// traces parser -> ingress -> egress, and names the first stage whose tap,
// parser verdict or reach differs.
#pragma once

#include <cstdint>
#include <string>

#include "dataplane/pipeline.h"
#include "packet/packet.h"
#include "target/device.h"

namespace ndb::core {

struct LocalizeResult {
    bool diverged = false;
    dataplane::Stage stage = dataplane::Stage::parser;
    std::string description;
    int probes = 0;              // traced rounds: 1 once a localization ran
    std::uint64_t packets_replayed = 0;

    // True once a localization ran: each device traced the stimulus, so a
    // non-diverged result means the two traces agree at every stage.
    bool conclusive = false;

    std::string to_string() const;
};

class FaultLocalizer {
public:
    // Both devices must have the same source program loaded (the backends
    // may differ; header layouts are identical by construction).
    FaultLocalizer(target::Device& dut, target::Device& golden);

    // Traces `stimulus` once on each device -- one packet each, counted,
    // clocked and digested like any inject(), its output flushed -- and
    // names the first stage, parser -> ingress -> egress, at which the
    // traces differ.  Throws std::logic_error when the DUT has no program.
    LocalizeResult localize(const packet::Packet& stimulus);

    // The former name of localize(), still called by the benchmark harness.
    LocalizeResult localize_binary(const packet::Packet& stimulus) {
        return localize(stimulus);
    }

private:
    target::Device& dut_;
    target::Device& golden_;
};

}  // namespace ndb::core
