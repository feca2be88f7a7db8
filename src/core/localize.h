// Fault localization via internal stage taps.
//
// "If a bug prevents packets from being correctly forwarded ... users can
// find where the fault occurred, even inside the data plane" (paper,
// Section 2).  The localizer replays a stimulus through the device under
// test and a golden reference, compares the tap snapshots stage by stage,
// and names the first diverging stage.  Two probe strategies model the
// hardware cost of arming taps: linear scan and binary search (the
// ablation measured by bench/xloc_localization).
#pragma once

#include <optional>
#include <string>

#include "dataplane/pipeline.h"
#include "packet/packet.h"
#include "target/device.h"

namespace ndb::core {

struct LocalizeResult {
    bool diverged = false;
    dataplane::Stage stage = dataplane::Stage::parser;
    std::string description;
    int probes = 0;              // tap-arm/replay rounds
    std::uint64_t packets_replayed = 0;

    // False when no probe captured tap records on both devices (e.g. a tap
    // ring is disabled): the comparison saw nothing, so a non-diverged
    // result is NOT a clean bill of health.
    bool conclusive = false;

    std::string to_string() const;
};

class FaultLocalizer {
public:
    // Both devices must run the same source program (the backends may
    // differ; header layouts are identical by construction).
    //
    // Probing restores each device's taps-enabled flag on exit, but the
    // tap RINGS are working storage: any records the caller collected
    // before localization are cleared by the replays.
    FaultLocalizer(target::Device& dut, target::Device& golden);

    // Probe every stage front to back.
    LocalizeResult localize_linear(const packet::Packet& stimulus);

    // Binary search over the tap points (fewer armed-tap rounds).
    LocalizeResult localize_binary(const packet::Packet& stimulus);

private:
    // Replays the stimulus on both devices and reports whether the states
    // at or before `stage` differ.
    // Marks `accounting.conclusive` once a replay produced tap records on
    // both devices, i.e. the comparison actually saw something.
    std::optional<std::string> probe(dataplane::Stage stage,
                                     const packet::Packet& stimulus,
                                     LocalizeResult& accounting);

    target::Device& dut_;
    target::Device& golden_;
};

}  // namespace ndb::core
