#include "core/localize.h"

#include <optional>

#include "util/strings.h"

namespace ndb::core {

using dataplane::Stage;

std::string LocalizeResult::to_string() const {
    if (!diverged) {
        return util::format("%s (probes=%d replays=%llu)",
                            description.empty() ? "no divergence"
                                                : description.c_str(),
                            probes,
                            static_cast<unsigned long long>(packets_replayed));
    }
    return util::format("fault localized to %s stage: %s (probes=%d replays=%llu)",
                        dataplane::stage_name(stage), description.c_str(), probes,
                        static_cast<unsigned long long>(packets_replayed));
}

FaultLocalizer::FaultLocalizer(target::Device& dut, target::Device& golden)
    : dut_(dut), golden_(golden) {}

namespace {

// Compares two tap states of the same program; returns a human-readable
// difference, if any.
std::optional<std::string> diff_states(const p4::ir::Program& prog,
                                       const dataplane::PacketState& a,
                                       const dataplane::PacketState& b) {
    for (std::size_t h = 0; h < prog.headers.size(); ++h) {
        const auto& hdr = prog.headers[h];
        const int header = static_cast<int>(h);
        const bool valid = a.header_valid(header);
        if (valid != b.header_valid(header)) {
            return "validity of header '" + hdr.name + "' differs";
        }
        if (!valid && !hdr.is_metadata) continue;
        for (std::size_t f = 0; f < hdr.fields.size(); ++f) {
            const p4::ir::FieldRef ref{header, static_cast<int>(f)};
            const util::Bitvec va = a.get(ref);
            const util::Bitvec vb = b.get(ref);
            if (va != vb) {
                return util::format("field %s.%s: dut=%s golden=%s", hdr.name.c_str(),
                                    hdr.fields[f].name.c_str(), va.to_hex().c_str(),
                                    vb.to_hex().c_str());
            }
        }
    }
    return std::nullopt;
}

// The checks `stage` adds to the walk, DUT against golden: the parser
// verdict at the parser, then whether both traces reached the stage, then
// its tap; where neither reached it, the dispositions.
std::optional<std::string> diff_stage(const p4::ir::Program& prog,
                                      const dataplane::PipelineResult& rd,
                                      const dataplane::StageTaps& td,
                                      const dataplane::PipelineResult& rg,
                                      const dataplane::StageTaps& tg, Stage stage) {
    // Header states can agree while the verdicts do not (the SDNet reject
    // bug extracts identical headers and then mis-accepts).
    if (stage == Stage::parser && rd.parser_verdict != rg.parser_verdict) {
        return util::format("parser verdict differs: dut=%s golden=%s",
                            dataplane::parser_verdict_name(rd.parser_verdict),
                            dataplane::parser_verdict_name(rg.parser_verdict));
    }
    if (td.has(stage) != tg.has(stage)) {
        return util::format("packet reached %s on only one device",
                            dataplane::stage_name(stage));
    }
    if (td.has(stage)) return diff_states(prog, td.at(stage), tg.at(stage));
    if (rd.disposition != rg.disposition) {
        return util::format("disposition differs: dut=%s golden=%s",
                            dataplane::disposition_name(rd.disposition),
                            dataplane::disposition_name(rg.disposition));
    }
    return std::nullopt;
}

}  // namespace

LocalizeResult FaultLocalizer::localize(const packet::Packet& stimulus) {
    const p4::ir::Program& prog = dut_.program();
    // Each device keeps its trace's stage taps (Device::taps()).
    const dataplane::PipelineResult rd = dut_.trace(stimulus);
    const dataplane::PipelineResult rg = golden_.trace(stimulus);
    dut_.flush();
    golden_.flush();

    LocalizeResult result;
    result.probes = 1;
    result.packets_replayed = 2;
    result.conclusive = true;
    // A divergence confined to an early tap may be overwritten by later
    // stages, so the walk goes front to back and stops at the first.
    for (const Stage stage : {Stage::parser, Stage::ingress, Stage::egress}) {
        if (auto diff = diff_stage(prog, rd, dut_.taps(), rg, golden_.taps(), stage)) {
            result.diverged = true;
            result.stage = stage;
            result.description = std::move(*diff);
            return result;
        }
    }
    result.description = "no stage diverged";
    return result;
}

}  // namespace ndb::core
