#include "core/localize.h"

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

const std::optional<dataplane::PacketState>* tap_of(
    const dataplane::PipelineResult& r, Stage stage) {
    switch (stage) {
        case Stage::parser: return &r.tap_after_parser;
        case Stage::ingress: return &r.tap_after_ingress;
        case Stage::egress:
        case Stage::deparser: return &r.tap_after_egress;
    }
    return nullptr;
}

// Compares one replay's pipeline results, DUT against golden, at every
// stage up to and including `stage`; returns the first difference, if any.
std::optional<std::string> diff_results(const p4::ir::Program& prog,
                                        const dataplane::PipelineResult& rd,
                                        const dataplane::PipelineResult& rg,
                                        Stage stage) {
    // Header states can agree while the verdicts do not (the SDNet reject
    // bug extracts identical headers and then mis-accepts).  The parser
    // precedes every probed stage, so this check runs unconditionally:
    // probe() must report divergence at-or-before the probed stage or
    // localize_binary's bisection loses monotonicity.
    if (rd.parser_verdict != rg.parser_verdict) {
        return util::format("parser verdict differs: dut=%s golden=%s",
                            dataplane::parser_verdict_name(rd.parser_verdict),
                            dataplane::parser_verdict_name(rg.parser_verdict));
    }
    // Compare every tap at-or-before the probed stage, front to back: a
    // divergence confined to an early tap may be overwritten by later
    // stages, and reporting the earliest observable one is what keeps the
    // bisection monotone.
    for (int s = 0; s <= static_cast<int>(stage); ++s) {
        const Stage at = static_cast<Stage>(s);
        const auto* tap_d = tap_of(rd, at);
        const auto* tap_g = tap_of(rg, at);
        if (!tap_d || !tap_g) continue;
        if (tap_d->has_value() != tap_g->has_value()) {
            return util::format("packet reached %s on only one device",
                                dataplane::stage_name(at));
        }
        if (tap_d->has_value()) {
            if (auto diff = diff_states(prog, **tap_d, **tap_g)) return diff;
        }
    }
    // No tap divergence up to the probed stage; when neither pipeline
    // reached it, the dispositions are the remaining signal.
    const auto* probed = tap_of(rd, stage);
    if (probed && !probed->has_value() && rd.disposition != rg.disposition) {
        return util::format("disposition differs: dut=%s golden=%s",
                            dataplane::disposition_name(rd.disposition),
                            dataplane::disposition_name(rg.disposition));
    }
    return std::nullopt;
}

// Final description for a run in which no probe reported a divergence.
const char* settled_description(bool conclusive) {
    return conclusive ? "no stage diverged"
                      : "inconclusive: no tap records captured "
                        "(tap ring disabled on a device?)";
}

}  // namespace

std::optional<std::string> FaultLocalizer::probe(Stage stage,
                                                 const packet::Packet& stimulus,
                                                 LocalizeResult& accounting) {
    ++accounting.probes;
    const bool dut_taps_before = dut_.taps_enabled();
    const bool golden_taps_before = golden_.taps_enabled();
    dut_.set_taps_enabled(true);
    golden_.set_taps_enabled(true);
    dut_.clear_tap_records();
    golden_.clear_tap_records();

    dut_.inject(stimulus);
    golden_.inject(stimulus);
    accounting.packets_replayed += 2;
    dut_.flush();
    golden_.flush();
    std::optional<std::string> divergence;
    const auto& taps_dut = dut_.tap_records();
    const auto& taps_gold = golden_.tap_records();
    // An empty ring right after an injection means that device cannot
    // record: the comparison sees nothing and stays inconclusive.
    if (!taps_dut.empty() && !taps_gold.empty()) {
        accounting.conclusive = true;
        divergence = diff_results(dut_.program(), taps_dut.back().result,
                                  taps_gold.back().result, stage);
    }
    dut_.set_taps_enabled(dut_taps_before);
    golden_.set_taps_enabled(golden_taps_before);
    return divergence;
}

LocalizeResult FaultLocalizer::localize_linear(const packet::Packet& stimulus) {
    LocalizeResult result;
    for (const Stage stage : {Stage::parser, Stage::ingress, Stage::egress}) {
        if (auto diff = probe(stage, stimulus, result)) {
            result.diverged = true;
            result.stage = stage;
            result.description = std::move(*diff);
            return result;
        }
        // A blind probe stays blind: recording does not depend on the stage.
        if (!result.conclusive) break;
    }
    // A probe that captured no taps on either device cannot tell a clean
    // device from a broken one; say so instead of claiming a clean bill.
    result.description = settled_description(result.conclusive);
    return result;
}

LocalizeResult FaultLocalizer::localize_binary(const packet::Packet& stimulus) {
    LocalizeResult result;
    // Tap points ordered front to back; find the FIRST diverging one by
    // bisection (divergence is monotone: once state differs it stays
    // different or the packet disappears).
    const Stage stages[] = {Stage::parser, Stage::ingress, Stage::egress};
    int lo = 0, hi = 2;
    int first_bad = -1;
    std::string description;
    while (lo <= hi) {
        const int mid = (lo + hi) / 2;
        if (auto diff = probe(stages[mid], stimulus, result)) {
            first_bad = mid;
            description = std::move(*diff);
            hi = mid - 1;
        } else {
            // A blind probe stays blind: recording does not depend on the
            // stage, so further bisection cannot become observable.
            if (!result.conclusive) break;
            lo = mid + 1;
        }
    }
    if (first_bad >= 0) {
        result.diverged = true;
        result.stage = stages[first_bad];
        result.description = std::move(description);
    } else {
        result.description = settled_description(result.conclusive);
    }
    return result;
}

}  // namespace ndb::core
