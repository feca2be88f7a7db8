#include "dataplane/pipeline.h"

#include "dataplane/deparser.h"
#include "obs/metrics.h"

namespace ndb::dataplane {

const char* disposition_name(Disposition d) {
    switch (d) {
        case Disposition::forwarded: return "forwarded";
        case Disposition::dropped_parser: return "dropped(parser)";
        case Disposition::dropped_ingress: return "dropped(ingress)";
        case Disposition::dropped_egress: return "dropped(egress)";
    }
    return "?";
}

const char* stage_name(Stage stage) {
    switch (stage) {
        case Stage::parser: return "parser";
        case Stage::ingress: return "ingress";
        case Stage::egress: return "egress";
    }
    return "?";
}

Pipeline::Pipeline(TableSet& tables, StatefulSet& stateful, PipelineOptions options)
    : options_(options),
      parser_(options.quirks),
      interp_(tables, stateful, options.quirks) {}

// The expiry_off_by_one quirk must only perturb programs that age state off
// the virtual clock: standard metadata is folded into every tap digest, so
// an ungated rewrite would make every catalogue program diverge at the
// parser tap and drown the real state-bug landscape.
void Pipeline::load(const p4::ir::Program& prog) {
    prog_ = &prog;
    parser_.load(prog);
    interp_.load(prog);
    quirk_expiry_clock_ = options_.quirks.expiry_off_by_one && prog.reads_timestamp;
    counters_ = {};
}

void Pipeline::set_coverage(coverage::CoverageMap* map, std::uint64_t salt) {
    parser_.set_coverage(map, salt);
    interp_.set_coverage(map, salt);
}

namespace {

// Copies `state` into the tap of the next stage the packet reached.
void record_tap(StageTaps& taps, const PacketState& state) {
    taps.state[static_cast<std::size_t>(taps.reached)] = state;
    ++taps.reached;
}

}  // namespace

PipelineResult Pipeline::process(const packet::Packet& in,
                                 const packet::PacketMeta& meta, StageTaps* taps) {
    const p4::ir::Program& prog = *prog_;
    PipelineResult result;
    ++counters_.parser_in;
    if (taps) taps->reached = 0;

    // Telemetry (observe-only): the packet counter is exact; the per-stage
    // clocks run on a 1/16 per-thread sample so the extra clock_gettime
    // calls stay inside the bench overhead gate.  Whole-packet latency is
    // recorded by the guard below on every exit path, early returns
    // included.
    bool timed = false;
    std::uint64_t t_mark = 0;
    if (obs::metrics_on()) {
        obs::count(obs::Counter::packets);
        timed = obs::sample_packet();
        if (timed) {
            obs::count(obs::Counter::packets_sampled);
            t_mark = obs::now_ns();
        }
    }
    struct PacketTimer {
        bool on;
        std::uint64_t t0;
        obs::Hist hist;
        ~PacketTimer() {
            if (on) obs::record(hist, obs::now_ns() - t0);
        }
    } packet_timer{timed, t_mark, obs::pipeline_hist(3)};

    state_.reset(prog, meta, static_cast<std::uint32_t>(in.size()),
                 options_.quirks.metadata_clobber);
    if (quirk_expiry_clock_) {
        // expiry_off_by_one quirk: the aging clock latch loses its low
        // microsecond bit, so stored last-seen stamps and timeout deltas sit
        // one off the reference near the expiry boundary.
        state_.set(prog.f_timestamp,
                   util::Bitvec(48, (meta.rx_time_ns / 1000) & ~1ull));
    }
    PacketState& state = state_;

    const ParserVerdict verdict = parser_.run(in, state);
    if (timed) {
        const std::uint64_t t = obs::now_ns();
        obs::record(obs::pipeline_hist(0), t - t_mark);
        t_mark = t;
    }
    result.parser_verdict = verdict;
    switch (verdict) {
        case ParserVerdict::accept:
            ++counters_.parser_accepted;
            break;
        case ParserVerdict::reject:
            ++counters_.parser_rejected;
            break;
        default:
            ++counters_.parser_errors;
            break;
    }
    if (taps) record_tap(*taps, state);
    if (options_.capture_digests) {
        result.stage_hash[0] = hash_packet_state(state);
    }
    if (verdict != ParserVerdict::accept) {
        result.disposition = Disposition::dropped_parser;
        result.cycles = state.cycles;
        return result;
    }

    interp_.run_control(prog.ingress, state);
    if (taps) record_tap(*taps, state);
    if (options_.capture_digests) {
        result.stage_hash[1] = hash_packet_state(state);
    }
    // Traffic manager: drop, or commit egress_spec to egress_port.
    const std::uint64_t port = state.egress_spec(prog);
    if (port == p4::ir::kDropPort) {
        ++counters_.ingress_dropped;
        result.disposition = Disposition::dropped_ingress;
        result.cycles = state.cycles;
        return result;
    }
    state.set(prog.f_egress_port, util::Bitvec(9, port));

    if (prog.egress) {
        state.exited = false;
        interp_.run_control(*prog.egress, state);
        if (taps) record_tap(*taps, state);
        if (options_.capture_digests) {
            result.stage_hash[2] = hash_packet_state(state);
        }
        if (state.drop_flagged(prog)) {
            ++counters_.egress_dropped;
            result.disposition = Disposition::dropped_egress;
            result.cycles = state.cycles;
            return result;
        }
    }

    // Match-action covers everything between the parser mark and here
    // (ingress + traffic manager + egress); drop paths fold their partial
    // match-action time into the whole-packet histogram only.
    if (timed) {
        const std::uint64_t t = obs::now_ns();
        obs::record(obs::pipeline_hist(1), t - t_mark);
        t_mark = t;
    }
    result.output = deparse(prog, state);
    if (timed) {
        obs::record(obs::pipeline_hist(2), obs::now_ns() - t_mark);
    }
    result.output.meta.egress_port = static_cast<std::uint32_t>(port);
    result.egress_port = static_cast<std::uint32_t>(port);
    result.disposition = Disposition::forwarded;
    result.cycles = state.cycles + 1;  // deparser cycle
    ++counters_.forwarded;
    return result;
}

}  // namespace ndb::dataplane
