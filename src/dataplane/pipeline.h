// The full per-packet pipeline: parse -> ingress -> egress -> deparse.
//
// This is the "data plane under test" of the paper's Figure 1.  The
// optional stage traces ("taps") are the internal observation points that
// give NetDebug its visibility advantage over external testers, which see
// only what leaves the ports: the campaign diffs tap digests beside the
// output streams, and the fault localizer diffs the full tap copies of one
// traced packet.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "dataplane/digest.h"
#include "dataplane/interp.h"
#include "dataplane/parser_engine.h"
#include "dataplane/quirks.h"
#include "dataplane/state.h"
#include "dataplane/stateful.h"
#include "dataplane/tables.h"
#include "p4/ir.h"
#include "packet/packet.h"

namespace ndb::coverage {
class CoverageMap;
}  // namespace ndb::coverage

namespace ndb::dataplane {

enum class Disposition {
    forwarded,
    dropped_parser,
    dropped_ingress,
    dropped_egress,
};

const char* disposition_name(Disposition d);

// Pipeline stages, used to address taps and name localized divergences.
enum class Stage { parser = 0, ingress = 1, egress = 2 };

const char* stage_name(Stage stage);

// Compact per-packet view of the internal stage taps, hashed in place by
// the pipeline (streaming mode): the values hashing full PacketState
// copies would give, at none of the copy cost.
struct TapDigest {
    ParserVerdict verdict = ParserVerdict::accept;
    Disposition disposition = Disposition::forwarded;
    std::uint32_t egress_port = 0;  // meaningful when forwarded
    // parser/ingress/egress states; kStageNotReachedHash when never reached.
    std::array<std::uint64_t, 3> stage_hash = {
        kStageNotReachedHash, kStageNotReachedHash, kStageNotReachedHash};

    bool operator==(const TapDigest&) const = default;
};

struct PipelineResult {
    Disposition disposition = Disposition::forwarded;
    ParserVerdict parser_verdict = ParserVerdict::accept;
    packet::Packet output;                 // meaningful when forwarded
    std::uint32_t egress_port = 0;
    std::uint64_t cycles = 0;

    // Stage taps: copies of the state after each stage the packet reached,
    // made only when process() is asked for them.
    std::optional<PacketState> tap_after_parser;
    std::optional<PacketState> tap_after_ingress;
    std::optional<PacketState> tap_after_egress;

    // Streaming digests of the same tap points (populated when
    // capture_digests is enabled); no state copy is ever made for these.
    std::array<std::uint64_t, 3> stage_hash = {
        kStageNotReachedHash, kStageNotReachedHash, kStageNotReachedHash};
};

struct PipelineOptions {
    Quirks quirks;
    bool capture_digests = false;  // in-place stage hashes (campaign hot path)
};

// Aggregate per-stage counters: the device's internal status registers.
struct StageCounters {
    std::uint64_t parser_in = 0;
    std::uint64_t parser_accepted = 0;
    std::uint64_t parser_rejected = 0;
    std::uint64_t parser_errors = 0;
    std::uint64_t ingress_dropped = 0;
    std::uint64_t egress_dropped = 0;
    std::uint64_t forwarded = 0;
};

class Pipeline {
public:
    Pipeline(const p4::ir::Program& prog, TableSet& tables, StatefulSet& stateful,
             PipelineOptions options = {});
    // Defined out of line on purpose: with g++ 12 -O3 the inlined teardown
    // bloats every caller that replaces a pipeline (Device::load, on each
    // program switch), which cost the guided campaign benchmark ~5% of its
    // scenario rate on a 4-core x86-64 host.
    ~Pipeline();

    // Runs one packet: `in` supplies the bytes, `meta` the ingress port and
    // rx time (the device's stamped copy; in.meta is not read).  With
    // `taps`, the result also carries a copy of the state after each stage
    // the packet reached.
    PipelineResult process(const packet::Packet& in, const packet::PacketMeta& meta,
                           bool taps);

    const p4::ir::Program& program() const { return prog_; }
    const StageCounters& counters() const { return counters_; }
    void reset_counters() { counters_ = {}; }
    void set_capture_digests(bool on) { options_.capture_digests = on; }

    // Coverage mode: routes parser-edge/table/action/branch events from the
    // parser and the interpreter into `map`.  Off (nullptr) by default; when
    // off the only cost is a null check per instrumentation site, and when
    // on no per-packet allocation is ever made (the map is a fixed array).
    void set_coverage(coverage::CoverageMap* map, std::uint64_t salt = 0);

private:
    const p4::ir::Program& prog_;
    PipelineOptions options_;
    ParserEngine parser_;
    Interpreter interp_;
    StageCounters counters_;
    // expiry_off_by_one is active AND the program reads the aging clock
    // (precomputed IR scan; see program_reads_timestamp in pipeline.cpp).
    bool quirk_expiry_clock_ = false;
    // Per-packet execution state, reset in place each process() call so the
    // steady-state hot path performs no per-packet allocation.
    PacketState state_;
};

}  // namespace ndb::dataplane
