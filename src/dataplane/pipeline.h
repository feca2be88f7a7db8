// The full per-packet pipeline: parse -> ingress -> egress -> deparse.
//
// This is the "data plane under test" of the paper's Figure 1.  The
// optional stage traces ("taps") are the internal observation points that
// give NetDebug its visibility advantage over external testers, which see
// only what leaves the ports: the campaign diffs tap digests beside the
// output streams, and the fault localizer diffs the full tap copies of one
// traced packet.
//
// A pipeline is built once per device and switches programs in place:
// load() rebinds it, its parser and its interpreter to another image and
// keeps every pooled buffer, so a warm switch allocates nothing.
#pragma once

#include <array>
#include <cstdint>

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

enum class Disposition : std::uint8_t {
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
// copies would give, at none of the copy cost.  32 bytes (the two enums
// are one byte each); every scenario run keeps one per packet.
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

    // Streaming digests of the stage taps (populated when capture_digests
    // is enabled); no state copy is ever made for these.
    std::array<std::uint64_t, 3> stage_hash = {
        kStageNotReachedHash, kStageNotReachedHash, kStageNotReachedHash};
};

// Stage taps of one traced packet: a copy of the state after each stage it
// reached.  Stages are reached in order, so `reached` counts them: 1 when
// the parser dropped the packet, 2 when ingress did or the program has no
// egress, else 3.  Tracing into the same StageTaps again copies into states
// that keep their storage, so a warm traced packet allocates nothing.
struct StageTaps {
    std::array<PacketState, 3> state;  // indexed by Stage
    int reached = 0;

    bool has(Stage stage) const { return static_cast<int>(stage) < reached; }
    const PacketState& at(Stage stage) const {
        return state[static_cast<std::size_t>(stage)];
    }
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
    // Runs nothing until load() names a program.  `tables` and `stateful`
    // are the stores the loaded program's tables and externs live in.
    Pipeline(TableSet& tables, StatefulSet& stateful, PipelineOptions options = {});

    // Runs `prog` from now on, with zeroed counters.  The parser, the
    // interpreter and the packet state keep every buffer they pooled, so
    // switching between programs a pipeline has already run allocates
    // nothing.  The program must outlive its use here.
    void load(const p4::ir::Program& prog);

    // Runs one packet: `in` supplies the bytes, `meta` the ingress port and
    // rx time (the device's stamped copy; in.meta is not read).  With
    // `taps`, a copy of the state after each stage the packet reached is
    // written into it.
    PipelineResult process(const packet::Packet& in, const packet::PacketMeta& meta,
                           StageTaps* taps);

    const StageCounters& counters() const { return counters_; }
    void reset_counters() { counters_ = {}; }
    void set_capture_digests(bool on) { options_.capture_digests = on; }

    // Coverage mode: routes parser-edge/table/action/branch events from the
    // parser and the interpreter into `map`.  Off (nullptr) by default; when
    // off the only cost is a null check per instrumentation site, and when
    // on no per-packet allocation is ever made (the map is a fixed array).
    // The setting survives load().
    void set_coverage(coverage::CoverageMap* map, std::uint64_t salt = 0);

private:
    const p4::ir::Program* prog_ = nullptr;
    PipelineOptions options_;
    ParserEngine parser_;
    Interpreter interp_;
    StageCounters counters_;
    // expiry_off_by_one is active AND the program reads the aging clock
    // (the compiler's Program::reads_timestamp).
    bool quirk_expiry_clock_ = false;
    // Per-packet execution state, reset in place each process() call so the
    // steady-state hot path performs no per-packet allocation.
    PacketState state_;
};

}  // namespace ndb::dataplane
