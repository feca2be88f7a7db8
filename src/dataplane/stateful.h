// Stateful externs: register arrays, counters, meters.
//
// Every cell of the loaded program's externs lives in one buffer of 64-bit
// words, extern after extern: a register cell holds its value's words, a
// counter cell its packet then byte count, a meter cell a MeterCell's
// bytes.  One buffer serves every kind, so a set that switches among
// programs keeps the largest program's storage rather than the largest of
// each kind.  The accessors below are the only state surface the
// interpreter and the control plane touch, so a snapshot of `info()` plus
// `reset_state()` fully captures and clears a device's per-flow state.
//
// Each extern also keeps a bitmap of the cells touched since the last
// reset: written, counted, configured or executed.  A run touches a
// handful of cells out of hundreds declared, so `info()` folds only the
// touched cells and `reset_state()` restores only those: both cost what
// the run touched, not what the program declares.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "p4/ir.h"
#include "util/bitvec.h"

namespace ndb::dataplane {

using util::Bitvec;

// Meter colors follow the usual trTCM convention.
enum class MeterColor : std::uint8_t { green = 0, yellow = 1, red = 2 };

// Single-rate, two-bucket token meter (committed + excess).
class MeterCell {
public:
    // Rates in bytes/second; bursts in bytes.
    void configure(double committed_rate, std::uint64_t committed_burst,
                   double excess_rate, std::uint64_t excess_burst);

    MeterColor execute(std::uint64_t now_ns, std::uint64_t bytes);

    // An unconfigured meter colors everything green (the defaults below are
    // effectively infinite).  That is the correct permissive default for a
    // fresh device, but a policer whose meter was never configured is a
    // control-plane bug, so snapshots surface the flag.
    bool configured() const { return configured_; }

    // Folds the configured rates/bursts into an FNV-1a accumulator.
    std::uint64_t fold_config(std::uint64_t h) const;

private:
    void refill(std::uint64_t now_ns);

    double committed_rate_ = 1e9;  // effectively unconfigured: everything green
    double excess_rate_ = 1e9;
    double committed_tokens_ = 1e9;
    double excess_tokens_ = 1e9;
    std::uint64_t committed_burst_ = 1'000'000'000;
    std::uint64_t excess_burst_ = 1'000'000'000;
    std::uint64_t last_refill_ns_ = 0;
    bool configured_ = false;
};

// One extern's summary, as status snapshots carry it
// (control::ExternStatus): the device's view of its own per-flow state.
// Two devices that processed the same traffic but aged, dropped, or
// misplaced flow entries differently disagree on `state_hash` even when
// every packet still came out identical -- the "state" divergence class.
struct ExternInfo {
    std::string name;
    std::string kind;  // "register" | "counter" | "meter"
    std::uint64_t cells = 0;
    std::uint64_t state_hash = 0;
    // Meters only: cells still coloring everything green because no
    // control-plane configure ever reached them.  A policer with a nonzero
    // value here enforces nothing.
    std::uint64_t unconfigured_meters = 0;
};

// Runtime storage for every extern instance of the loaded program.
class StatefulSet {
public:
    // Holds no externs until load().
    StatefulSet() = default;
    explicit StatefulSet(const p4::ir::Program& prog) { load(prog); }

    // Takes `prog`'s externs at their power-on values.  The cell buffer
    // keeps its capacity, so loading a program whose externs fit in what
    // the set has held before allocates nothing.
    void load(const p4::ir::Program& prog);

    // Registers.
    Bitvec register_read(int extern_id, std::uint64_t index) const;
    void register_write(int extern_id, std::uint64_t index, const Bitvec& value);

    // Counters (packets + bytes).
    void counter_count(int extern_id, std::uint64_t index, std::uint64_t bytes);
    std::uint64_t counter_packets(int extern_id, std::uint64_t index) const;
    std::uint64_t counter_bytes(int extern_id, std::uint64_t index) const;

    // Meters.
    void meter_configure(int extern_id, std::uint64_t index, double committed_rate,
                         std::uint64_t committed_burst, double excess_rate,
                         std::uint64_t excess_burst);
    MeterColor meter_execute(int extern_id, std::uint64_t index,
                             std::uint64_t now_ns, std::uint64_t bytes);

    // Per-extern summary for status snapshots.  `state_hash` digests the
    // dynamic contents (register values, counter packets+bytes) and, for
    // meters, the configured parameters -- not the live token buckets, whose
    // floating-point residue would make byte-identical reports fragile.
    // It is the FNV-1a fold of every declared cell in index order; an
    // untouched cell folds only zero bytes, so the fold skips it with one
    // multiply by a power of the FNV prime and the value stays exact.
    using Info = ExternInfo;
    std::vector<Info> info() const;

    // info() written into `out` in place: resized to one entry per extern,
    // every field overwritten, and the strings and the vector keep their
    // capacity, so a warm device snapshots without allocating.
    void info_into(std::vector<Info>& out) const;

    // Returns every extern to its power-on value: registers to zero,
    // counters to zero, meters to unconfigured-permissive.  Exactly the
    // state a freshly loaded program starts from.
    void reset_state();

    // Cells touched since the last reset, summed over every extern.
    std::uint64_t touched_cells() const;

private:
    // Where one extern's cells and touched bits live.
    struct ExternState {
        p4::ir::ExternDecl::Kind kind = p4::ir::ExternDecl::Kind::reg;
        std::string name;
        int elem_width = 0;
        std::uint64_t size = 0;     // declared cells
        std::size_t cell_words = 0;  // words per cell in cells_
        std::size_t first_cell = 0;  // offset in cells_
        std::size_t first_touched = 0;  // offset in touched_
        // FNV prime raised to the zero-byte count an untouched cell folds.
        std::uint64_t untouched_pow = 1;
    };

    // The loaded extern `extern_id`; throws std::out_of_range past the
    // loaded program's externs.
    const ExternState& slot(int extern_id) const;

    std::uint64_t* cell(const ExternState& s, std::uint64_t index) {
        return cells_.data() + s.first_cell + index * s.cell_words;
    }
    const std::uint64_t* cell(const ExternState& s, std::uint64_t index) const {
        return cells_.data() + s.first_cell + index * s.cell_words;
    }
    std::span<const std::uint64_t> touched(const ExternState& s) const {
        return {touched_.data() + s.first_touched, (s.size + 63) / 64};
    }
    void mark(const ExternState& s, std::uint64_t index) {
        touched_[s.first_touched + index / 64] |= 1ull << (index % 64);
    }
    // Writes cell `index`'s power-on value.
    void clear_cell(const ExternState& s, std::uint64_t index);

    // Indexed by extern id.  Never shrinks: the entries past the loaded
    // program's `count_` keep their strings for the next program.
    std::vector<ExternState> externs_;
    std::size_t count_ = 0;
    std::vector<std::uint64_t> cells_;
    // Bit i of an extern's run is set once its cell i is touched; cleared
    // by reset_state().
    std::vector<std::uint64_t> touched_;
};

}  // namespace ndb::dataplane
