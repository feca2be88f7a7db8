// Stateful externs: register arrays, counters, meters.
//
// One program's extern instances live in a single dense vector indexed by
// extern id; each slot is typed by its ExternDecl kind.  The accessors
// below are the only state surface the interpreter and the control
// plane touch, so a snapshot of `info()` plus `reset_state()` fully
// captures and clears a device's per-flow state.
//
// Each extern also keeps a bitmap of the cells touched since the last
// reset: written, counted, configured or executed.  A run touches a
// handful of cells out of hundreds declared, so `info()` folds only the
// touched cells and `reset_state()` restores only those: both cost what
// the run touched, not what the program declares.
#pragma once

#include <cstdint>
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

// Runtime storage for every extern instance of one program.
class StatefulSet {
public:
    explicit StatefulSet(const p4::ir::Program& prog);

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
    struct ExternState {
        p4::ir::ExternDecl::Kind kind = p4::ir::ExternDecl::Kind::reg;
        std::string name;
        int elem_width = 0;
        std::uint64_t size = 0;              // declared cells
        std::vector<Bitvec> cells;           // registers
        std::vector<std::uint64_t> packets;  // counters
        std::vector<std::uint64_t> bytes;
        std::vector<MeterCell> meters;       // meters
        // Bit i is set once cell i is touched; cleared by reset_state().
        std::vector<std::uint64_t> touched;
        // FNV prime raised to the zero-byte count an untouched cell folds.
        std::uint64_t untouched_pow = 1;

        void mark(std::uint64_t index) {
            touched[index / 64] |= 1ull << (index % 64);
        }
    };

    std::vector<ExternState> externs_;  // dense, indexed by extern id
};

}  // namespace ndb::dataplane
