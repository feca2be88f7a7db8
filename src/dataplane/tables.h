// Match-action table engines: exact (hash), LPM, ternary (TCAM).
//
// The control plane programs entries through TableSet; the interpreter
// performs lookups with key values it evaluated from the packet state.
//
// One production engine per match kind implements the MatchEngine contract:
//
//   * exact stores each entry once, in insertion order, in flat arrays (key
//     words, action values, one shared argument array) and finds it through
//     an open-addressing index of 8-byte slots; clear() keeps every array's
//     capacity, so refilling a table after a reload neither regrows nor
//     allocates.  insert_batch() packs and hashes a run of keys first and
//     prefetches each one's index slot a few entries ahead of its probe;
//   * LPM walks a binary trie over the key bits, most significant first
//     (a key of at most 64 bits as one machine word);
//   * ternary keeps its rows priority-sorted so the first match wins and
//     the scan exits early.
//
// Each keeps its entries' action arguments in one shared array, and
// TableSet::reset() and set_default_action() assign into storage the table
// already holds, so a warm device re-applies a scenario's config without
// allocating.  A TableSet also outlives the programs it serves: load()
// hands its engines to the next program in place (reshape()), so a device
// switching between programs it has already run allocates nothing.
//
// Exact and ternary also keep their original straight-line implementations
// (make_naive_*) as the semantic reference for differential tests and
// benchmarks, byte-identical in behaviour including the quirk interplay
// (ternary_priority_inverted, table_size_clamp).  LPM needs no reference of
// its own: a prefix of length L is the ternary row whose mask keeps the top
// L bits at priority L, so the naive ternary engine checks the trie.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "p4/ir.h"
#include "util/bitvec.h"

namespace ndb::dataplane {

using util::Bitvec;

// Control-plane view of one table entry.
struct TableEntry {
    std::vector<Bitvec> key_values;   // one per key element
    std::vector<Bitvec> key_masks;    // ternary only (parallel to key_values)
    int prefix_len = -1;              // lpm only
    int priority = 0;                 // ternary only; higher wins
    int action_id = 0;
    std::vector<Bitvec> action_args;
};

// Result of a lookup: the action to run and a view of its arguments in the
// table's own storage.  Valid until the table is next mutated (insert,
// clear, reset or a default-action change).
struct ActionRef {
    int action_id = 0;
    std::span<const Bitvec> args;
};

// An action with its own arguments: a default action, and the per-entry
// storage of the LPM, ternary and naive engines.
struct ActionEntry {
    int action_id = 0;
    std::vector<Bitvec> args;

    ActionRef ref() const { return {action_id, args}; }
};

// Outcome of inserting an entry.
enum class InsertStatus { ok, table_full, duplicate, bad_entry };

const char* insert_status_name(InsertStatus status);

// One table's match engine.  `capacity` is enforced at insert.
class MatchEngine {
public:
    virtual ~MatchEngine() = default;
    virtual InsertStatus insert(const TableEntry& entry) = 0;
    // Inserts the entries in order, writing entries[i]'s outcome to
    // statuses[i] (`statuses` holds at least entries.size()): by definition
    // an insert() of each in turn, duplicates within the batch included.
    // The exact engine overrides it to pack and hash a run of keys before
    // placing them, so each index slot is prefetched ahead of its probe;
    // the others keep this loop.
    virtual void insert_batch(std::span<const TableEntry> entries,
                              std::span<InsertStatus> statuses) {
        for (std::size_t i = 0; i < entries.size(); ++i) statuses[i] = insert(entries[i]);
    }
    // Returns the matched action, or nullopt on miss.  The view stays valid
    // until the engine is next mutated.
    virtual std::optional<ActionRef> lookup(std::span<const Bitvec> keys) const = 0;
    virtual std::size_t entry_count() const = 0;
    virtual void clear() = 0;
    // Empties the engine and gives it another key width (LPM: the one key's)
    // and capacity, keeping its storage.
    virtual void reshape(int width, std::size_t capacity) = 0;
};

// Production engines.
std::unique_ptr<MatchEngine> make_exact_engine(int total_width, std::size_t capacity);
std::unique_ptr<MatchEngine> make_lpm_engine(int key_width, std::size_t capacity);
std::unique_ptr<MatchEngine> make_ternary_engine(int total_width, std::size_t capacity,
                                                 bool inverted_priority);

// Naive reference engines (unordered_map / linear scan; for differential
// testing).
std::unique_ptr<MatchEngine> make_naive_exact_engine(int total_width,
                                                     std::size_t capacity);
std::unique_ptr<MatchEngine> make_naive_ternary_engine(int total_width,
                                                       std::size_t capacity,
                                                       bool inverted_priority);

// The loaded program's table engines plus default actions and hit/miss
// statistics (the statistics feed the status-monitoring use-case).
class TableSet {
public:
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };

    // Holds no tables until load().  `size_clamp` models vendor
    // table-capacity limits (0 = none).
    TableSet(int size_clamp, bool inverted_priority)
        : size_clamp_(size_clamp), inverted_priority_(inverted_priority) {}

    // Takes `prog`'s tables in their freshly loaded state: no entries, the
    // declared default actions, zero statistics.  The k-th table of a match
    // kind reuses the set's k-th engine of that kind, reshaped, and every
    // slot keeps its storage, so loading a program whose tables this set
    // has held before allocates nothing.
    void load(const p4::ir::Program& prog);

    // The table engine's insert_batch(): an insert() of each entry in turn.
    // Every control-plane write of an entry comes through here.
    void insert_batch(int table_id, std::span<const TableEntry> entries,
                      std::span<InsertStatus> statuses);
    // Assigned into the slot's own entry, whose argument vector keeps its
    // capacity.
    void set_default_action(int table_id, int action_id, std::span<const Bitvec> args);

    // Lookup; falls back to the table's default action on miss.
    // `hit` reports whether an entry matched.  The view stays valid until
    // the table is next mutated.
    ActionRef lookup(int table_id, std::span<const Bitvec> keys, bool& hit);

    const Stats& stats(int table_id) const;
    std::size_t entry_count(int table_id) const;
    std::size_t capacity(int table_id) const;
    void reset_stats();

    // Returns every table to its freshly constructed state: no entries, the
    // program's declared default action, zero statistics.
    void reset();

private:
    // One table's engine plus its default action and statistics.
    struct Slot {
        MatchEngine* engine = nullptr;  // one of engines_[kind]
        ActionEntry default_action;
        ActionEntry declared_default;  // what reset() restores
        Stats stats;
        std::size_t capacity = 0;
        // Which engine family backs this slot (telemetry's per-kind
        // lookup counters/histograms key off it).
        p4::ir::MatchKind kind = p4::ir::MatchKind::exact;
    };

    // The loaded table `table_id`; throws std::out_of_range past the
    // loaded program's tables.
    Slot& slot(int table_id);
    const Slot& slot(int table_id) const;

    // lookup() with telemetry: per-kind lookup counters (exact) plus a
    // 1/64-sampled latency histogram.  Separate so the instrumented path
    // costs the fast path nothing but the one enabled check.
    static ActionRef lookup_timed(Slot& slot, std::span<const Bitvec> keys, bool& hit);

    int size_clamp_;
    bool inverted_priority_;
    // Indexed by table id.  Never shrinks: the slots past the loaded
    // program's `tables_` keep their storage for the next program.
    std::vector<Slot> slots_;
    std::size_t tables_ = 0;
    // Engines by match kind, as many of each as the most tables of that
    // kind a loaded program has declared.
    std::array<std::vector<std::unique_ptr<MatchEngine>>, 3> engines_;
};

}  // namespace ndb::dataplane
