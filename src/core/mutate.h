// Greybox mutation engine: splice/havoc over the stored scenario corpus.
//
// PR 4 closed half of the greybox loop -- coverage feedback reweights how
// much energy each catalogue program gets -- but every scenario was still
// synthesized from scratch.  This file closes the other half (FP4-style,
// arXiv:2207.13147): interesting scenarios are *kept* and *mutated*.
//
// The moving parts:
//
//   * MutationRecipe -- a compact, fully replayable description of one
//     mutant: the parent's (program, seed) pair plus an ordered op list.
//     Ops are havoc perturbations (field-plan value flips and boundary
//     values, packet-template byte flips, ConfigOp drop/duplicate/reorder)
//     or a splice (the config prefix of the parent crossed with the packet
//     plan of a same-program donor, referenced by its seed).  A recipe is
//     self-contained text (`program#seed|op:a:b|...`), so it rides in
//     divergence reports and `.corpus` files and replays anywhere.
//
//   * ScenarioCorpus -- the stored corpus: `.corpus` recipe files plus the
//     (program, seed[, recipe]) pairs a guided campaign retains when a
//     scenario lights fresh coverage or a fresh fingerprint.  Deterministic
//     iteration order, deduplicated.
//
//   * Mutator -- derives recipes (seeded, deterministic: the same corpus
//     and seed always derive the same recipe, chains included) and applies
//     them (`apply` rebuilds the parent through SpecGenerator::make_for,
//     then replays the op list; operands are clamped by modulo against the
//     live scenario so every recorded op stays runtime-legal on replay).
//
// Nothing here consults wall clock or global state: mutation planning in
// the campaign engine happens at round barriers from merged feedback only,
// which is how mutate-mode reports keep the byte-identical-across-thread-
// counts contract.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/specgen.h"

namespace ndb::core {

// One replayable mutation step.  Operand semantics depend on the kind; all
// indices are reduced modulo the live scenario's sizes at apply time, so an
// op derived against one parent state stays legal after earlier ops in the
// same recipe reshaped the scenario.
struct MutationOp {
    enum class Kind {
        field_flip,      // a = mutation-plan index, b = XOR mask for its value
        field_boundary,  // a = mutation-plan index, b selects {0, ones, 1}
        packet_byte,     // a = template byte offset, b = XOR byte (forced != 0)
        config_drop,     // a = config-op index to delete
        config_dup,      // a = config-op index to copy, b = insertion position
        config_swap,     // a, b = config-op indices to exchange
        splice,          // a = parent config prefix length kept,
                         // b = donor seed (same program; donor's packet plan)
    };

    Kind kind = Kind::field_flip;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

const char* mutation_op_name(MutationOp::Kind kind);

// The full parentage of one mutant: parent (program, seed) + op list.
struct MutationRecipe {
    std::string program;            // parent catalogue program
    std::uint64_t parent_seed = 0;  // replays via SpecGenerator::make_for
    std::vector<MutationOp> ops;

    bool empty() const { return ops.empty(); }

    // Compact text form: "program#seed|op:a:b|op:a:b".  Stable, and safe
    // for `.corpus` key=value lines (no '=' or whitespace).
    std::string encode() const;
    static std::optional<MutationRecipe> parse(std::string_view text);
};

// A concolically synthesized corpus seed: the exact packet, ingress port
// and table default-action programming the verify layer solved for, plus
// the coverage slot it was synthesized to light.  Unlike a MutationRecipe
// (which replays by re-deriving from a parent seed), this is fully concrete
// -- the solver's model IS the scenario.
//
// Text form: "program@slot|port:P|pkt:HEX|def:table:action[:ARGHEX...]...".
// The '@' head separator makes concolic and mutation recipe text mutually
// unparseable, so a line can never be silently misread as the other kind.
struct ConcolicRecipe {
    std::string program;
    std::uint64_t slot = 0;          // target coverage slot; doubles as seed
    std::uint32_t ingress_port = 0;
    std::vector<std::uint8_t> packet;

    struct Default {
        std::string table;
        std::string action;
        // Big-endian action-argument images, exactly ceil(width/8) bytes
        // each (validated against the program at apply time).
        std::vector<std::vector<std::uint8_t>> args;
    };
    std::vector<Default> defaults;

    std::string encode() const;
    // Strict: every structural defect (bad slot/port, odd or non-hex
    // digits, empty sections, unknown section keys) rejects the whole text.
    static std::optional<ConcolicRecipe> parse(std::string_view text);
};

// One stored corpus entry: a fresh (program, seed) pair, a mutant whose
// full parentage `recipe` holds (encoded MutationRecipe), or -- when
// `concolic` is set -- a solver-synthesized seed (`recipe` then holds an
// encoded ConcolicRecipe and `seed` its target slot).
struct CorpusEntry {
    std::string program;
    std::uint64_t seed = 0;
    std::string recipe;  // encoded recipe; empty = fresh seed
    bool concolic = false;
};

// The stored scenario corpus the mutation engine draws parents and donors
// from.  Entries come from `.corpus` recipe files (load_dir) and from the
// campaign's own guided rounds (add).  Iteration order is deterministic:
// per-program vectors in insertion order, programs by name.
class ScenarioCorpus {
public:
    // Loads every `.corpus` file under `dir` (sorted by file name, read by
    // core/corpus.h's strict reader) whose `program=` is in `programs`; a
    // `mutate=` line makes the entry a mutant, a `concolic=` line a
    // synthesized seed.  Missing directory is fine (returns 0).  Every
    // rejected file gets a message in diagnostics() -- never a crash, never
    // a silent skip.  (Out-of-catalogue programs are the one silent case:
    // they are valid files that simply belong to another campaign slice.)
    std::size_t load_dir(const std::string& dir,
                         const std::vector<std::string>& programs);

    // "<file>: <reason>" for every file load_dir rejected, in file order.
    // Cleared by each load_dir call.
    const std::vector<std::string>& diagnostics() const { return diagnostics_; }

    // Adds one entry; returns false when an identical (program, seed,
    // recipe) triple is already stored.
    bool add(const std::string& program, std::uint64_t seed,
             const std::string& recipe = {}, bool concolic = false);

    // Entries for one program; a stable empty vector when none.
    const std::vector<CorpusEntry>& entries(const std::string& program) const;

    std::size_t size() const { return total_; }
    bool empty() const { return total_ == 0; }

private:
    std::map<std::string, std::vector<CorpusEntry>> by_program_;
    std::set<std::string> keys_;  // dedup over program#seed#recipe
    std::size_t total_ = 0;
    std::vector<std::string> diagnostics_;
};

// Derives and applies mutation recipes over a SpecGenerator's catalogue.
// The generator must outlive the mutator and contain every program a
// recipe names.
class Mutator {
public:
    // Hard ceiling on a recipe's op count, bounding recipe text and replay
    // cost.  One derivation appends at most kMaxOpsPerDerive ops; chains
    // that could no longer fit restart from the root parent instead.
    static constexpr std::size_t kMaxChainOps = 12;
    static constexpr std::size_t kMaxOpsPerDerive = 5;  // 1 splice + 4 havoc

    explicit Mutator(const SpecGenerator& gen) : gen_(&gen) {}

    // Deterministically derives a recipe for `seed`: inherits (chains) the
    // parent's own ops when the parent is a mutant, optionally prepends a
    // splice against a fresh same-program donor from `corpus`, then appends
    // 1..4 havoc ops.  Same (corpus, parent, seed) => same recipe.
    MutationRecipe derive(const ScenarioCorpus& corpus, const CorpusEntry& parent,
                          std::uint64_t seed) const;

    // Replays a recipe into a concrete Scenario.  Throws
    // std::invalid_argument when the recipe names a program the generator
    // does not carry.  Deterministic: apply(r) is a pure function of r and
    // the generator's program list.
    Scenario apply(const MutationRecipe& recipe) const;

    // Materializes a concolic recipe: the scenario injects exactly the
    // synthesized packet on the synthesized port, with the control plane
    // reduced to the recipe's set_default_action ops.  Throws
    // std::invalid_argument when the recipe is inconsistent with the
    // program (unknown table/action, action not allowed on the table, or
    // argument count/width mismatch).
    Scenario apply_concolic(const ConcolicRecipe& recipe) const;

private:
    std::size_t program_index(const std::string& program) const;

    const SpecGenerator* gen_;
};

}  // namespace ndb::core
