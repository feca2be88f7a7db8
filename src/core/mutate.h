// Greybox mutation engine: splice/havoc over the stored scenario corpus.
//
// Coverage feedback closes half of the greybox loop -- it reweights how
// much energy each catalogue program gets -- but alone it still synthesizes
// every scenario from scratch.  This file closes the other half (FP4-style,
// arXiv:2207.13147): interesting scenarios are *kept* and *mutated*.
//
// The moving parts:
//
//   * Recipe -- the one replayable description of a scenario outside the
//     uniform sweep.  It is one of two kinds, fixed where the recipe is
//     made (parse, derive, the guided loop, the concolic synthesizer) and
//     never re-derived from text:
//       - catalogue: a (program, seed) pair plus an ordered op list.  Ops
//         are havoc perturbations (field-plan value flips and boundary
//         values, packet-template byte flips, ConfigOp drop/duplicate/
//         reorder) or a splice (the config prefix of the parent crossed
//         with the packet plan of a same-program donor, referenced by its
//         seed).  No ops is the fresh scenario of the pair.
//       - concolic: a solver model (verify::ConcolicRecipe), replayed whole.
//     A recipe is self-contained text, so it rides in divergence reports
//     and `.corpus` files and replays anywhere.
//
//   * ScenarioCorpus -- the stored corpus: the recipes of `.corpus` files
//     plus those a guided campaign retains when a scenario lights fresh
//     coverage or a fresh fingerprint.  Deterministic iteration order,
//     deduplicated.
//
//   * Mutator -- derives catalogue recipes (seeded, deterministic: the same
//     corpus and seed always derive the same recipe, chains included) and
//     builds the scenario of any recipe (`build` makes the catalogue pair
//     through SpecGenerator::make_for, then replays the op list; operands
//     are clamped by modulo against the live scenario so every recorded op
//     stays runtime-legal on replay).
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
#include <variant>
#include <vector>

#include "core/specgen.h"
#include "verify/concolic.h"

namespace ndb::core {

// One replayable mutation step.  Operand semantics depend on the kind; all
// indices are reduced modulo the live scenario's sizes at build time, so an
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

// One replayable scenario outside the uniform sweep (see the file header).
//
// Text forms, told apart by the head's first separator:
//   catalogue  "program#seed|op:a:b|op:a:b"
//   concolic   "program@slot|port:P|pkt:HEX|def:table:action[:ARGHEX...]..."
// Both are stable and safe for `.corpus` key=value lines (no '=' or
// whitespace).
class Recipe {
public:
    // The catalogue kind: SpecGenerator::make_for(program, seed), then the
    // ops in order.
    struct Catalogue {
        std::string program;
        std::uint64_t seed = 0;
        std::vector<MutationOp> ops;  // empty = the fresh scenario
    };

    // Implicit: a catalogue pair or a solver model is a recipe.
    Recipe(Catalogue catalogue) : kind_(std::move(catalogue)) {}
    Recipe(verify::ConcolicRecipe model) : kind_(std::move(model)) {}

    // The recipe's kind: exactly one of these is non-null.
    const Catalogue* catalogue() const { return std::get_if<Catalogue>(&kind_); }
    const verify::ConcolicRecipe* concolic() const {
        return std::get_if<verify::ConcolicRecipe>(&kind_);
    }

    const std::string& program() const;
    // The catalogue seed, or the concolic target slot: a `.corpus` file's
    // seed= value either way.
    std::uint64_t seed() const;
    // A catalogue pair without ops: the scenario the uniform sweep runs.
    bool fresh() const;

    std::string encode() const;
    // Strict: every structural defect -- a bad head, seed, slot or port,
    // an unknown op or section key, a missing or overflowing operand, odd
    // or non-hex digits, an empty or repeated section, more than
    // Mutator::kMaxChainOps ops -- rejects the whole text.
    static std::optional<Recipe> parse(std::string_view text);

private:
    std::variant<Catalogue, verify::ConcolicRecipe> kind_;
};

// The stored scenario corpus the mutation engine draws parents and donors
// from.  Recipes come from `.corpus` files (load_dir) and from the
// campaign's own guided rounds (add).  Iteration order is deterministic:
// per-program vectors in insertion order, programs by name.
class ScenarioCorpus {
public:
    // Loads the recipe of every `.corpus` file under `dir` (sorted by file
    // name, read by core/corpus.h's strict reader) whose program is in
    // `programs`.  Missing directory is fine (returns 0).  Every rejected
    // file gets a message in diagnostics() -- never a crash, never a silent
    // skip.  (Out-of-catalogue programs are the one silent case: they are
    // valid files that simply belong to another campaign slice.)
    std::size_t load_dir(const std::string& dir,
                         const std::vector<std::string>& programs);

    // "<file>: <reason>" for every file load_dir rejected, in file order.
    // Cleared by each load_dir call.
    const std::vector<std::string>& diagnostics() const { return diagnostics_; }

    // Adds one recipe; returns false when one with the same text is
    // already stored.
    bool add(const Recipe& recipe);

    // Recipes for one program; a stable empty vector when none.
    const std::vector<Recipe>& entries(const std::string& program) const;

private:
    std::map<std::string, std::vector<Recipe>> by_program_;
    std::set<std::string> keys_;  // dedup over encoded recipes
    std::vector<std::string> diagnostics_;
};

// Derives catalogue recipes and builds the scenario of any recipe over a
// SpecGenerator's catalogue.  The generator must outlive the mutator.
class Mutator {
public:
    // Hard ceiling on a recipe's op count, bounding recipe text and replay
    // cost: Recipe::parse refuses longer text.  One derivation appends at
    // most kMaxOpsPerDerive ops; chains that could no longer fit restart
    // from the root parent instead.
    static constexpr std::size_t kMaxChainOps = 12;
    static constexpr std::size_t kMaxOpsPerDerive = 5;  // 1 splice + 4 havoc

    explicit Mutator(const SpecGenerator& gen) : gen_(&gen) {}

    // Deterministically derives a recipe for `seed`: inherits (chains) the
    // parent's own ops, optionally prepends a splice against a fresh
    // same-program donor from `corpus`, then appends 1..4 havoc ops.  Same
    // (corpus, parent, seed) => same recipe.
    Recipe::Catalogue derive(const ScenarioCorpus& corpus,
                             const Recipe::Catalogue& parent,
                             std::uint64_t seed) const;

    // Builds the recipe's scenario, a pure function of the recipe and the
    // generator's program list.  A catalogue recipe replays its ops over
    // make_for(program, seed).  A concolic one injects exactly the
    // synthesized packet on the synthesized port, with the control plane
    // reduced to the recipe's set_default_action ops.  Throws
    // std::invalid_argument when the recipe names a program the generator
    // does not carry, or when a concolic recipe is inconsistent with the
    // program (unknown table/action, action not allowed on the table, or
    // argument count/width mismatch).
    Scenario build(const Recipe& recipe) const;

private:
    const SpecGenerator* gen_;
};

}  // namespace ndb::core
