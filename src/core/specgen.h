// Seeded scenario synthesis for differential fuzzing campaigns.
//
// A Scenario is everything one campaign iteration needs: a catalogue
// program, a replayable control-plane configuration, and a TestSpec whose
// template + field-mutation plan drives the packet stream.  Scenarios are a
// pure function of the seed, so any divergence a sweep finds is reproduced
// by re-running its seed -- the corpus under tests/corpus/ is just a list
// of such seeds.  Ground truth is not encoded here: the campaign engine
// derives expectations by running the same scenario on the reference
// backend (the paper's "golden device").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "control/runtime.h"
#include "core/testspec.h"
#include "p4/ir.h"
#include "util/bitvec.h"
#include "util/random.h"

namespace ndb::core {

// The replayable programming step lives with the control-plane value types
// (control/config.h) so the wire codec can batch it; this alias keeps the
// campaign-side spelling that scenario synthesis and the corpus grew up on.
using ConfigOp = control::ConfigOp;

struct Scenario {
    std::uint64_t seed = 0;
    std::string program;  // catalogue name
    std::shared_ptr<const p4::ir::Program> compiled;
    std::vector<ConfigOp> config;
    TestSpec spec;
};

class SpecGenerator {
public:
    // `programs` restricts synthesis to those catalogue entries (all must
    // exist); empty selects the default fuzzable subset.
    explicit SpecGenerator(std::vector<std::string> programs = {});

    const std::vector<std::string>& programs() const { return programs_; }

    // The index of `program` in programs(); throws std::invalid_argument
    // when the generator does not carry it.
    std::size_t index_of(const std::string& program) const;

    // The compiled image every scenario of programs()[program_index]
    // shares, without building a scenario.
    const std::shared_ptr<const p4::ir::Program>& image(
        std::size_t program_index) const {
        return compiled_.at(program_index);
    }

    // The catalogue subset a default-constructed generator sweeps.
    static std::vector<std::string> default_programs();

    // Builds the scenario for `seed`.  Deterministic and const: safe to call
    // concurrently from every campaign worker.
    Scenario make(std::uint64_t seed) const;

    // The index into programs() that make(seed) picks, without building the
    // scenario: the uniform sweep orders its seeds by it.
    std::size_t program_of(std::uint64_t seed) const;

    // The uniform sweep's run order over the seeds base_seed + i, i in
    // [0, scenarios): the indices i, stable-sorted by program_of, so each
    // program's seeds run together and in seed order.  CampaignEngine's
    // threads and FabricEngine's worker processes all claim positions in
    // this order.
    std::vector<std::uint64_t> program_grouped_order(std::uint64_t base_seed,
                                                     std::uint64_t scenarios) const;

    // Like make(), but the program is chosen by the caller instead of by
    // the seed -- the coverage-guided scheduler's entry point.  Consumes
    // exactly one RNG draw in place of the program pick, so
    // make_for(i, seed) on any generator equals make(seed) on a generator
    // restricted to that single program: a guided finding's (program, seed)
    // pair replays through the ordinary corpus path.
    Scenario make_for(std::size_t program_index, std::uint64_t seed) const;

private:
    // The program pick make() and program_of() share: the seed stream's
    // first draw.
    std::size_t pick_program(util::Rng& rng) const;
    Scenario build(util::Rng& rng, std::size_t which, std::uint64_t seed) const;

    std::vector<std::string> programs_;
    // Parallel to programs_; compiled once so the per-scenario hot path
    // never re-runs the P4 frontend.
    std::vector<std::shared_ptr<const p4::ir::Program>> compiled_;
};

}  // namespace ndb::core
