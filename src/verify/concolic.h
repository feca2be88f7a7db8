// Concolic seed synthesis: the bridge from the symbolic layer to the
// greybox campaign corpus.
//
// Given coverage slots that never lit during a guided campaign (mapped back
// to IR sites by coverage::EdgeIndex), this driver asks symexec for a path
// whose trace covers each site, conjoins the path condition with the
// concrete execution environment (in-range ingress port, the generator's
// timestamp, zeroed registers, green meters, exact packet length), solves
// with the in-tree SAT core via the bit-blaster, and decodes the model into
// a concrete packet plus the table default-action programming that steers
// execution down that path.  The campaign injects the result as a
// high-energy corpus entry -- hybrid fuzzing in the Driller/FP4 mold.
//
// This doubles as a differential check of the verify layer: the caller
// asserts every synthesized packet actually lights its target slot on the
// interpreter, so symexec/bitblast/SAT bugs surface as test failures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coverage/edge_index.h"
#include "p4/ir.h"
#include "verify/expr.h"
#include "verify/symexec.h"

namespace ndb::verify {

struct ConcolicOptions {
    int max_paths = 4096;            // symexec exploration budget
    std::uint64_t max_conflicts = 200'000;  // SAT budget per candidate path
    int max_attempts_per_site = 4;   // candidate paths tried per dark site
};

// One synthesized corpus seed, fully concrete: the packet, ingress port
// and table default-action programming that make `program`'s reference
// image light coverage slot `slot`.  The solver's model IS the scenario, so
// this is also the concolic kind of core::Recipe, which gives it its text
// form and replays it.
struct ConcolicRecipe {
    std::string program;
    std::uint64_t slot = 0;  // target coverage slot; doubles as the seed
    std::uint32_t ingress_port = 0;
    std::vector<std::uint8_t> packet;

    struct Default {
        std::string table;
        std::string action;
        // Big-endian action-argument images, ceil(width/8) bytes each
        // (checked against the program when the recipe is built).
        std::vector<std::vector<std::uint8_t>> args;
    };
    std::vector<Default> defaults;  // set_default_action ops, in table order
};

enum class TargetStatus {
    solved,    // model decoded into a seed
    unsat,     // every candidate path's constraint is unsatisfiable
    unknown,   // SAT conflict budget exhausted: NOT proof of unreachability
    no_path,   // symexec produced no path covering the site
};

struct TargetOutcome {
    coverage::EdgeSite site;
    TargetStatus status = TargetStatus::no_path;
    std::string detail;  // human diagnostics (why skipped / which path)
};

struct ConcolicResult {
    std::vector<ConcolicRecipe> seeds;
    std::vector<TargetOutcome> outcomes;  // one per requested target
    // True when symexec hit max_paths: a no_path outcome then means "not
    // found within budget", never "unreachable".
    bool paths_exhausted = false;
};

class ConcolicSynthesizer {
public:
    explicit ConcolicSynthesizer(const p4::ir::Program& prog,
                                 ConcolicOptions options = {});

    // Attempts every target in order; deterministic (no randomness, fixed
    // path enumeration order), so round-barrier synthesis stays
    // byte-identical across campaign thread counts.
    ConcolicResult synthesize(const std::vector<coverage::EdgeSite>& targets);

private:
    void ensure_explored();
    std::vector<const SymPath*> candidates(const coverage::EdgeSite& site) const;
    // Solves one candidate; fills `seed` on sat.
    TargetStatus solve_path(const SymPath& path, ConcolicRecipe& seed,
                            std::string& detail);

    const p4::ir::Program& prog_;
    ConcolicOptions options_;
    VarPool pool_;
    std::vector<SymPath> paths_;
    bool explored_ = false;
    bool paths_exhausted_ = false;
};

}  // namespace ndb::verify
