// Differential oracle for the verification substrate, and the concolic
// end-to-end acceptance bar.
//
// Layer 1 (expression level): randomized bit-vector expressions are
// bit-blasted and solved by the in-tree SAT core, and every model the
// solver produces is replayed through an independent reference evaluator
// written against the documented wrap-modulo-2^width semantics.  The same
// expressions are also evaluated under random concrete environments and
// the solver is asked to agree (sat with the matching polarity pinned,
// unsat with the opposite) -- soundness and completeness checked in both
// directions.  Constraints are deliberately passed as temporaries: the
// bit-blaster once cached literals by raw Node pointer, so a freed node's
// address could be recycled by a structurally different term and inherit
// its CNF (heap-layout-dependent spurious unsat).  These tests pin that
// regression.
//
// Layer 2 (program level): every seed the concolic synthesizer produces
// for a catalogue program must actually light its target coverage slot
// when the decoded packet+config runs on a real device.  Plus the campaign acceptance bar: on the seven-flag
// quirk fixture, a concolic-assisted guided campaign lights coverage
// slots that stay dark under pure greybox at the same scenario budget,
// and every injected `concolic=` recipe replays deterministically to
// re-light its slot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/generator.h"
#include "core/mutate.h"
#include "core/specgen.h"
#include "coverage/coverage.h"
#include "coverage/edge_index.h"
#include "dataplane/engine.h"
#include "quirk_fixture.h"
#include "target/device.h"
#include "util/strings.h"
#include "verify/concolic.h"
#include "verify/solver.h"
#include "verify/symexec.h"

namespace {

using namespace ndb;
using verify::SExpr;

// --- layer 1: randomized expression differential ------------------------------

std::uint64_t splitmix64(std::uint64_t& state) {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t width_mask(int w) {
    return w >= 64 ? ~0ull : ((1ull << w) - 1);
}

// Independent reference semantics for the term language: plain uint64
// arithmetic masked to the node width.  Kept separate from the bit-blaster
// on purpose -- agreement between the two is the test.
struct RefEval {
    std::map<int, std::uint64_t> env;  // var_id -> concrete value

    std::uint64_t eval(const SExpr& e) const {
        using verify::Op;
        const auto& n = *e;
        switch (n.op) {
            case Op::var:
                return env.at(n.var_id);
            case Op::constant:
            case Op::bool_const:
                return n.value.to_u64();
            case Op::add:
                return (eval(n.a) + eval(n.b)) & width_mask(n.width);
            case Op::sub:
                return (eval(n.a) - eval(n.b)) & width_mask(n.width);
            case Op::mul:
                return (eval(n.a) * eval(n.b)) & width_mask(n.width);
            case Op::band:
                return eval(n.a) & eval(n.b);
            case Op::bor:
                return eval(n.a) | eval(n.b);
            case Op::bxor:
                return eval(n.a) ^ eval(n.b);
            case Op::bnot:
                return ~eval(n.a) & width_mask(n.width);
            case Op::shl: {
                const std::uint64_t amt = eval(n.b);
                if (amt >= static_cast<std::uint64_t>(n.width)) return 0;
                return (eval(n.a) << amt) & width_mask(n.width);
            }
            case Op::lshr: {
                const std::uint64_t amt = eval(n.b);
                if (amt >= static_cast<std::uint64_t>(n.width)) return 0;
                return eval(n.a) >> amt;
            }
            case Op::eq:
                return eval(n.a) == eval(n.b) ? 1 : 0;
            case Op::ult:
                return eval(n.a) < eval(n.b) ? 1 : 0;
            case Op::ule:
                return eval(n.a) <= eval(n.b) ? 1 : 0;
            case Op::bool_and:
                return (eval(n.a) & eval(n.b)) & 1;
            case Op::bool_or:
                return (eval(n.a) | eval(n.b)) & 1;
            case Op::bool_not:
                return eval(n.a) ^ 1;
            case Op::ite:
                return eval(n.c) ? eval(n.a) : eval(n.b);
            case Op::slice:
                return (eval(n.a) >> n.lo) & width_mask(n.hi - n.lo + 1);
            case Op::concat:
                return (eval(n.a) << n.b->width) | eval(n.b);
            case Op::zext:
                return eval(n.a) & width_mask(n.width);
        }
        ADD_FAILURE() << "unhandled op";
        return 0;
    }
};

// The random variables one generated expression draws over.
struct TestVars {
    std::vector<SExpr> vars;
    std::vector<int> widths;
};

TestVars make_vars(std::uint64_t& rng) {
    static const int kWidths[] = {4, 8, 9, 13, 16};
    TestVars tv;
    const int count = 2 + static_cast<int>(splitmix64(rng) % 3);  // 2..4
    for (int i = 0; i < count; ++i) {
        const int w = kWidths[splitmix64(rng) % std::size(kWidths)];
        tv.vars.push_back(verify::sv_var(i, w, util::format("v%d", i)));
        tv.widths.push_back(w);
    }
    return tv;
}

// Random bit-vector term of exactly `width` bits.  Widths stay <= 32 so
// the reference evaluator's uint64 arithmetic is exact even for concat.
SExpr random_term(std::uint64_t& rng, const TestVars& tv, int width, int depth) {
    using namespace verify;
    if (depth <= 0 || splitmix64(rng) % 4 == 0) {
        // Leaf: a variable resized to the requested width, or a constant.
        if (splitmix64(rng) % 3 == 0) {
            return sv_const_u(width, splitmix64(rng) & width_mask(width));
        }
        const std::size_t i = splitmix64(rng) % tv.vars.size();
        return sv_resize(tv.vars[i], width);
    }
    switch (splitmix64(rng) % 10) {
        case 0: return sv_add(random_term(rng, tv, width, depth - 1),
                              random_term(rng, tv, width, depth - 1));
        case 1: return sv_sub(random_term(rng, tv, width, depth - 1),
                              random_term(rng, tv, width, depth - 1));
        case 2: return sv_mul(random_term(rng, tv, width, depth - 1),
                              random_term(rng, tv, width, depth - 1));
        case 3: return sv_and(random_term(rng, tv, width, depth - 1),
                              random_term(rng, tv, width, depth - 1));
        case 4: return sv_or(random_term(rng, tv, width, depth - 1),
                             random_term(rng, tv, width, depth - 1));
        case 5: return sv_xor(random_term(rng, tv, width, depth - 1),
                              random_term(rng, tv, width, depth - 1));
        case 6: return sv_not(random_term(rng, tv, width, depth - 1));
        case 7: return splitmix64(rng) % 2
                           ? sv_shl(random_term(rng, tv, width, depth - 1),
                                    random_term(rng, tv, width, depth - 1))
                           : sv_lshr(random_term(rng, tv, width, depth - 1),
                                     random_term(rng, tv, width, depth - 1));
        case 8: {
            if (width >= 2) {
                const int lo_w =
                    1 + static_cast<int>(splitmix64(rng) % (width - 1));
                return sv_concat(random_term(rng, tv, width - lo_w, depth - 1),
                                 random_term(rng, tv, lo_w, depth - 1));
            }
            return sv_not(random_term(rng, tv, width, depth - 1));
        }
        default: {
            const int inner = width + static_cast<int>(splitmix64(rng) % 8);
            if (inner > width && inner <= 32) {
                return sv_slice(random_term(rng, tv, inner, depth - 1),
                                width - 1, 0);
            }
            return sv_resize(random_term(rng, tv, width, depth - 1), width);
        }
    }
}

// Random boolean formula over comparisons of same-width terms.
SExpr random_formula(std::uint64_t& rng, const TestVars& tv, int depth) {
    using namespace verify;
    static const int kWidths[] = {4, 8, 9, 13, 16, 24, 32};
    if (depth <= 0 || splitmix64(rng) % 3 == 0) {
        const int w = kWidths[splitmix64(rng) % std::size(kWidths)];
        SExpr a = random_term(rng, tv, w, 2);
        SExpr b = random_term(rng, tv, w, 2);
        switch (splitmix64(rng) % 3) {
            case 0: return sv_eq(a, b);
            case 1: return sv_ult(a, b);
            default: return sv_ule(a, b);
        }
    }
    switch (splitmix64(rng) % 4) {
        case 0: return sv_land(random_formula(rng, tv, depth - 1),
                               random_formula(rng, tv, depth - 1));
        case 1: return sv_lor(random_formula(rng, tv, depth - 1),
                              random_formula(rng, tv, depth - 1));
        case 2: return sv_lnot(random_formula(rng, tv, depth - 1));
        default: return sv_ite(random_formula(rng, tv, depth - 1),
                               random_formula(rng, tv, depth - 1),
                               random_formula(rng, tv, depth - 1));
    }
}

TEST(SolverDifferential, ModelsSatisfyTheReferenceEvaluator) {
    int sat_seen = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        std::uint64_t rng = seed * 0x5851f42d4c957f2dull;
        const TestVars tv = make_vars(rng);
        const SExpr formula = random_formula(rng, tv, 3);
        SCOPED_TRACE("seed " + std::to_string(seed) + ": " +
                     verify::sv_to_string(formula));

        verify::Solver solver;
        solver.add(formula);
        const verify::SatResult r = solver.check();
        ASSERT_NE(r, verify::SatResult::unknown);
        if (r != verify::SatResult::sat) continue;
        ++sat_seen;

        RefEval ref;
        for (std::size_t i = 0; i < tv.vars.size(); ++i) {
            ref.env[static_cast<int>(i)] = solver.eval(tv.vars[i]).to_u64();
        }
        EXPECT_EQ(ref.eval(formula), 1u)
            << "solver model does not satisfy the formula per the reference "
               "evaluator";
    }
    // The generator must not degenerate into all-unsat formulas.
    EXPECT_GE(sat_seen, 20);
}

TEST(SolverDifferential, PinnedEnvironmentsAgreeInBothPolarities) {
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        std::uint64_t rng = seed * 0x2545f4914f6cdd1dull;
        const TestVars tv = make_vars(rng);
        const SExpr formula = random_formula(rng, tv, 3);

        RefEval ref;
        for (std::size_t i = 0; i < tv.vars.size(); ++i) {
            ref.env[static_cast<int>(i)] =
                splitmix64(rng) & width_mask(tv.widths[i]);
        }
        const bool expected = ref.eval(formula) != 0;
        SCOPED_TRACE("seed " + std::to_string(seed) + " expected " +
                     (expected ? "sat-positive" : "sat-negative"));

        // With every variable pinned, the formula's truth value is fully
        // determined: the matching polarity must be sat, the opposite unsat.
        for (const bool polarity : {true, false}) {
            verify::Solver solver;
            for (std::size_t i = 0; i < tv.vars.size(); ++i) {
                solver.add(verify::sv_eq(
                    tv.vars[i],
                    verify::sv_const_u(tv.widths[i],
                                       ref.env[static_cast<int>(i)])));
            }
            solver.add(polarity ? formula : verify::sv_lnot(formula));
            const verify::SatResult r = solver.check();
            ASSERT_NE(r, verify::SatResult::unknown);
            EXPECT_EQ(r == verify::SatResult::sat, polarity == expected)
                << "solver disagrees with the reference evaluator under a "
                   "fully pinned environment";
        }
    }
}

// Regression: constraints handed to Solver::add as temporaries (nothing
// else keeping the SExpr alive) must solve identically to long-lived ones.
// The bit-blaster used to key its CNF cache by raw Node pointer, so heap
// address reuse across freed temporaries corrupted later constraints into
// heap-layout-dependent spurious unsat.
TEST(SolverDifferential, TemporaryConstraintLifetimes) {
    using namespace verify;
    const SExpr port = sv_var(0, 9, "port");
    const SExpr len = sv_var(1, 32, "len");
    const SExpr ts = sv_var(2, 48, "ts");

    Solver solver;
    // Each add()'s argument dies immediately; interleaved throwaway terms
    // churn the allocator to encourage node-address reuse.
    solver.add(sv_ult(port, sv_const_u(9, 4)));
    for (int i = 0; i < 64; ++i) {
        (void)sv_eq(sv_const_u(32, static_cast<std::uint64_t>(i)),
                    sv_const_u(32, 30));
    }
    solver.add(sv_eq(len, sv_const_u(32, 30)));
    for (int i = 0; i < 64; ++i) {
        (void)sv_ult(sv_const_u(48, static_cast<std::uint64_t>(i)),
                     sv_const_u(48, 1000));
    }
    solver.add(sv_eq(ts, sv_const_u(48, 1000)));
    ASSERT_EQ(solver.check(), SatResult::sat);
    EXPECT_LT(solver.eval(port).to_u64(), 4u);
    EXPECT_EQ(solver.eval(len).to_u64(), 30u);
    EXPECT_EQ(solver.eval(ts).to_u64(), 1000u);

    // And the genuinely contradictory version must still be unsat.
    Solver contra;
    contra.add(sv_eq(len, sv_const_u(32, 30)));
    contra.add(sv_eq(len, sv_const_u(32, 31)));
    EXPECT_EQ(contra.check(), SatResult::unsat);
}

// --- layer 2: symexec budget truncation surfaces, never silently --------------

TEST(SymExecBudget, PathsExhaustedIsSurfaced) {
    const core::SpecGenerator gen;
    const auto& programs = gen.programs();
    const auto it = std::find(programs.begin(), programs.end(),
                              std::string("ipv4_router"));
    ASSERT_NE(it, programs.end());
    const core::Scenario sc =
        gen.make_for(static_cast<std::size_t>(it - programs.begin()), 1);

    verify::VarPool pool;
    verify::SymExecOptions opts;
    opts.max_paths = 1;
    verify::SymExec exec(*sc.compiled, pool, opts);
    EXPECT_TRUE(exec.explore().paths_exhausted)
        << "a one-path budget on a branching program must report truncation";

    verify::VarPool full_pool;
    verify::SymExec full(*sc.compiled, full_pool);
    EXPECT_FALSE(full.explore().paths_exhausted);

    // The concolic layer forwards the flag (and its no_path outcomes must
    // then read as "not found within budget", never "unreachable").
    verify::ConcolicOptions copts;
    copts.max_paths = 1;
    verify::ConcolicSynthesizer synth(*sc.compiled, copts);
    auto dev = target::make_device("reference");
    const coverage::EdgeIndex index(*sc.compiled, dev->coverage_salt());
    const verify::ConcolicResult result = synth.synthesize(index.sites());
    EXPECT_TRUE(result.paths_exhausted);
}

// --- layer 2: concolic end-to-end ---------------------------------------------

// One instance, on the data plane's only engine; the suite keeps its
// Engines/.../interpreter name so the test's history stays continuous.
class ConcolicEndToEnd : public ::testing::TestWithParam<dataplane::Engine> {};

INSTANTIATE_TEST_SUITE_P(Engines, ConcolicEndToEnd,
                         ::testing::Values(dataplane::Engine::interpreter),
                         [](const auto& info) {
                             return std::string(
                                 dataplane::engine_name(info.param));
                         });

// Builds the replayable recipe for one synthesized seed, exactly as the
// campaign's round-barrier synthesis does.
core::ConcolicRecipe recipe_for(const std::string& program,
                                const verify::ConcolicSeed& seed) {
    core::ConcolicRecipe recipe;
    recipe.program = program;
    recipe.slot = seed.target.slot;
    recipe.ingress_port = seed.ingress_port;
    recipe.packet = seed.packet;
    for (const auto& def : seed.defaults) {
        core::ConcolicRecipe::Default d;
        d.table = def.table;
        d.action = def.action;
        for (const auto& arg : def.args) d.args.push_back(arg.to_bytes());
        recipe.defaults.push_back(std::move(d));
    }
    return recipe;
}

TEST_P(ConcolicEndToEnd, EverySynthesizedSeedLightsItsTargetSlot) {
    const core::SpecGenerator gen;
    const core::Mutator mutator(gen);
    std::size_t seeds_total = 0;

    for (std::size_t pi = 0; pi < gen.programs().size(); ++pi) {
        const std::string& program = gen.programs()[pi];
        SCOPED_TRACE(program);
        const core::Scenario base = gen.make_for(pi, 1);

        auto probe = target::make_device("reference");
        const coverage::EdgeIndex index(*base.compiled,
                                        probe->coverage_salt());
        verify::ConcolicSynthesizer synth(*base.compiled);
        const verify::ConcolicResult result = synth.synthesize(index.sites());
        EXPECT_FALSE(result.paths_exhausted);

        for (const auto& seed : result.seeds) {
            SCOPED_TRACE(seed.target.describe(*base.compiled));
            const core::ConcolicRecipe recipe = recipe_for(program, seed);

            // The recipe text round-trips exactly.
            const std::string text = recipe.encode();
            const auto reparsed = core::ConcolicRecipe::parse(text);
            ASSERT_TRUE(reparsed.has_value()) << text;
            EXPECT_EQ(reparsed->encode(), text);

            // The decoded scenario lights the target slot on a real device.
            const core::Scenario sc = mutator.apply_concolic(*reparsed);
            coverage::CoverageMap map;
            auto dev = target::make_device("reference");
            dev->set_coverage(&map);
            ASSERT_TRUE(dev->load(*sc.compiled));
            for (const auto& op : sc.config) core::apply_config_op(*dev, op);
            core::TestPacketGenerator pgen(sc.spec);
            for (std::uint64_t seq = 1; seq <= sc.spec.count; ++seq) {
                dev->inject(pgen.make_packet(seq, 1'000'000 + (seq - 1) * 672));
            }
            dev->flush();
            EXPECT_GT(map.count(static_cast<std::uint32_t>(seed.target.slot)),
                      0u)
                << "synthesized seed failed to light its target slot";
            ++seeds_total;
        }
    }
    // The catalogue must yield a substantial synthesized corpus: a solver
    // or symexec regression that silently empties it fails here.
    EXPECT_GE(seeds_total, 25u);
}

// --- layer 2: campaign acceptance on the seven-flag fixture -------------------

// Named like ConcolicEndToEnd above, for the same reason.
class ConcolicCampaign : public ::testing::TestWithParam<dataplane::Engine> {};

INSTANTIATE_TEST_SUITE_P(Engines, ConcolicCampaign,
                         ::testing::Values(dataplane::Engine::interpreter),
                         [](const auto& info) {
                             return std::string(
                                 dataplane::engine_name(info.param));
                         });

TEST_P(ConcolicCampaign, LightsEdgesDarkUnderPureGreyboxAtEqualBudget) {
    const ndb_test::FlagFixture fx = ndb_test::seven_flag_fixture();
    constexpr std::uint64_t kBudget = 48;

    const auto run = [&](bool concolic, coverage::CoverageMap* map_out) {
        core::CampaignConfig config;
        ndb_test::apply_fixture(fx, config);
        config.scenarios = kBudget;
        config.threads = 2;
        config.mutate = true;
        config.concolic = concolic;
        config.coverage_map_out = map_out;
        core::CampaignEngine engine(config);
        return engine.run();
    };

    coverage::CoverageMap greybox_map;
    const core::CampaignReport greybox = run(false, &greybox_map);
    coverage::CoverageMap concolic_map;
    const core::CampaignReport assisted = run(true, &concolic_map);

    ASSERT_GE(assisted.concolic_injected, 1u) << assisted.to_string();
    EXPECT_EQ(assisted.concolic_mismatched, 0u) << assisted.to_string();
    EXPECT_EQ(assisted.concolic_recipes.size(), assisted.concolic_injected);

    // At least one synthesized target slot stays dark under pure greybox
    // with the identical budget but is lit in the assisted run.
    std::size_t newly_lit = 0;
    for (const std::string& text : assisted.concolic_recipes) {
        const auto recipe = core::ConcolicRecipe::parse(text);
        ASSERT_TRUE(recipe.has_value()) << text;
        const auto slot = static_cast<std::uint32_t>(recipe->slot);
        if (greybox_map.count(slot) == 0 && concolic_map.count(slot) > 0) {
            ++newly_lit;
        }
    }
    EXPECT_GE(newly_lit, 1u)
        << "concolic assistance lit no slot that greybox left dark\n"
        << assisted.to_string();

    // Every injected recipe replays deterministically, alone, to re-light
    // its slot through the single-recipe replay path.
    for (const std::string& text : assisted.concolic_recipes) {
        SCOPED_TRACE(text);
        core::CampaignConfig config;
        ndb_test::apply_fixture(fx, config);
        config.mutation_recipe = text;
        config.coverage = true;
        coverage::CoverageMap replay_map;
        config.coverage_map_out = &replay_map;
        core::CampaignEngine engine(config);
        const core::CampaignReport report = engine.run();
        EXPECT_EQ(report.scenarios_concolic, 1u);
        const auto recipe = core::ConcolicRecipe::parse(text);
        ASSERT_TRUE(recipe.has_value());
        EXPECT_GT(replay_map.count(static_cast<std::uint32_t>(recipe->slot)), 0u)
            << "replayed concolic recipe no longer lights its slot";
    }
}

// The synthesis loop is part of the deterministic report contract: thread
// count must not change a single byte of a concolic campaign's JSON.
TEST(ConcolicCampaign, ReportIsByteIdenticalAcrossThreadCounts) {
    const auto run = [&](int threads) {
        core::CampaignConfig config;
        config.programs = {"ipv4_router", "reject_filter", "acl_firewall"};
        config.scenarios = 32;
        config.threads = threads;
        config.mutate = true;
        config.concolic = true;
        core::CampaignEngine engine(config);
        return engine.run().to_json();
    };
    const std::string one = run(1);
    EXPECT_EQ(one, run(3));
    EXPECT_EQ(one, run(7));
}

}  // namespace
