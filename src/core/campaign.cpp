#include "core/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/generator.h"
#include "core/mutate.h"
#include "core/scenario_exec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "coverage/coverage.h"
#include "coverage/edge_index.h"
#include "coverage/scheduler.h"
#include "target/device.h"
#include "util/random.h"
#include "util/strings.h"
#include "verify/concolic.h"

namespace ndb::core {

namespace {

// Decorrelates the fresh-vs-mutant coin (and parent pick) from both the
// scenario seed stream and the mutation-derivation stream.
constexpr std::uint64_t kMutateCoinSalt = 0x636f696e666c6970ull;  // "coinflip"

// --- JSON helpers -------------------------------------------------------------

std::string json_string_array(const std::vector<std::string>& items) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i) out += ", ";
        out += '"';
        out += util::json_escape(items[i]);
        out += '"';
    }
    return out + "]";
}

}  // namespace

// --- engine -------------------------------------------------------------------

SweepSetup prepare_sweep(const CampaignConfig& config) {
    // Checked first: a malformed spec costs no compile.
    const control::FaultPlan mgmt_plan =
        control::FaultPlan::parse(config.mgmt_fault_plan);
    // Mutants need the scheduler and synthesis needs the map, so either
    // implies coverage.
    const bool guided = config.coverage || config.mutate || config.concolic;
    const SweepMode mode = !config.mutation_recipe.empty() ? SweepMode::replay
                           : guided                        ? SweepMode::guided
                                                           : SweepMode::uniform;
    SweepSetup s{mode, SpecGenerator(config.programs), {}, {}, {}};

    // An unknown backend is refused here, so neither engine starts (or
    // forks) a worker that could only fail to build its devices.
    const std::vector<std::string> backends = target::registered_backends();
    const auto registered = [&backends](const std::string& name) {
        return std::binary_search(backends.begin(), backends.end(), name);
    };
    if (!registered(config.reference_backend)) {
        throw std::invalid_argument("campaign: unknown reference backend '" +
                                    config.reference_backend + "'");
    }
    s.duts = config.duts;
    if (s.duts.empty()) {
        for (const auto& name : backends) {
            if (name == config.reference_backend) continue;
            s.duts.push_back(BackendSpec{name, std::nullopt, name});
        }
    }
    for (auto& d : s.duts) {
        if (!registered(d.name)) {
            throw std::invalid_argument("campaign: unknown backend '" + d.name + "'");
        }
        if (d.label.empty()) d.label = d.name;
    }

    s.exec.batch_size = config.batch_size;
    s.exec.minimize = config.minimize;
    s.exec.localize = config.localize;
    s.exec.coverage = guided;
    s.exec.mgmt_plan = mgmt_plan;

    CampaignReport& report = s.report;
    report.base_seed = config.base_seed;
    report.scenarios = s.mode == SweepMode::replay ? 1 : config.scenarios;
    report.programs = s.gen.programs();
    report.engine = dataplane::engine_name(dataplane::default_engine());
    for (const auto& d : s.duts) report.backends.push_back(d.label);
    report.coverage_enabled = guided;
    report.concolic_enabled = config.concolic;
    report.mgmt_enabled = s.exec.mgmt_plan.enabled();
    if (guided) {
        report.coverage_map_slots = coverage::CoverageMap::kSlots;
        report.coverage_edges_dut.assign(s.duts.size(), 0);
    }
    return s;
}

CampaignStats sweep_stats(const CampaignReport& report,
                          std::chrono::steady_clock::time_point t0) {
    CampaignStats stats;
    stats.wall_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    if (stats.wall_seconds > 0) {
        stats.scenarios_per_sec =
            static_cast<double>(report.scenarios) / stats.wall_seconds;
        stats.packets_per_sec =
            static_cast<double>(report.packets_injected) / stats.wall_seconds;
    }
    return stats;
}

CampaignEngine::CampaignEngine(CampaignConfig config)
    : config_(std::move(config)) {}

CampaignReport CampaignEngine::run() {
    SweepSetup sweep = prepare_sweep(config_);
    const SpecGenerator& gen = sweep.gen;
    const Mutator mutator(gen);
    const std::vector<BackendSpec>& duts = sweep.duts;
    const ExecOptions& exec = sweep.exec;
    CampaignReport& report = sweep.report;

    // An exception anywhere in a worker (unknown backend, a device refusing
    // an image) must surface to the caller, not std::terminate the process:
    // capture the first one, stop the pool, rethrow after the join.
    const int threads = std::clamp(config_.threads, 1, 64);
    if (obs::metrics_on()) {
        obs::Metrics::instance().gauge_set(obs::Gauge::campaign_threads, threads);
    }
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    // One device pool per worker slot, created on first use and reused
    // across every scheduling round (load() replaces image + state).
    std::vector<std::unique_ptr<WorkerContext>> contexts(
        static_cast<std::size_t>(threads));

    // Runs `jobs` indexed work items over the worker pool.  Guided mode
    // calls this once per scheduler round; the job body only writes its own
    // outcome slot, so results are mergeable in index order afterwards.
    // At most one worker starts per job, so no slot builds a pool it would
    // never use.
    const auto run_pool =
        [&](std::uint64_t jobs,
            const std::function<void(WorkerContext&, std::uint64_t)>& job) {
            std::atomic<std::uint64_t> next{0};
            const auto worker = [&](std::size_t slot) {
                try {
                    if (!contexts[slot]) {
                        contexts[slot] = std::make_unique<WorkerContext>(
                            config_.reference_backend, duts);
                    }
                    while (!failed.load(std::memory_order_relaxed)) {
                        const std::uint64_t index = next.fetch_add(1);
                        if (index >= jobs) break;
                        job(*contexts[slot], index);
                    }
                } catch (...) {
                    const std::lock_guard<std::mutex> lock(error_mutex);
                    if (!first_error) first_error = std::current_exception();
                    failed.store(true, std::memory_order_relaxed);
                }
            };
            const auto workers = static_cast<std::size_t>(
                std::min<std::uint64_t>(static_cast<std::uint64_t>(threads), jobs));
            if (workers == 1) {
                worker(0);
            } else {
                std::vector<std::thread> pool;
                pool.reserve(workers);
                for (std::size_t i = 0; i < workers; ++i) pool.emplace_back(worker, i);
                for (auto& t : pool) t.join();
            }
            if (first_error) std::rethrow_exception(first_error);
        };

    // Merge in scenario order so the report never depends on scheduling
    // (see ReportBuilder::fold).
    ReportBuilder builder(report);
    // With coverage on, each outcome's lit slots merge into one campaign
    // map, reference first, and the fresh edges are credited to the report;
    // returns the fresh reference and DUT edge counts.
    coverage::CoverageMap global;
    const auto merge_coverage = [&](const ScenarioOutcome& outcome) {
        const std::size_t ref_edges = global.merge_new_from(outcome.coverage);
        report.coverage_edges_reference += ref_edges;
        std::size_t dut_edges = 0;
        for (std::size_t d = 0; d < outcome.dut_coverage.size(); ++d) {
            const std::size_t fresh = global.merge_new_from(outcome.dut_coverage[d]);
            report.coverage_edges_dut[d] += fresh;
            dut_edges += fresh;
        }
        return std::pair{ref_edges, dut_edges};
    };

    const auto t0 = std::chrono::steady_clock::now();
    if (sweep.mode == SweepMode::replay) {
        // Single-recipe replay: run exactly the recorded scenario through
        // the ordinary detection/triage path.  This is how a mutated or
        // concolically synthesized corpus entry (or a report's parentage
        // recipe) reproduces its divergence.  Its findings carry the text
        // as given.
        const std::optional<Recipe> recipe = Recipe::parse(config_.mutation_recipe);
        if (!recipe) {
            throw std::invalid_argument("campaign: unparseable recipe '" +
                                        config_.mutation_recipe + "'");
        }
        const Scenario sc = mutator.build(*recipe);
        // The report is headed with the seed the findings carry, and a
        // catalogue recipe without ops is the fresh scenario, not a mutant.
        report.base_seed = recipe->seed();
        if (recipe->concolic()) {
            report.scenarios_concolic = 1;
        } else if (!recipe->fresh()) {
            report.scenarios_mutated = 1;
        }
        std::vector<ScenarioOutcome> outcomes(1);
        run_pool(1, [&](WorkerContext& ctx, std::uint64_t) {
            execute_scenario(ctx, sc, duts, exec, outcomes[0],
                             config_.mutation_recipe);
        });
        builder.fold(outcomes[0]);
        if (exec.coverage) {
            merge_coverage(outcomes[0]);
            report.coverage_series.push_back(
                {1, static_cast<std::uint64_t>(global.edges_covered())});
        }
    } else if (sweep.mode == SweepMode::uniform) {
        // Uniform sweep: every seed in [base, base + scenarios) once.  Jobs
        // claim the seeds grouped by program (seed order within a program),
        // so a worker's devices build each image once and reset in place
        // for the rest of that program's scenarios.  Each outcome still
        // lands at its seed's index and folds in seed order (the header
        // says why run order cannot change it).
        const std::vector<std::uint64_t> order =
            gen.program_grouped_order(config_.base_seed, config_.scenarios);
        std::vector<ScenarioOutcome> outcomes(config_.scenarios);
        run_pool(config_.scenarios,
                 [&](WorkerContext& ctx, std::uint64_t position) {
                     const std::uint64_t index = order[position];
                     const Scenario sc = gen.make(config_.base_seed + index);
                     execute_scenario(ctx, sc, duts, exec, outcomes[index],
                                      std::string());
                 });
        for (auto& outcome : outcomes) builder.fold(outcome);
    } else {
        // Guided mode: deterministic rounds.  Each round the scheduler
        // apportions the budget across programs from the feedback merged so
        // far; slots -- (program, fresh seed) or a fully derived mutation
        // recipe -- are fixed before any worker starts, so thread count
        // never changes what runs or how it merges.
        coverage::CorpusScheduler scheduler(gen.programs().size());
        ScenarioCorpus corpus;
        if (config_.mutate && !config_.corpus_dir.empty()) {
            // A damaged recipe file is an error, like a malformed fault
            // plan: refused before any scenario runs, never silently left
            // out of the corpus.
            corpus.load_dir(config_.corpus_dir, gen.programs());
            if (!corpus.diagnostics().empty()) {
                std::string why = "campaign: corpus directory '" +
                                  config_.corpus_dir + "' holds damaged files:";
                for (const std::string& d : corpus.diagnostics()) {
                    why += "\n  " + d;
                }
                throw std::invalid_argument(why);
            }
        }
        // Concolic synthesis state, per catalogue program, built lazily the
        // first time a program's dark sites are attempted.  `attempted`
        // remembers every slot ever handed to the solver so a hard target
        // is not re-solved at each barrier.
        struct ConcolicState {
            std::unique_ptr<coverage::EdgeIndex> index;
            std::unique_ptr<verify::ConcolicSynthesizer> synth;
            std::set<std::uint32_t> attempted;
        };
        std::vector<ConcolicState> concolic_states(
            config_.concolic ? gen.programs().size() : 0);
        // Seeds synthesized at one barrier, scheduled ahead of the next
        // round's plan.
        std::vector<Recipe> pending;
        const std::uint64_t round_cap =
            std::max<std::uint64_t>(8, 2 * gen.programs().size());
        // One outcome buffer per slot, refilled every round.
        std::vector<ScenarioOutcome> outcomes;
        std::uint64_t done = 0;
        std::uint64_t seed_cursor = 0;
        std::uint64_t round_index = 0;
        while (done < config_.scenarios) {
            const std::uint64_t round_t0 =
                obs::trace_on() ? obs::now_ns() : 0;
            const std::uint64_t round =
                std::min(config_.scenarios - done, round_cap);
            // A slot is one recipe: a fresh (program, seed) pair, a mutant
            // or a synthesized seed.
            std::vector<Recipe> slots;
            slots.reserve(static_cast<std::size_t>(round));
            // Synthesized seeds first: they were solved specifically to
            // light still-dark slots, so they outrank anything the
            // scheduler would plan.  Each consumes one slot of the round's
            // budget.
            const std::size_t take = static_cast<std::size_t>(
                std::min<std::uint64_t>(pending.size(), round));
            std::move(pending.begin(),
                      pending.begin() + static_cast<std::ptrdiff_t>(take),
                      std::back_inserter(slots));
            pending.erase(pending.begin(),
                          pending.begin() + static_cast<std::ptrdiff_t>(take));
            report.scenarios_concolic += take;
            const std::vector<std::uint64_t> plan =
                scheduler.plan_round(round - take);
            for (std::size_t p = 0; p < plan.size(); ++p) {
                const std::string& program = gen.programs()[p];
                // Mutation parents: the program's catalogue recipes.
                // Concolic entries replay whole, never as parents: their
                // packet is a solver model with no field plan for havoc ops
                // to perturb.
                std::vector<const Recipe::Catalogue*> parents;
                if (config_.mutate) {
                    for (const Recipe& e : corpus.entries(program)) {
                        if (const Recipe::Catalogue* c = e.catalogue()) {
                            parents.push_back(c);
                        }
                    }
                }
                for (std::uint64_t k = 0; k < plan[p]; ++k) {
                    const std::uint64_t seed = config_.base_seed + seed_cursor++;
                    slots.push_back(Recipe::Catalogue{program, seed, {}});
                    // Fresh-vs-mutant draw: corpus membership only changes
                    // at round barriers, and the coin is a pure function of
                    // the slot seed, so the mix is schedule-independent.
                    if (parents.empty()) continue;
                    util::Rng coin(seed ^ kMutateCoinSalt);
                    if (coin.next_double() < config_.mutation_rate) {
                        slots.back() = mutator.derive(
                            corpus, *parents[coin.next_below(parents.size())],
                            seed);
                        ++report.scenarios_mutated;
                    }
                }
            }
            outcomes.resize(slots.size());
            run_pool(slots.size(), [&](WorkerContext& ctx, std::uint64_t i) {
                const Scenario sc = mutator.build(slots[i]);
                outcomes[i].clear();
                // The slot's parentage rides into every finding, so reports
                // stay replayable; a fresh slot's seed alone replays it.
                execute_scenario(ctx, sc, duts, exec, outcomes[i],
                                 slots[i].fresh() ? std::string()
                                                  : slots[i].encode());
            });
            // Round barrier: fold outcomes in slot order, then reward each
            // program with its per-scenario energy gain (new reference and
            // DUT coverage edges plus a bonus per fresh divergence
            // fingerprint), and retain every interesting scenario in the
            // mutation corpus.  Per-program slot counts include concolic
            // slots, so their edge gains reward the program at the same
            // per-scenario scale as planned slots.
            std::vector<double> gain(plan.size(), 0.0);
            std::vector<std::uint64_t> ran(plan.size(), 0);
            for (std::size_t i = 0; i < slots.size(); ++i) {
                const std::size_t p = gen.index_of(slots[i].program());
                const bool fresh = builder.fold(outcomes[i]);
                const auto [ref_edges, dut_edges] = merge_coverage(outcomes[i]);
                gain[p] += static_cast<double>(ref_edges) / 8.0 +
                           static_cast<double>(dut_edges) / 16.0 +
                           (fresh ? 1.0 : 0.0);
                ++ran[p];
                // Concolic slots are already corpus entries: they were
                // added when their seed passed the relight check.
                if (config_.mutate && !slots[i].concolic() &&
                    (fresh || ref_edges > 0 || dut_edges > 0)) {
                    corpus.add(slots[i]);
                }
            }
            for (std::size_t p = 0; p < plan.size(); ++p) {
                if (ran[p] == 0) continue;
                const double energy = gain[p] / static_cast<double>(ran[p]);
                scheduler.reward(p, energy);
                if (obs::trace_on()) {
                    obs::trace_instant(
                        "energy", "program", p, "gain_milli",
                        static_cast<std::uint64_t>(1000.0 * energy));
                }
            }

            // Concolic synthesis at the barrier: map still-dark reference
            // slots back to IR sites, solve for covering seeds, verify each
            // actually lights its slot, and queue the survivors for the
            // next round.  Sequential and driven by barrier-merged state
            // only -- thread count cannot change what gets synthesized.
            //
            // The relight check runs on worker slot 0's reference device:
            // the first round created slot 0's context, the device is idle
            // at the barrier, and the next scenario's load leaves it equal
            // to a fresh one.  EdgeIndex takes that device's salt, so "dark in
            // `global`" and "dark for the relight device" agree.
            if (config_.concolic) {
                target::Device& relight = *contexts[0]->reference;
                std::uint64_t budget = config_.concolic_per_round;
                for (std::size_t p = 0;
                     p < gen.programs().size() && budget > 0; ++p) {
                    ConcolicState& st = concolic_states[p];
                    if (!st.index) {
                        const p4::ir::Program& image = *gen.image(p);
                        st.index = std::make_unique<coverage::EdgeIndex>(
                            image, relight.coverage_salt());
                        st.synth =
                            std::make_unique<verify::ConcolicSynthesizer>(image);
                    }
                    std::vector<coverage::EdgeSite> targets;
                    for (const coverage::EdgeSite& site :
                         st.index->dark_sites(global)) {
                        if (targets.size() >= budget) break;
                        if (!st.attempted.insert(site.slot).second) continue;
                        targets.push_back(site);
                    }
                    if (targets.empty()) continue;
                    budget -= targets.size();
                    verify::ConcolicResult result = st.synth->synthesize(targets);
                    if (result.paths_exhausted) {
                        report.concolic_paths_exhausted = true;
                    }
                    for (const verify::TargetOutcome& out : result.outcomes) {
                        switch (out.status) {
                            case verify::TargetStatus::solved:
                                ++report.concolic_solved;
                                break;
                            case verify::TargetStatus::unsat:
                                ++report.concolic_unsat;
                                break;
                            case verify::TargetStatus::unknown:
                                ++report.concolic_unknown;
                                break;
                            case verify::TargetStatus::no_path:
                                ++report.concolic_no_path;
                                break;
                        }
                    }
                    for (verify::ConcolicRecipe& seed : result.seeds) {
                        const std::uint64_t slot = seed.slot;
                        Recipe recipe(std::move(seed));
                        // Relight check: inject the synthesized scenario
                        // exactly the way its slot will run and require the
                        // target slot to light.  A model the interpreter
                        // disagrees with is a verify-layer bug and must not
                        // pollute the corpus.
                        const Scenario sc = mutator.build(recipe);
                        const std::vector<packet::Packet> packets =
                            scenario_packets(sc);
                        coverage::CoverageMap scratch;
                        relight.set_coverage(&scratch);
                        run_scenario_on(relight, sc, packets, exec.batch_size);
                        relight.set_coverage(nullptr);
                        if (scratch.count(static_cast<std::uint32_t>(slot)) == 0) {
                            ++report.concolic_mismatched;
                            continue;
                        }
                        if (!corpus.add(recipe)) continue;  // already stored
                        ++report.concolic_injected;
                        if (obs::metrics_on()) {
                            obs::count(obs::Counter::concolic_injected);
                        }
                        if (obs::trace_on()) {
                            obs::trace_instant("concolic_inject", "program", p,
                                               "slot", slot);
                        }
                        report.concolic_recipes.push_back(recipe.encode());
                        pending.push_back(std::move(recipe));
                    }
                }
            }
            done += round;
            report.coverage_series.push_back(
                {done, static_cast<std::uint64_t>(global.edges_covered())});
            if (obs::metrics_on()) obs::count(obs::Counter::rounds);
            if (obs::trace_on()) {
                obs::trace_complete("round", round_t0, obs::now_ns() - round_t0,
                                    "round", round_index, "slots", round);
            }
            ++round_index;
        }
    }
    if (exec.coverage) {
        report.coverage_edges = static_cast<std::uint64_t>(global.edges_covered());
        if (config_.coverage_map_out) *config_.coverage_map_out = global;
    }
    stats_ = sweep_stats(report, t0);
    return std::move(report);
}

// --- report rendering ---------------------------------------------------------

std::string CampaignReport::to_string() const {
    std::string s = util::format(
        "campaign: %llu scenario(s) from seed %llu, %llu packet(s), "
        "%llu finding(s) -> %zu unique (dedup x%.1f)\n",
        static_cast<unsigned long long>(scenarios),
        static_cast<unsigned long long>(base_seed),
        static_cast<unsigned long long>(packets_injected),
        static_cast<unsigned long long>(findings_total), divergences.size(),
        dedup_ratio());
    if (!engine.empty()) {
        s += util::format("  engine: %s\n", engine.c_str());
    }
    if (coverage_enabled) {
        std::uint64_t dut_total = 0;
        for (const auto e : coverage_edges_dut) dut_total += e;
        s += util::format(
            "  coverage: %llu/%llu edges (%.1f%%: %llu reference + %llu dut) "
            "over %zu round(s)\n",
            static_cast<unsigned long long>(coverage_edges),
            static_cast<unsigned long long>(coverage_map_slots),
            coverage_map_slots
                ? 100.0 * static_cast<double>(coverage_edges) /
                      static_cast<double>(coverage_map_slots)
                : 0.0,
            static_cast<unsigned long long>(coverage_edges_reference),
            static_cast<unsigned long long>(dut_total),
            coverage_series.size());
    }
    if (scenarios_mutated) {
        s += util::format("  mutated: %llu of %llu scenario(s) drawn from the "
                          "corpus\n",
                          static_cast<unsigned long long>(scenarios_mutated),
                          static_cast<unsigned long long>(scenarios));
    }
    if (concolic_enabled) {
        s += util::format(
            "  concolic: %llu seed(s) injected, %llu scenario(s) run "
            "(targets: %llu solved, %llu unsat, %llu unknown, %llu no-path, "
            "%llu mismatched)%s\n",
            static_cast<unsigned long long>(concolic_injected),
            static_cast<unsigned long long>(scenarios_concolic),
            static_cast<unsigned long long>(concolic_solved),
            static_cast<unsigned long long>(concolic_unsat),
            static_cast<unsigned long long>(concolic_unknown),
            static_cast<unsigned long long>(concolic_no_path),
            static_cast<unsigned long long>(concolic_mismatched),
            concolic_paths_exhausted ? "; paths exhausted" : "");
        for (const auto& r : concolic_recipes) {
            s += util::format("  concolic+ %s\n", r.c_str());
        }
    }
    if (mgmt_enabled) {
        s += util::format(
            "  mgmt wire: %llu request(s), %llu frame(s), %llu retrie(s), "
            "%llu timeout(s), %llu fault(s) injected, %llu dedup hit(s)\n",
            static_cast<unsigned long long>(mgmt.requests),
            static_cast<unsigned long long>(mgmt.frames_sent),
            static_cast<unsigned long long>(mgmt.retries),
            static_cast<unsigned long long>(mgmt.timeouts),
            static_cast<unsigned long long>(mgmt.faults_injected),
            static_cast<unsigned long long>(mgmt.dedup_hits));
    }
    if (fabric_enabled) {
        s += util::format(
            "  fabric: %llu worker(s), %llu restart(s), %llu shard(s) "
            "re-dispatched, %llu job(s) resent, %llu link frame(s) "
            "(%llu corrupt, %llu fault(s) injected)\n",
            static_cast<unsigned long long>(fabric.workers),
            static_cast<unsigned long long>(fabric.worker_restarts),
            static_cast<unsigned long long>(fabric.shards_redispatched),
            static_cast<unsigned long long>(fabric.jobs_resent),
            static_cast<unsigned long long>(fabric.link_frames),
            static_cast<unsigned long long>(fabric.link_corrupt),
            static_cast<unsigned long long>(fabric.link_faults));
    }
    for (const auto& d : divergences) {
        s += util::format(
            "  [%s] seed=%llu %s: %s (min=%llu pkt, +%llu dup) %s\n",
            d.fingerprint.c_str(), static_cast<unsigned long long>(d.seed),
            d.kind.c_str(), d.detail.c_str(),
            static_cast<unsigned long long>(d.minimized_count),
            static_cast<unsigned long long>(d.duplicates),
            d.localized.diverged ? d.localized.to_string().c_str() : "");
        if (!d.recipe.empty()) {
            s += util::format("    parentage: %s\n", d.recipe.c_str());
        }
    }
    return s;
}

std::string CampaignReport::to_json() const {
    std::string s = "{\n";
    s += util::format("  \"base_seed\": %llu,\n",
                      static_cast<unsigned long long>(base_seed));
    s += util::format("  \"scenarios\": %llu,\n",
                      static_cast<unsigned long long>(scenarios));
    s += "  \"programs\": " + json_string_array(programs) + ",\n";
    s += "  \"backends\": " + json_string_array(backends) + ",\n";
    s += "  \"engine\": \"" + util::json_escape(engine) + "\",\n";
    s += util::format("  \"packets_injected\": %llu,\n",
                      static_cast<unsigned long long>(packets_injected));
    s += util::format("  \"findings_total\": %llu,\n",
                      static_cast<unsigned long long>(findings_total));
    s += util::format("  \"divergences_unique\": %zu,\n", divergences.size());
    s += util::format("  \"dedup_ratio\": %.3f,\n", dedup_ratio());
    s += util::format("  \"scenarios_mutated\": %llu,\n",
                      static_cast<unsigned long long>(scenarios_mutated));
    if (concolic_enabled) {
        s += "  \"concolic\": {";
        s += util::format("\"scenarios\": %llu, ",
                          static_cast<unsigned long long>(scenarios_concolic));
        s += util::format("\"injected\": %llu, ",
                          static_cast<unsigned long long>(concolic_injected));
        s += util::format("\"solved\": %llu, ",
                          static_cast<unsigned long long>(concolic_solved));
        s += util::format("\"unsat\": %llu, ",
                          static_cast<unsigned long long>(concolic_unsat));
        s += util::format("\"unknown\": %llu, ",
                          static_cast<unsigned long long>(concolic_unknown));
        s += util::format("\"no_path\": %llu, ",
                          static_cast<unsigned long long>(concolic_no_path));
        s += util::format("\"mismatched\": %llu, ",
                          static_cast<unsigned long long>(concolic_mismatched));
        s += util::format("\"paths_exhausted\": %s, ",
                          concolic_paths_exhausted ? "true" : "false");
        s += "\"recipes\": " + json_string_array(concolic_recipes);
        s += "},\n";
    }
    if (coverage_enabled) {
        // Edges-discovered over scenarios: the guided campaign's trajectory,
        // one sample per scheduler round.  Deterministic like the rest.
        s += "  \"coverage\": {";
        s += util::format("\"map_slots\": %llu, ",
                          static_cast<unsigned long long>(coverage_map_slots));
        s += util::format("\"edges_discovered\": %llu, ",
                          static_cast<unsigned long long>(coverage_edges));
        s += util::format("\"edges_reference\": %llu, ",
                          static_cast<unsigned long long>(coverage_edges_reference));
        s += "\"edges_dut\": [";
        for (std::size_t i = 0; i < coverage_edges_dut.size(); ++i) {
            if (i) s += ", ";
            s += util::format(
                "{\"backend\": \"%s\", \"edges\": %llu}",
                util::json_escape(i < backends.size() ? backends[i] : "").c_str(),
                static_cast<unsigned long long>(coverage_edges_dut[i]));
        }
        s += "], ";
        s += util::format(
            "\"coverage_pct\": %.2f, ",
            coverage_map_slots
                ? 100.0 * static_cast<double>(coverage_edges) /
                      static_cast<double>(coverage_map_slots)
                : 0.0);
        s += "\"series\": [";
        for (std::size_t i = 0; i < coverage_series.size(); ++i) {
            const CoveragePoint& p = coverage_series[i];
            if (i) s += ", ";
            s += util::format(
                "{\"scenarios\": %llu, \"edges\": %llu, \"pct\": %.2f}",
                static_cast<unsigned long long>(p.scenarios),
                static_cast<unsigned long long>(p.edges),
                coverage_map_slots
                    ? 100.0 * static_cast<double>(p.edges) /
                          static_cast<double>(coverage_map_slots)
                    : 0.0);
        }
        s += "]},\n";
    }
    if (mgmt_enabled || fabric_enabled) {
        // Each block only when its mode is on.  Byte-identity consumers:
        // "mgmt" is deterministic like the rest of the report; "fabric" is
        // timing-dependent (which worker dies with which shard in flight)
        // and must be excluded from comparisons.
        s += "  \"robustness\": {";
        if (mgmt_enabled) {
            s += util::format(
                "\"mgmt\": {\"requests\": %llu, \"frames_sent\": %llu, "
                "\"retries\": %llu, \"timeouts\": %llu, \"decode_errors\": %llu, "
                "\"faults_injected\": %llu, \"dedup_hits\": %llu}",
                static_cast<unsigned long long>(mgmt.requests),
                static_cast<unsigned long long>(mgmt.frames_sent),
                static_cast<unsigned long long>(mgmt.retries),
                static_cast<unsigned long long>(mgmt.timeouts),
                static_cast<unsigned long long>(mgmt.decode_errors),
                static_cast<unsigned long long>(mgmt.faults_injected),
                static_cast<unsigned long long>(mgmt.dedup_hits));
        }
        if (fabric_enabled) {
            if (mgmt_enabled) s += ", ";
            s += util::format(
                "\"fabric\": {\"workers\": %llu, \"worker_restarts\": %llu, "
                "\"shards_redispatched\": %llu, \"jobs_resent\": %llu, "
                "\"link_frames\": %llu, \"link_corrupt\": %llu, "
                "\"link_faults\": %llu}",
                static_cast<unsigned long long>(fabric.workers),
                static_cast<unsigned long long>(fabric.worker_restarts),
                static_cast<unsigned long long>(fabric.shards_redispatched),
                static_cast<unsigned long long>(fabric.jobs_resent),
                static_cast<unsigned long long>(fabric.link_frames),
                static_cast<unsigned long long>(fabric.link_corrupt),
                static_cast<unsigned long long>(fabric.link_faults));
        }
        s += "},\n";
    }
    s += "  \"divergences\": [";
    for (std::size_t i = 0; i < divergences.size(); ++i) {
        const auto& d = divergences[i];
        s += i ? ",\n    {" : "\n    {";
        s += util::format("\"seed\": %llu, ",
                          static_cast<unsigned long long>(d.seed));
        s += "\"recipe\": \"" + util::json_escape(d.recipe) + "\", ";
        s += "\"backend\": \"" + util::json_escape(d.backend) + "\", ";
        s += "\"program\": \"" + util::json_escape(d.program) + "\", ";
        s += "\"quirks\": \"" + util::json_escape(d.quirk_signature) + "\", ";
        s += "\"kind\": \"" + util::json_escape(d.kind) + "\", ";
        s += "\"detail\": \"" + util::json_escape(d.detail) + "\", ";
        s += "\"fingerprint\": \"" + util::json_escape(d.fingerprint) + "\", ";
        s += util::format("\"discovered_at\": %llu, ",
                          static_cast<unsigned long long>(d.discovered_at));
        s += util::format("\"first_diverging_packet\": %llu, ",
                          static_cast<unsigned long long>(d.first_diverging_packet));
        s += util::format("\"minimized_count\": %llu, ",
                          static_cast<unsigned long long>(d.minimized_count));
        s += util::format("\"minimized_reproduces\": %s, ",
                          d.minimized_reproduces ? "true" : "false");
        s += util::format("\"duplicates\": %llu, ",
                          static_cast<unsigned long long>(d.duplicates));
        s += "\"localized\": {";
        s += util::format("\"diverged\": %s, ",
                          d.localized.diverged ? "true" : "false");
        s += util::format(
            "\"stage\": \"%s\", ",
            d.localized.diverged ? dataplane::stage_name(d.localized.stage) : "");
        s += "\"description\": \"" + util::json_escape(d.localized.description) + "\", ";
        s += util::format("\"probes\": %d, ", d.localized.probes);
        s += util::format("\"conclusive\": %s}",
                          d.localized.conclusive ? "true" : "false");
        s += "}";
    }
    s += divergences.empty() ? "]\n" : "\n  ]\n";
    s += "}\n";
    return s;
}

}  // namespace ndb::core
