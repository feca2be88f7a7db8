// ndb_campaign: differential fuzzing campaign driver.
//
//   ndb_campaign [--seeds N] [--seed BASE] [--threads T] [--batch B]
//                [--programs a,b,...] [--backends a,b,...]
//                [--no-localize] [--no-minimize] [--out BENCH_campaign.json]
//                [--coverage] [--mutate] [--mutation-rate F]
//                [--concolic] [--concolic-per-round N]
//                [--soak N] [--corpus-dir DIR] [--replay RECIPE]
//                [--mgmt-fault-plan SPEC]
//                [--workers N] [--fault-plan SPEC] [--shard-size N]
//                [--kill-worker-after N]
//                [--metrics-out FILE] [--trace-out FILE]
//
// Runs N seeded scenarios differentially against every selected backend,
// prints the triaged divergence report, and writes a benchmark JSON with
// both the deterministic findings and the wall-clock throughput numbers
// (scenarios/sec, packets/sec) so the perf trajectory is measurable.
// Every device runs its pipeline on the interpreter, the data plane's one
// execution engine; the report names it in its "engine" field.
//
// --coverage switches the engine to coverage-guided adaptive seed
// scheduling: programs earning fresh coverage edges or fingerprints get
// more of each round's budget, and the report JSON grows a deterministic
// edges-discovered / coverage-% over-time series.
//
// --mutate turns the guided scheduler into the full greybox loop (implies
// --coverage): interesting scenarios are retained in a mutation corpus
// (preloaded from --corpus-dir recipes when present) and later rounds draw
// a --mutation-rate mix of fresh seeds and splice/havoc mutants over it;
// every mutated divergence records its replayable parentage recipe.
//
// --soak N runs an N-scenario guided campaign and appends every finding
// with a new unique fingerprint to the regression corpus (deterministic
// soak_*.corpus recipes under --corpus-dir, default tests/corpus), where
// corpus_replay_test replays them forever after -- mutate= recipe line
// included when the finding came out of the mutation engine.  Existing
// files are read by the strict corpus reader (src/core/corpus.h); one it
// rejects holds no fingerprint and is named on stderr.  With --mutate, a
// damaged --corpus-dir file is an error before any scenario runs.
//
// --concolic closes the hybrid loop (implies --coverage): at every guided
// round barrier, coverage slots still dark on the reference device are
// mapped back to IR sites, handed to the symbolic layer, and every solved
// seed that provably re-lights its slot is injected into the corpus and
// scheduled ahead of the next round (report lines `concolic+ <recipe>`).
//
// --replay RECIPE runs exactly one recorded scenario -- an encoded
// core::Recipe, catalogue ('#' head) or concolic ('@' head) -- through the
// ordinary detection/triage path.
//
// --mgmt-fault-plan SPEC delivers every DUT's configuration through a
// fault-injected wire channel (the reference's stays clean); config ops
// that exhaust their retry budget surface as "mgmt"-kind divergences.
//
// --workers N runs the uniform sweep on the crash-tolerant multi-process
// fabric: forked workers speak the wire protocol over socketpairs, a
// heartbeat watchdog respawns killed/hung workers and re-dispatches their
// shards, and the report stays byte-identical to the single-process run
// apart from its fabric accounting block.  --fault-plan SPEC faults the
// parent<->worker links themselves; --kill-worker-after N SIGKILLs worker
// 0 after N shard results (a recovery drill for CI).
//
// --metrics-out FILE / --trace-out FILE switch on the observe-only
// telemetry layer: FILE gets the merged metrics snapshot JSON (counters,
// gauges, latency histograms) or the merged Chrome trace_event timeline
// (open in chrome://tracing or ui.perfetto.dev).  Under --workers the
// workers ship their deltas home over heartbeat acks, so both files cover
// every process.  Telemetry never changes the report or the exit code: an
// unwritable path costs a stderr diagnostic, nothing more.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/corpus.h"
#include "core/fabric.h"
#include "obs/telemetry.h"
#include "util/strings.h"

namespace {

std::vector<std::string> split_csv(const std::string& s) {
    std::vector<std::string> out = ndb::util::split(s, ',');
    std::erase(out, "");
    return out;
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--seeds N] [--seed BASE] [--threads T] [--batch B]\n"
                 "          [--programs a,b,...] [--backends a,b,...]\n"
                 "          [--no-localize] [--no-minimize] [--out FILE]\n"
                 "          [--coverage] [--mutate] [--mutation-rate F]\n"
                 "          [--concolic] [--concolic-per-round N]\n"
                 "          [--soak N] [--corpus-dir DIR] [--replay RECIPE]\n"
                 "          [--mgmt-fault-plan SPEC]\n"
                 "          [--workers N] [--fault-plan SPEC] [--shard-size N]\n"
                 "          [--kill-worker-after N]\n"
                 "          [--metrics-out FILE] [--trace-out FILE]\n",
                 argv0);
    return 2;
}

// Strict numeric option parsing: non-numeric text, trailing junk, overflow
// and out-of-range values are usage errors, never silently zero (what the
// old atoi/strtoull calls degenerated to).
std::uint64_t parse_count(const char* flag, const char* text,
                          std::uint64_t min_value, std::uint64_t max_value) {
    std::uint64_t v = 0;
    if (!ndb::util::parse_u64(text, v) || v < min_value || v > max_value) {
        std::fprintf(stderr, "%s wants an integer in [%llu, %llu], got '%s'\n",
                     flag, static_cast<unsigned long long>(min_value),
                     static_cast<unsigned long long>(max_value), text);
        std::exit(2);
    }
    return v;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace ndb;

    core::CampaignConfig config;
    config.scenarios = 256;
    config.threads = 2;
    std::string out_path = "BENCH_campaign.json";
    bool soak = false;
    std::string corpus_dir = "tests/corpus";
    core::FabricConfig fabric;
    int workers = 0;  // 0 = in-process engine; >0 = multi-process fabric
    std::string metrics_out;
    std::string trace_out;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--seeds" || arg == "-n") {
            config.scenarios = parse_count("--seeds", value(), 1, 1u << 24);
        } else if (arg == "--seed") {
            config.base_seed = parse_count("--seed", value(), 0, UINT64_MAX);
        } else if (arg == "--threads" || arg == "-j") {
            config.threads =
                static_cast<int>(parse_count("--threads", value(), 1, 64));
        } else if (arg == "--batch") {
            config.batch_size = static_cast<std::size_t>(
                parse_count("--batch", value(), 1, 1u << 20));
        } else if (arg == "--programs") {
            config.programs = split_csv(value());
        } else if (arg == "--backends") {
            for (const auto& name : split_csv(value())) {
                config.duts.push_back(core::BackendSpec{name, std::nullopt, name});
            }
        } else if (arg == "--coverage") {
            config.coverage = true;
        } else if (arg == "--mutate") {
            config.mutate = true;  // implies the guided scheduler
        } else if (arg == "--mutation-rate") {
            // Strict: a typo here would silently degenerate the greybox
            // loop to fresh-seed guided mode.
            const char* text = value();
            if (!util::parse_double(text, config.mutation_rate) ||
                config.mutation_rate < 0.0 || config.mutation_rate > 1.0) {
                std::fprintf(stderr, "--mutation-rate wants a number in [0,1], got '%s'\n",
                             text);
                return 2;
            }
        } else if (arg == "--concolic") {
            config.concolic = true;  // implies the guided scheduler
        } else if (arg == "--concolic-per-round") {
            config.concolic_per_round =
                parse_count("--concolic-per-round", value(), 1, 1024);
        } else if (arg == "--replay") {
            config.mutation_recipe = value();
        } else if (arg == "--soak") {
            soak = true;
            config.coverage = true;  // soaking wants the guided scheduler
            config.scenarios = parse_count("--soak", value(), 1, 1u << 24);
        } else if (arg == "--corpus-dir") {
            corpus_dir = value();
        } else if (arg == "--mgmt-fault-plan") {
            // Validated by FaultPlan::parse before any work starts.
            config.mgmt_fault_plan = value();
        } else if (arg == "--workers") {
            workers = static_cast<int>(parse_count("--workers", value(), 1, 64));
        } else if (arg == "--fault-plan") {
            fabric.link_fault_plan = value();
        } else if (arg == "--shard-size") {
            fabric.shard_size = parse_count("--shard-size", value(), 1, 4096);
        } else if (arg == "--kill-worker-after") {
            fabric.kill_worker_after_results = static_cast<int>(
                parse_count("--kill-worker-after", value(), 0, 1u << 20));
        } else if (arg == "--metrics-out") {
            // Strict like the numeric flags: an empty path is a typo, not a
            // request for an unnamed file.
            metrics_out = value();
            if (metrics_out.empty()) {
                std::fprintf(stderr, "--metrics-out wants a file path\n");
                return 2;
            }
        } else if (arg == "--trace-out") {
            trace_out = value();
            if (trace_out.empty()) {
                std::fprintf(stderr, "--trace-out wants a file path\n");
                return 2;
            }
        } else if (arg == "--no-localize") {
            config.localize = false;
        } else if (arg == "--no-minimize") {
            config.minimize = false;
        } else if (arg == "--out" || arg == "-o") {
            out_path = value();
        } else {
            return usage(argv[0]);
        }
    }

    if (soak) {
        // Corpus recipes must replay under corpus_replay_test's contract:
        // a localized stage in the fingerprint and a minimized reproducer.
        // Soaking therefore overrides --no-localize / --no-minimize.
        config.localize = true;
        config.minimize = true;
    }
    if (config.mutate) {
        // The mutation engine seeds its corpus from the stored recipes; the
        // same directory a soak appends to is the natural parent pool.
        config.corpus_dir = corpus_dir;
    }

    // Enable before the run (and before any fabric fork, so workers inherit
    // the flags and the shared trace epoch).
    obs::Telemetry::set_enabled(!metrics_out.empty(), !trace_out.empty());

    core::CampaignReport report;
    core::CampaignStats stats;
    try {
        if (workers > 0) {
            fabric.campaign = config;
            fabric.workers = workers;
            core::FabricEngine engine(std::move(fabric));
            report = engine.run();
            stats = engine.stats();
        } else {
            core::CampaignEngine engine(config);
            report = engine.run();
            stats = engine.stats();
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }

    std::fputs(report.to_string().c_str(), stdout);
    std::printf("throughput: %.0f scenarios/sec, %.0f packets/sec (%.3fs wall, %d %s)\n",
                stats.scenarios_per_sec, stats.packets_per_sec, stats.wall_seconds,
                workers > 0 ? workers : config.threads,
                workers > 0 ? "worker process(es)" : "thread(s)");

    if (soak) {
        const core::SoakResult grown =
            core::append_unique_corpus_entries(report, corpus_dir);
        std::printf("soak: %zu new corpus entr%s, %zu already known (%s)\n",
                    grown.written.size(),
                    grown.written.size() == 1 ? "y" : "ies",
                    grown.skipped_known, corpus_dir.c_str());
        for (const auto& name : grown.written) {
            std::printf("  + %s\n", name.c_str());
        }
        for (const auto& why : grown.ignored) {
            std::fprintf(stderr, "soak: ignored damaged corpus file %s\n",
                         why.c_str());
        }
    }

    // BENCH_campaign.json: wall-clock wrapper around the deterministic report.
    std::string json = "{\n";
    json += "  \"bench\": \"campaign\",\n";
    json += util::format("  \"threads\": %d,\n", config.threads);
    json += util::format("  \"batch_size\": %zu,\n", config.batch_size);
    json += util::format("  \"wall_seconds\": %.6f,\n", stats.wall_seconds);
    json += util::format("  \"scenarios_per_sec\": %.1f,\n", stats.scenarios_per_sec);
    json += util::format("  \"packets_per_sec\": %.1f,\n", stats.packets_per_sec);
    json += "  \"report\": ";
    {
        // Indent the nested report two spaces to keep the file readable.
        const std::string inner = report.to_json();
        std::string indented;
        for (std::size_t i = 0; i < inner.size(); ++i) {
            indented += inner[i];
            if (inner[i] == '\n' && i + 1 < inner.size()) indented += "  ";
        }
        json += indented;
    }
    json += "}\n";

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    out << json;
    std::printf("wrote %s\n", out_path.c_str());

    // Telemetry exports come last and never change the exit code: losing an
    // observability file is a diagnostic, not a failed campaign.
    const auto export_file = [](const std::string& path, const std::string& text) {
        std::string error;
        if (obs::Telemetry::write_file(path, text, error)) {
            std::printf("wrote %s\n", path.c_str());
        } else {
            std::fprintf(stderr, "warning: cannot write %s: %s\n", path.c_str(),
                         error.c_str());
        }
    };
    if (!metrics_out.empty()) export_file(metrics_out, obs::Telemetry::metrics_json());
    if (!trace_out.empty()) export_file(trace_out, obs::Telemetry::trace_json());

    return 0;
}
