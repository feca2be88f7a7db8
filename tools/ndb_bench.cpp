// ndb_bench: pipeline + table-engine micro-benchmark harness.
//
//   ndb_bench [--packets N] [--lookups N] [--seeds N] [--threads T]
//             [--out BENCH_pipeline.json] [--baseline FILE]
//
// Three benches, written as one JSON document so the repo has a perf
// trajectory across PRs:
//
//   * pipeline  -- packets/sec through the reference device for every
//                  fuzzable catalogue program (config applied once, the
//                  scenario's packet stream replayed in batches), plus a
//                  coverage-instrumented pass and the derived
//                  coverage-overhead row (the cost of the CoverageMap hooks
//                  when enabled);
//   * tables    -- lookups/sec per match-engine kind on populated engines
//                  (64k-entry exact and its naive reference, 64k exact keys
//                  with zero low bits, 64k-prefix LPM, 256-row ternary and
//                  its naive reference), plus inserts/sec refilling a
//                  cleared 64k-entry exact engine with 168-bit keys in the
//                  device's insert_batch() chunks (the control plane's
//                  write path);
//   * campaign  -- scenarios/sec and packets/sec of a bounded differential
//                  campaign sweep (the end-to-end number CI tracks).
//
// --baseline FILE compares the run against committed reference numbers and
// exits non-zero when aggregate pipeline packets/sec regresses by more than
// 30%, a program with its own floor_<program>_pps key falls below it, or
// the exact_lowbits row looks up at less than 25% of the exact row's rate,
// so CI catches hot-path regressions without flaking on machine variance.
// --coverage-gate PCT additionally fails the run when the enabled-coverage
// pass costs more than PCT percent of aggregate pipeline throughput.
// --metrics-gate PCT does the same for the telemetry layer: a third
// interleaved pass runs with metrics + tracing enabled, reports each
// program's sampled packet-latency percentiles (p50/p90/p99 ns), and fails
// the run when telemetry costs more than PCT percent of throughput.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/generator.h"
#include "core/specgen.h"
#include "coverage/coverage.h"
#include "dataplane/tables.h"
#include "obs/telemetry.h"
#include "target/device.h"
#include "util/strings.h"

namespace {

using Clock = std::chrono::steady_clock;
using ndb::util::Bitvec;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration_cast<std::chrono::duration<double>>(
               Clock::now() - t0)
        .count();
}

struct ProgramBench {
    std::string name;
    std::uint64_t packets = 0;
    double seconds = 0;
    double pps = 0;
};

// One program's pipeline throughput plus the sampled whole-packet latency
// percentiles from its telemetry pass.
struct ProgramRow {
    ProgramBench bench;
    std::uint64_t p50_ns = 0;
    std::uint64_t p90_ns = 0;
    std::uint64_t p99_ns = 0;
};

// Replays one catalogue scenario's packet stream through a reference device
// until ~`target_packets` injections have happened; returns packets/sec.
// When `coverage` is non-null the device streams execution edges into it
// (the instrumented pass the coverage-overhead row is derived from).
ProgramBench bench_program(const std::string& name, std::uint64_t target_packets,
                           ndb::coverage::CoverageMap* coverage = nullptr) {
    ndb::core::SpecGenerator gen({name});
    const ndb::core::Scenario sc = gen.make(/*seed=*/42);

    auto dev = ndb::target::make_device("reference");
    if (!dev || !dev->load(sc.compiled)) {
        std::fprintf(stderr, "bench: cannot set up program '%s'\n", name.c_str());
        std::exit(1);
    }
    dev->set_coverage(coverage);
    dev->apply(sc.config);

    ndb::core::TestPacketGenerator pgen(sc.spec);
    std::vector<ndb::packet::Packet> stream;
    stream.reserve(sc.spec.count);
    for (std::uint64_t seq = 1; seq <= sc.spec.count; ++seq) {
        stream.push_back(pgen.make_packet(
            seq, ndb::target::kClockEpochNs + (seq - 1) * ndb::target::kNsPerPacket));
    }

    ProgramBench out;
    out.name = name;
    std::vector<ndb::packet::Packet> drained;
    const auto t0 = Clock::now();
    while (out.packets < target_packets) {
        for (const auto& pkt : stream) {
            dev->inject(pkt);
            ++out.packets;
        }
        for (int p = 0; p < dev->config().num_ports; ++p) {
            drained.clear();
            dev->drain_port_into(static_cast<std::uint32_t>(p), drained);
        }
    }
    out.seconds = seconds_since(t0);
    out.pps = out.seconds > 0 ? static_cast<double>(out.packets) / out.seconds : 0;
    return out;
}

struct EngineBench {
    std::string kind;
    const char* op = "lookups";  // what `count` and `rate` count
    std::size_t entries = 0;
    std::uint64_t count = 0;
    double seconds = 0;
    double rate = 0;  // count per second
};

EngineBench bench_engine(const std::string& kind, ndb::dataplane::MatchEngine& eng,
                         std::size_t entries,
                         const std::vector<std::vector<Bitvec>>& probes,
                         std::uint64_t target_lookups) {
    EngineBench out;
    out.kind = kind;
    out.entries = entries;
    std::uint64_t hits = 0;
    const auto t0 = Clock::now();
    while (out.count < target_lookups) {
        for (const auto& probe : probes) {
            if (eng.lookup(probe)) ++hits;
            ++out.count;
        }
    }
    out.seconds = seconds_since(t0);
    out.rate = out.seconds > 0 ? static_cast<double>(out.count) / out.seconds : 0;
    if (hits == 0) std::fprintf(stderr, "bench: %s saw no hits\n", kind.c_str());
    return out;
}

// Deterministic 64-bit mix for synthetic keys.
std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

std::vector<EngineBench> bench_tables(std::uint64_t target_lookups) {
    using namespace ndb::dataplane;
    std::vector<EngineBench> out;

    {  // exact: 64k entries over a 48-bit key, probes alternate hit/miss
        constexpr int kWidth = 48;
        constexpr std::size_t kEntries = 65536;
        auto indexed = make_exact_engine(kWidth, kEntries);
        auto naive = make_naive_exact_engine(kWidth, kEntries);
        for (std::size_t i = 0; i < kEntries; ++i) {
            TableEntry e;
            e.key_values = {Bitvec(kWidth, mix(i))};
            e.action_id = static_cast<int>(i & 7);
            indexed->insert(e);
            naive->insert(e);
        }
        std::vector<std::vector<Bitvec>> probes;
        for (std::size_t i = 0; i < 256; ++i) {
            probes.push_back({Bitvec(kWidth, i % 2 ? mix(i) : mix(i) + 1)});
        }
        out.push_back(bench_engine("exact", *indexed, kEntries, probes, target_lookups));
        out.push_back(bench_engine("exact_naive", *naive, kEntries, probes,
                                   target_lookups / 8));
    }

    {  // exact_lowbits: 64k 48-bit keys i << 16, whose low 16 bits are all
       // zero (a /16-network shape), probed like exact.  The baseline gate
       // holds this row near exact's rate.
        constexpr int kWidth = 48;
        constexpr std::size_t kEntries = 65536;
        auto engine = make_exact_engine(kWidth, kEntries);
        for (std::size_t i = 0; i < kEntries; ++i) {
            TableEntry e;
            e.key_values = {Bitvec(kWidth, i << 16)};
            e.action_id = static_cast<int>(i & 7);
            engine->insert(e);
        }
        std::vector<std::vector<Bitvec>> probes;
        for (std::size_t i = 0; i < 256; ++i) {
            const std::uint64_t key = (mix(i) % kEntries) << 16;
            probes.push_back({Bitvec(kWidth, i % 2 ? key : key + 1)});
        }
        out.push_back(
            bench_engine("exact_lowbits", *engine, kEntries, probes, target_lookups));
    }

    {  // exact_refill: 64k entries with flow_wide's 168-bit five-element key,
       // installed once, then cleared and refilled; the median of 5 timed
       // refills.  The control plane's write path after a same-image reload:
       // insert_batch() in the chunks a device hands its engines.
        constexpr std::size_t kEntries = 65536;
        constexpr int kRounds = 5;
        auto engine = make_exact_engine(48 + 48 + 32 + 32 + 8, kEntries);
        std::vector<TableEntry> entries(kEntries);
        for (std::size_t i = 0; i < kEntries; ++i) {
            entries[i].key_values = {Bitvec(48, 0x020000000002ull),
                                     Bitvec(48, 0x020000000001ull),
                                     Bitvec(32, 0x0a000001),
                                     Bitvec(32, 0x0b000000 + i), Bitvec(8, 17)};
            entries[i].action_id = static_cast<int>(i & 7);
            entries[i].action_args = {Bitvec(9, i & 3)};
        }
        std::vector<InsertStatus> statuses(ndb::target::kEntryChunk);
        const auto refill = [&] {
            for (std::size_t at = 0; at < kEntries; at += ndb::target::kEntryChunk) {
                const std::size_t n = std::min(ndb::target::kEntryChunk, kEntries - at);
                engine->insert_batch({entries.data() + at, n}, {statuses.data(), n});
            }
        };
        refill();
        std::vector<double> rounds;
        for (int r = 0; r < kRounds; ++r) {
            const auto t0 = Clock::now();
            engine->clear();
            refill();
            rounds.push_back(seconds_since(t0));
        }
        if (engine->entry_count() != kEntries) {
            std::fprintf(stderr, "bench: exact_refill holds %zu entries\n",
                         engine->entry_count());
        }
        std::sort(rounds.begin(), rounds.end());
        EngineBench row;
        row.kind = "exact_refill";
        row.op = "inserts";
        row.entries = kEntries;
        row.count = kEntries;
        row.seconds = rounds[kRounds / 2];
        row.rate = row.seconds > 0 ? static_cast<double>(kEntries) / row.seconds : 0;
        out.push_back(row);
    }

    {  // lpm: 64k prefixes across lengths 8..32 on a 32-bit key
        constexpr int kWidth = 32;
        constexpr std::size_t kEntries = 65536;
        auto engine = make_lpm_engine(kWidth, kEntries);
        std::size_t inserted = 0;
        for (std::size_t i = 0; inserted < kEntries; ++i) {
            TableEntry e;
            const int plen = 8 + static_cast<int>(i % 25);
            e.key_values = {Bitvec(kWidth, mix(i) & (~0ull << (kWidth - plen)))};
            e.prefix_len = plen;
            e.action_id = static_cast<int>(i & 7);
            if (engine->insert(e) == InsertStatus::ok) ++inserted;
        }
        std::vector<std::vector<Bitvec>> probes;
        for (std::size_t i = 0; i < 256; ++i) {
            probes.push_back({Bitvec(kWidth, mix(i * 3))});
        }
        out.push_back(bench_engine("lpm", *engine, kEntries, probes, target_lookups));
    }

    {  // ternary: 256 overlapping masked rows over a 48-bit key
        constexpr int kWidth = 48;
        constexpr std::size_t kEntries = 256;
        auto indexed = make_ternary_engine(kWidth, kEntries, /*inverted=*/false);
        auto naive = make_naive_ternary_engine(kWidth, kEntries, /*inverted=*/false);
        for (std::size_t i = 0; i < kEntries; ++i) {
            TableEntry e;
            e.key_values = {Bitvec(kWidth, mix(i))};
            e.key_masks = {Bitvec(kWidth, mix(i * 7) | 0xffffull)};
            e.priority = static_cast<int>(i % 17);
            e.action_id = static_cast<int>(i & 7);
            indexed->insert(e);
            naive->insert(e);
        }
        std::vector<std::vector<Bitvec>> probes;
        for (std::size_t i = 0; i < 256; ++i) {
            probes.push_back({Bitvec(kWidth, mix(i * 5))});
        }
        out.push_back(
            bench_engine("ternary", *indexed, kEntries, probes, target_lookups / 4));
        out.push_back(bench_engine("ternary_naive", *naive, kEntries, probes,
                                   target_lookups / 32));
    }

    return out;
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--packets N] [--lookups N] [--seeds N] [--threads T]\n"
                 "          [--out FILE] [--baseline FILE] [--coverage-gate PCT]\n"
                 "          [--metrics-gate PCT]\n",
                 argv0);
    return 2;
}

// Strict numeric option parsing: non-numeric text, trailing junk, overflow
// and zero are usage errors, never a silent 0-iteration benchmark (what
// the old atoi/strtoull calls degenerated to).
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

// Pulls `"key": <number>` out of a flat JSON document (enough for the
// baseline files this tool writes itself).
bool json_number(const std::string& doc, const std::string& key, double& out) {
    const std::string needle = "\"" + key + "\":";
    const auto pos = doc.find(needle);
    if (pos == std::string::npos) return false;
    out = std::strtod(doc.c_str() + pos + needle.size(), nullptr);
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    using ndb::util::format;

    std::uint64_t packets = 200'000;
    std::uint64_t lookups = 2'000'000;
    std::uint64_t seeds = 400;
    int threads = 2;
    std::string out_path = "BENCH_pipeline.json";
    std::string baseline_path;
    double coverage_gate_pct = -1.0;  // <0 = report only, no gate
    double metrics_gate_pct = -1.0;   // <0 = report only, no gate

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--packets") {
            packets = parse_count("--packets", value(), 1, 1ull << 32);
        } else if (arg == "--lookups") {
            lookups = parse_count("--lookups", value(), 1, 1ull << 32);
        } else if (arg == "--seeds") {
            seeds = parse_count("--seeds", value(), 1, 1u << 24);
        } else if (arg == "--threads" || arg == "-j") {
            threads =
                static_cast<int>(parse_count("--threads", value(), 1, 64));
        } else if (arg == "--out" || arg == "-o") {
            out_path = value();
        } else if (arg == "--baseline") {
            baseline_path = value();
        } else if (arg == "--coverage-gate") {
            const char* text = value();
            if (!ndb::util::parse_double(text, coverage_gate_pct) ||
                coverage_gate_pct < 0.0 || coverage_gate_pct > 100.0) {
                std::fprintf(stderr,
                             "--coverage-gate wants a percentage in [0,100], "
                             "got '%s'\n",
                             text);
                return 2;
            }
        } else if (arg == "--metrics-gate") {
            const char* text = value();
            if (!ndb::util::parse_double(text, metrics_gate_pct) ||
                metrics_gate_pct < 0.0 || metrics_gate_pct > 100.0) {
                std::fprintf(stderr,
                             "--metrics-gate wants a percentage in [0,100], "
                             "got '%s'\n",
                             text);
                return 2;
            }
        } else {
            return usage(argv[0]);
        }
    }

    // --- pipeline ------------------------------------------------------------
    // Each program runs three times back to back: a plain pass, a pass with
    // coverage instrumentation streaming into one shared map, and a pass
    // with telemetry on.  The interleaving matters for the overhead gates
    // below -- a transient slowdown on a noisy CI runner lands on every sum
    // instead of masquerading as instrumentation cost.
    ndb::coverage::CoverageMap coverage_map;
    std::vector<ProgramRow> programs;
    std::uint64_t total_packets = 0;
    double total_seconds = 0;
    std::uint64_t cov_packets = 0;
    double cov_seconds = 0;
    std::uint64_t tel_packets = 0;
    double tel_seconds = 0;
    for (const auto& name : ndb::core::SpecGenerator::default_programs()) {
        ProgramRow row;
        row.bench = bench_program(name, packets);
        std::printf("pipeline  %-16s %9.0f pkts/sec\n", name.c_str(),
                    row.bench.pps);
        total_packets += row.bench.packets;
        total_seconds += row.bench.seconds;

        const ProgramBench cov = bench_program(name, packets, &coverage_map);
        cov_packets += cov.packets;
        cov_seconds += cov.seconds;

        // Telemetry pass: the full layer (metrics + tracing) enabled only
        // for the duration, reset per program so the latency histogram
        // covers exactly this program's packets.
        ndb::obs::Telemetry::set_enabled(true, true);
        ndb::obs::Telemetry::reset();
        const ProgramBench tel = bench_program(name, packets);
        const ndb::obs::MetricsSnapshot snap =
            ndb::obs::Metrics::instance().snapshot();
        ndb::obs::Telemetry::set_enabled(false, false);
        tel_packets += tel.packets;
        tel_seconds += tel.seconds;
        const ndb::obs::HistogramData& lat = snap.hists[static_cast<std::size_t>(
            ndb::obs::Hist::packet_ns)];
        row.p50_ns = lat.percentile(50.0);
        row.p90_ns = lat.percentile(90.0);
        row.p99_ns = lat.percentile(99.0);
        std::printf("latency   %-16s p50 %6llu ns, p90 %6llu ns, p99 %6llu ns "
                    "(sampled)\n",
                    name.c_str(), static_cast<unsigned long long>(row.p50_ns),
                    static_cast<unsigned long long>(row.p90_ns),
                    static_cast<unsigned long long>(row.p99_ns));
        programs.push_back(std::move(row));
    }
    const double pipeline_pps =
        total_seconds > 0 ? static_cast<double>(total_packets) / total_seconds : 0;
    std::printf("pipeline  %-16s %9.0f pkts/sec\n", "(aggregate)", pipeline_pps);

    const double coverage_pps =
        cov_seconds > 0 ? static_cast<double>(cov_packets) / cov_seconds : 0;
    const double coverage_overhead_pct =
        pipeline_pps > 0 ? 100.0 * (1.0 - coverage_pps / pipeline_pps) : 0;
    std::printf("pipeline  %-16s %9.0f pkts/sec (coverage on: %.1f%% overhead, "
                "%zu edges)\n",
                "(coverage)", coverage_pps, coverage_overhead_pct,
                coverage_map.edges_covered());

    const double telemetry_pps =
        tel_seconds > 0 ? static_cast<double>(tel_packets) / tel_seconds : 0;
    const double telemetry_overhead_pct =
        pipeline_pps > 0 ? 100.0 * (1.0 - telemetry_pps / pipeline_pps) : 0;
    std::printf("pipeline  %-16s %9.0f pkts/sec (telemetry on: %.1f%% "
                "overhead)\n",
                "(telemetry)", telemetry_pps, telemetry_overhead_pct);

    // --- tables --------------------------------------------------------------
    const std::vector<EngineBench> engines = bench_tables(lookups);
    for (const auto& e : engines) {
        std::printf("tables    %-16s %9.0f %s/sec (%zu entries)\n", e.kind.c_str(),
                    e.rate, e.op, e.entries);
    }

    // --- campaign ------------------------------------------------------------
    ndb::core::CampaignConfig config;
    config.scenarios = seeds;
    config.threads = threads;
    ndb::core::CampaignEngine engine(config);
    const ndb::core::CampaignReport report = engine.run();
    const ndb::core::CampaignStats& stats = engine.stats();
    std::printf("campaign  %-16s %9.1f scenarios/sec, %.0f pkts/sec\n", "(sweep)",
                stats.scenarios_per_sec, stats.packets_per_sec);

    // --- JSON ----------------------------------------------------------------
    std::string json = "{\n";
    json += "  \"bench\": \"pipeline\",\n";
    json += format("  \"pipeline_pps\": %.1f,\n", pipeline_pps);
    json += format("  \"pipeline_coverage_pps\": %.1f,\n", coverage_pps);
    json += format("  \"coverage_overhead_pct\": %.2f,\n", coverage_overhead_pct);
    json += format("  \"coverage_edges\": %zu,\n", coverage_map.edges_covered());
    json += format("  \"pipeline_telemetry_pps\": %.1f,\n", telemetry_pps);
    json += format("  \"telemetry_overhead_pct\": %.2f,\n",
                   telemetry_overhead_pct);
    json += "  \"programs\": [";
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const auto& row = programs[i];
        json += i ? ",\n    " : "\n    ";
        json += format("{\"name\": \"%s\", \"packets\": %llu, "
                       "\"seconds\": %.6f, \"pps\": %.1f, "
                       "\"latency_p50_ns\": %llu, \"latency_p90_ns\": %llu, "
                       "\"latency_p99_ns\": %llu}",
                       row.bench.name.c_str(),
                       static_cast<unsigned long long>(row.bench.packets),
                       row.bench.seconds, row.bench.pps,
                       static_cast<unsigned long long>(row.p50_ns),
                       static_cast<unsigned long long>(row.p90_ns),
                       static_cast<unsigned long long>(row.p99_ns));
    }
    json += "\n  ],\n";
    json += "  \"tables\": [";
    for (std::size_t i = 0; i < engines.size(); ++i) {
        const auto& e = engines[i];
        json += i ? ",\n    " : "\n    ";
        json += format("{\"kind\": \"%s\", \"entries\": %zu, "
                       "\"%s\": %llu, \"seconds\": %.6f, "
                       "\"%s_per_sec_%s\": %.1f}",
                       e.kind.c_str(), e.entries, e.op,
                       static_cast<unsigned long long>(e.count), e.seconds, e.op,
                       e.kind.c_str(), e.rate);
    }
    json += "\n  ],\n";
    json += format("  \"campaign_scenarios\": %llu,\n",
                   static_cast<unsigned long long>(seeds));
    json += format("  \"campaign_threads\": %d,\n", threads);
    json += format("  \"campaign_scenarios_per_sec\": %.1f,\n",
                   stats.scenarios_per_sec);
    json += format("  \"campaign_packets_per_sec\": %.1f,\n",
                   stats.packets_per_sec);
    json += format("  \"campaign_divergences_unique\": %zu\n",
                   report.divergences.size());
    json += "}\n";

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    out << json;
    std::printf("wrote %s\n", out_path.c_str());

    // --- baseline gate -------------------------------------------------------
    if (!baseline_path.empty()) {
        std::ifstream in(baseline_path);
        if (!in) {
            std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
            return 1;
        }
        std::stringstream buf;
        buf << in.rdbuf();
        const std::string doc = buf.str();
        double base_pps = 0;
        if (!json_number(doc, "pipeline_pps", base_pps) || base_pps <= 0) {
            std::fprintf(stderr, "baseline %s has no pipeline_pps\n",
                         baseline_path.c_str());
            return 1;
        }
        const double floor = base_pps * 0.7;
        std::printf("baseline gate: pipeline_pps %.0f vs committed %.0f "
                    "(floor %.0f)\n",
                    pipeline_pps, base_pps, floor);
        if (pipeline_pps < floor) {
            std::fprintf(stderr,
                         "FAIL: pipeline packets/sec regressed more than 30%% "
                         "(%.0f < %.0f)\n",
                         pipeline_pps, floor);
            return 1;
        }
        // Per-program absolute floors.  The baseline carries a
        // floor_<program>_pps key for programs whose throughput CI tracks
        // individually -- the stateful NFs, whose register traffic makes
        // them the slowest rows in the sweep.
        for (const auto& row : programs) {
            double prog_floor = 0;
            if (json_number(doc, "floor_" + row.bench.name + "_pps",
                            prog_floor) &&
                prog_floor > 0) {
                std::printf("baseline gate: %s %.0f pkts/sec vs floor %.0f\n",
                            row.bench.name.c_str(), row.bench.pps, prog_floor);
                if (row.bench.pps < prog_floor) {
                    std::fprintf(stderr,
                                 "FAIL: %s packets/sec below floor "
                                 "(%.0f < %.0f)\n",
                                 row.bench.name.c_str(), row.bench.pps,
                                 prog_floor);
                    return 1;
                }
            }
        }
        // Hash-quality gate, relative so it holds on any machine: keys that
        // differ only above their low 16 bits must look up about as fast as
        // scattered keys.  A hash whose low bits ignore the high key bits
        // packs them into one probe cluster and drops the ratio below 0.01.
        const auto lps_of = [&engines](const char* kind) {
            for (const auto& e : engines) {
                if (e.kind == kind) return e.rate;
            }
            return 0.0;
        };
        const double lowbits_ratio =
            lps_of("exact") > 0 ? lps_of("exact_lowbits") / lps_of("exact") : 0;
        std::printf("baseline gate: exact_lowbits/exact lookups %.2f "
                    "(floor 0.25)\n",
                    lowbits_ratio);
        if (lowbits_ratio < 0.25) {
            std::fprintf(stderr,
                         "FAIL: exact lookups on keys with zero low bits run at "
                         "%.2f of the exact rate (floor 0.25)\n",
                         lowbits_ratio);
            return 1;
        }
    }

    // --- coverage-overhead gate ----------------------------------------------
    if (coverage_gate_pct >= 0) {
        std::printf("coverage gate: %.2f%% overhead vs limit %.2f%%\n",
                    coverage_overhead_pct, coverage_gate_pct);
        if (coverage_overhead_pct > coverage_gate_pct) {
            std::fprintf(stderr,
                         "FAIL: coverage instrumentation costs %.2f%% of "
                         "pipeline throughput (limit %.2f%%)\n",
                         coverage_overhead_pct, coverage_gate_pct);
            return 1;
        }
    }

    // --- telemetry-overhead gate ---------------------------------------------
    if (metrics_gate_pct >= 0) {
        std::printf("metrics gate: %.2f%% overhead vs limit %.2f%%\n",
                    telemetry_overhead_pct, metrics_gate_pct);
        if (telemetry_overhead_pct > metrics_gate_pct) {
            std::fprintf(stderr,
                         "FAIL: telemetry costs %.2f%% of pipeline throughput "
                         "(limit %.2f%%)\n",
                         telemetry_overhead_pct, metrics_gate_pct);
            return 1;
        }
    }
    return 0;
}
