// Campaign benchmark: runs one workload for a fixed time on one thread and
// prints its metrics, the last stdout line being one JSON object.
//
//   ndb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics: set-up time (median of
// repeated set-ups), validated scenarios per second (median over fixed-work
// batches) and peak RSS.  Each batch and each group of set-ups is scaled to
// nominal machine speed by the probe of calibrate.h run just before it.
//
// --trace 1 alternates untraced batches with batches that put spans around
// every layer call, and prints the per-layer metrics, the tracing overhead
// (median over adjacent pairs) and how much of the traced wall the spans'
// self times account for.
//
// Every batch's output is checked, and a batch whose folded report differs
// from the run's first batch fails: the inputs are the same every batch.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "calibrate.h"
#include "obs/metrics.h"
#include "spans.h"
#include "workloads.h"

namespace {

using perfbench::BatchResult;
using perfbench::Layer;
using perfbench::Workload;

// Set-ups measured per run, with a machine-speed probe before every group
// of kSetupsPerProbe; setup_s is the median of the scaled set-up times.
constexpr int kSetupRepeats = 48;
constexpr int kSetupsPerProbe = 4;
// The traced run's self times must add up to its wall within this share.
constexpr double kUnaccountedTolerancePct = 2.0;
// Spans of the first traced batch written to --trace-out, at most (a sweep
// batch records about 120,000).
constexpr std::size_t kMaxTraceSpans = 20000;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string trace_out;
};

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\nworkloads:",
                 argv0);
    for (const auto& n : perfbench::workload_names()) {
        std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) return false;
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0') return false;
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(args.seconds > 0)) return false;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") return false;
            args.trace = value == "1";
        } else if (flag == "--trace-out") {
            args.trace_out = value;
        } else {
            return false;
        }
    }
    return !args.workload.empty();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double seconds_since(std::uint64_t t0_ns) {
    return static_cast<double>(ndb::obs::now_ns() - t0_ns) / 1e9;
}

// Peak RSS of the workload: the process's, less the probe buffer that is
// resident for the whole run.
double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double bytes = static_cast<double>(usage.ru_maxrss) * 1024.0 -  // KiB
                         static_cast<double>(perfbench::probe_resident_bytes());
    return bytes / (1024.0 * 1024.0);
}

// Checks accumulated over every batch of a run.
struct Verdict {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    std::string first_report;

    void add(BatchResult& b) {
        attempted += b.scenarios;
        std::uint64_t failed_here = b.failed;
        if (first_report.empty()) {
            first_report = b.report;
        } else if (b.report != first_report) {
            b.problems.push_back("report differs from the run's first batch");
            failed_here = b.scenarios;
        }
        failed += std::min(failed_here, b.scenarios);
        for (auto& p : b.problems) {
            if (problems.size() < 8) problems.push_back(std::move(p));
        }
    }
    bool correct() const { return failed == 0 && problems.empty(); }
};

// Runs one batch; an exception fails every scenario of the batch.
template <typename Fn>
BatchResult guarded(const Workload& w, Fn&& fn) {
    try {
        return fn();
    } catch (const std::exception& e) {
        BatchResult b;
        b.scenarios = w.scenarios();
        b.failed = w.scenarios();
        b.problems.push_back(std::string("batch threw: ") + e.what());
        return b;
    }
}

// Rate of a batch that passed its checks, else nothing.
bool batch_rate(const BatchResult& b, double& rate) {
    if (b.failed != 0 || !(b.wall_s > 0)) return false;
    rate = static_cast<double>(b.scenarios) / b.wall_s;
    return true;
}

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

void print_result(const Verdict& verdict, const std::vector<Metric>& metrics) {
    for (const auto& p : verdict.problems) std::printf("check failed: %s\n", p.c_str());
    for (const auto& m : metrics) {
        std::printf("%-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::string json = "{\"correct\": ";
    json += verdict.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(verdict.attempted);
    json += ", \"failed\": " + std::to_string(verdict.failed);
    json += ", \"metrics\": {";
    char buf[192];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                      metrics[i].unit);
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

int run_plain(Workload& w, const Args& args) {
    std::vector<double> setups;  // scaled to nominal speed
    double slowdown = 1;
    for (int i = 0; i < kSetupRepeats; ++i) {
        if (i % kSetupsPerProbe == 0) slowdown = perfbench::probe_slowdown();
        const std::uint64_t t0 = ndb::obs::now_ns();
        w.setup();
        setups.push_back(seconds_since(t0) / slowdown);
    }
    w.prepare();
    Verdict verdict;
    BatchResult warm = guarded(w, [&w] { return w.run_batch(); });  // fills caches
    verdict.add(warm);

    std::vector<double> rates;  // scaled to nominal speed
    const std::uint64_t start = ndb::obs::now_ns();
    do {
        slowdown = perfbench::probe_slowdown();
        BatchResult b = guarded(w, [&w] { return w.run_batch(); });
        double rate = 0;
        if (batch_rate(b, rate)) rates.push_back(rate * slowdown);
        verdict.add(b);
    } while (seconds_since(start) < args.seconds);

    print_result(verdict,
                 {
                     {"scenarios_per_s", median(rates), "1/s"},
                     {"setup_s", median(setups), "s"},
                     {"peak_rss_mb", peak_rss_mib(), "MiB"},
                 });
    return 0;
}

int run_traced(Workload& w, const Args& args) {
    std::vector<double> compiles;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const std::uint64_t t0 = ndb::obs::now_ns();
        w.compile();
        compiles.push_back(seconds_since(t0));
    }
    w.prepare();
    Verdict verdict;
    BatchResult warm = guarded(w, [&w] { return w.run_batch(); });
    verdict.add(warm);

    perfbench::SpanRecorder spans;
    perfbench::SpanTotals totals;
    perfbench::Tally tally;
    std::vector<double> untraced;
    std::vector<double> trace_costs;  // traced / untraced batch time, per pair
    std::vector<double> probes;
    double traced_wall = 0;
    std::uint64_t traced_batches = 0;
    std::string first_trace;
    const std::uint64_t start = ndb::obs::now_ns();
    do {
        probes.push_back(perfbench::probe_slowdown());
        BatchResult u = guarded(w, [&w] { return w.run_batch(); });
        double rate_u = 0;
        const bool ok_u = batch_rate(u, rate_u);
        if (ok_u) untraced.push_back(rate_u);
        verdict.add(u);

        spans.clear();
        BatchResult t = guarded(w, [&] { return w.run_traced(spans, tally); });
        double rate_t = 0;
        if (batch_rate(t, rate_t)) {
            if (ok_u) trace_costs.push_back(rate_u / rate_t);
            traced_wall += t.wall_s;
            totals.add(spans.spans());
            ++traced_batches;
            if (first_trace.empty() && !args.trace_out.empty()) {
                const auto& all = spans.spans();
                first_trace = perfbench::chrome_trace_json(
                    {all.data(), std::min(all.size(), kMaxTraceSpans)});
            }
        }
        verdict.add(t);
    } while (seconds_since(start) < args.seconds);
    spans.clear();

    perfbench::LookupCounts lookups;
    try {
        lookups = w.count_lookups();
    } catch (const std::exception& e) {
        verdict.problems.push_back(std::string("lookup-count batch threw: ") + e.what());
    }

    const double wall_ns = traced_wall * 1e9;
    const double self_total = static_cast<double>(totals.self_total());
    const double unaccounted_pct = 100.0 * ratio(wall_ns - self_total, wall_ns);
    if (traced_batches > 0 && std::abs(unaccounted_pct) > kUnaccountedTolerancePct) {
        verdict.problems.push_back("traced self times leave " +
                                   std::to_string(unaccounted_pct) +
                                   "% of the traced wall unaccounted");
    }
    if (tally.trace_events_dropped > 0) {
        verdict.problems.push_back("obs trace ring dropped events");
    }

    const auto ns = [&totals](const char* name) {
        return static_cast<double>(totals.total_ns(name));
    };
    const auto per = [](std::uint64_t num, std::uint64_t den) {
        return ratio(static_cast<double>(num), static_cast<double>(den));
    };
    const double findings = static_cast<double>(tally.findings);
    std::vector<Metric> m = {
        {"p4.compile_ms", median(compiles) * 1e3, "ms"},
        {"specgen.make_us", totals.mean_us("specgen.make"), "us"},
        {"generator.pkt_ns", ratio(ns("generator.packets"),
                                   static_cast<double>(tally.generated)), "ns"},
        {"target.load_us", totals.mean_us("target.load"), "us"},
        {"target.loads_per_scenario", per(tally.loads, tally.scenarios), "count"},
        {"target.snapshot_us", totals.mean_us("target.snapshot"), "us"},
        {"control.apply_op_us",
         ratio(ns("control.apply") / 1e3, static_cast<double>(tally.apply_ops)), "us"},
        {"control.ops_per_scenario", per(tally.apply_ops, tally.scenarios), "count"},
        {"dataplane.pkt_ns",
         ratio(ns("dataplane.inject") - ns("dataplane.first_pkt"),
               static_cast<double>(tally.detect_packets - tally.first_packets)),
         "ns"},
        {"dataplane.first_pkt_us", totals.mean_us("dataplane.first_pkt"), "us"},
        {"dataplane.pkts_per_scenario", per(tally.detect_packets, tally.scenarios),
         "count"},
        {"tables.lookups_per_pkt", per(lookups.lookups, lookups.packets), "count"},
        {"core.diff_us", totals.mean_us("core.diff"), "us"},
        {"core.minimize_us", ratio(ns("core.minimize") / 1e3, findings), "us"},
        {"core.minimize.replays_per_finding", per(tally.replays, tally.findings),
         "count"},
        {"core.minimize.wasted_frac", per(tally.replays_wasted, tally.replays), "ratio"},
        {"core.localize_us", ratio(ns("core.localize") / 1e3, findings), "us"},
        {"core.localize.probes_per_finding", per(tally.probes, tally.findings), "count"},
        {"campaign.rounds", per(tally.rounds, traced_batches), "count"},
        {"campaign.barrier_ms",
         ratio(static_cast<double>(
                   totals.self_ns[static_cast<std::size_t>(Layer::campaign_barrier)]) /
                   1e6,
               static_cast<double>(tally.rounds)),
         "ms"},
        {"campaign.coverage_edges", static_cast<double>(tally.coverage_edges), "count"},
        {"mutate.share", per(tally.mutated, tally.scenarios), "ratio"},
        {"verify.concolic_injected", per(tally.concolic_injected, traced_batches),
         "count"},
    };
    for (std::size_t l = 0; l < perfbench::kNumLayers; ++l) {
        m.push_back({std::string("self_pct.") +
                         perfbench::layer_name(static_cast<Layer>(l)),
                     100.0 * ratio(static_cast<double>(totals.self_ns[l]), self_total),
                     "%"});
    }
    m.push_back({"machine.slowdown", median(probes), "ratio"});
    m.push_back({"machine.raw_scenarios_per_s", median(untraced), "1/s"});
    m.push_back({"trace.overhead_pct", 100.0 * (median(trace_costs) - 1.0), "%"});
    m.push_back({"trace.unaccounted_pct", unaccounted_pct, "%"});

    if (!first_trace.empty()) {
        std::ofstream out(args.trace_out, std::ios::binary);
        out << first_trace;
        if (!out) {
            std::fprintf(stderr, "warning: cannot write %s\n", args.trace_out.c_str());
        }
    }
    print_result(verdict, m);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, args)) return usage(argv[0]);
    std::unique_ptr<Workload> w = perfbench::make_workload(args.workload, args.seed);
    if (!w) return usage(argv[0]);
    try {
        return args.trace ? run_traced(*w, args) : run_plain(*w, args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ndb_perfbench: %s\n", e.what());
        return 1;
    }
}
