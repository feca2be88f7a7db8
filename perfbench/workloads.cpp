#include "workloads.h"

#include <algorithm>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_set>

#include "core/campaign.h"
#include "core/localize.h"
#include "core/scenario_exec.h"
#include "core/specgen.h"
#include "core/tools.h"
#include "dataplane/engine.h"
#include "dataplane/quirks.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "packet/protocols.h"
#include "target/device.h"
#include "util/random.h"

namespace perfbench {

namespace core = ndb::core;
namespace dataplane = ndb::dataplane;
namespace obs = ndb::obs;
using ndb::packet::Packet;
using ndb::util::Bitvec;

namespace {

// --- fixed work per batch --------------------------------------------------
//
// Each batch is sized to take roughly half a second on one core, so a run
// of a few seconds holds enough batches for a steady median.  The sizes are
// part of the workload definition: changing one changes what is measured.

// sweep_triage: a uniform sweep; the report keeps every ScenarioOutcome
// until the end, so peak RSS grows with this count.
constexpr std::uint64_t kSweepScenarios = 2000;
// guided: the coverage/mutate/concolic loop over the same fixture.
constexpr std::uint64_t kGuidedScenarios = 2000;
// stream_clean: catalogue scenarios with long streams against a faithful DUT.
constexpr std::uint64_t kStreamScenarios = 1000;
constexpr std::uint64_t kStreamPackets = 256;
// table_scale: flow_wide filled to its declared size every scenario, then a
// stream long enough that table writes and table reads both take a large
// share of the wall time.
constexpr std::uint64_t kTableScenarios = 3;
constexpr std::uint64_t kTableEntries = 65536;  // flow_wide's declared size
constexpr int kTableKeyBits = 17;  // installed keys cover half of this space
constexpr std::uint64_t kTablePackets = 32768;

constexpr const char* kReference = "reference";

std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

// Scenario seeds of a batch are base + [0, n); keep the base small enough
// that the range never wraps.
std::uint64_t base_seed(std::uint64_t workload_seed) {
    return 1 + mix64(workload_seed) % 1'000'000'000'000ull;
}

double seconds_between(std::uint64_t t0_ns, std::uint64_t t1_ns) {
    return static_cast<double>(t1_ns - t0_ns) / 1e9;
}

// One single-quirk sdnet DUT per dataplane::Quirks flag, labelled by the
// flag's name, with the parameters the repository's quirk fixtures use.
std::vector<core::BackendSpec> ten_flag_duts() {
    std::vector<core::BackendSpec> duts;
    const auto add = [&duts](const char* label, auto set) {
        dataplane::Quirks q;
        set(q);
        duts.push_back(core::BackendSpec{"sdnet", q, label});
    };
    add("reject_as_accept", [](dataplane::Quirks& q) { q.reject_as_accept = true; });
    add("parser_depth_limit", [](dataplane::Quirks& q) { q.parser_depth_limit = 4; });
    add("skip_checksum_update",
        [](dataplane::Quirks& q) { q.skip_checksum_update = true; });
    add("shift_miscompile", [](dataplane::Quirks& q) { q.shift_miscompile = true; });
    add("table_size_clamp", [](dataplane::Quirks& q) { q.table_size_clamp = 2; });
    add("ternary_priority_inverted",
        [](dataplane::Quirks& q) { q.ternary_priority_inverted = true; });
    add("metadata_clobber", [](dataplane::Quirks& q) { q.metadata_clobber = true; });
    add("stale_entry", [](dataplane::Quirks& q) { q.stale_entry = true; });
    add("expiry_off_by_one", [](dataplane::Quirks& q) { q.expiry_off_by_one = true; });
    add("hash_collision_misdirect",
        [](dataplane::Quirks& q) { q.hash_collision_misdirect = 3; });
    return duts;
}

std::vector<core::BackendSpec> faithful_dut() {
    return {core::BackendSpec{"sdnet", dataplane::Quirks{}, "sdnet_faithful"}};
}

// The report header CampaignEngine::run writes for a uniform sweep.
core::CampaignReport report_header(std::uint64_t seed, std::uint64_t scenarios,
                                   const std::vector<std::string>& programs,
                                   const std::vector<core::BackendSpec>& duts) {
    core::CampaignReport report;
    report.base_seed = seed;
    report.scenarios = scenarios;
    report.programs = programs;
    report.engine = dataplane::engine_name(dataplane::default_engine());
    for (const auto& d : duts) report.backends.push_back(d.label);
    return report;
}

core::ExecOptions exec_options() {
    const core::CampaignConfig defaults;
    core::ExecOptions exec;
    exec.batch_size = defaults.batch_size;
    exec.minimize = true;
    exec.localize = true;
    return exec;
}

// Every DUT must be caught at least once: one quirk flag per DUT.
void check_every_flag_found(const core::CampaignReport& report,
                            const std::vector<core::BackendSpec>& duts,
                            BatchResult& out) {
    for (const auto& d : duts) {
        const bool found =
            std::any_of(report.divergences.begin(), report.divergences.end(),
                        [&d](const core::DivergenceRecord& r) {
                            return r.backend == d.label;
                        });
        if (!found) out.problems.push_back("no fingerprint for quirk " + d.label);
    }
    if (!out.problems.empty()) out.failed = out.scenarios;
}

// --- the traced replica of execute_scenario ---------------------------------
//
// Same public calls in the same order as core::execute_scenario (uniform
// sweep: no coverage, no management faults), with run_scenario_on split
// into load / apply / inject+drain / snapshot so each gets its own span.

core::DeviceRun traced_run_on(ndb::target::Device& dev, const core::Scenario& sc,
                              const std::vector<Packet>& packets,
                              std::size_t batch_size, SpanRecorder& spans,
                              Tally& tally) {
    core::DeviceRun run;
    {
        const auto span = spans.scope("target.load", Layer::target);
        if (!dev.load(*sc.compiled)) {
            throw std::runtime_error(
                "campaign: device refused catalogue program " + sc.program);
        }
    }
    ++tally.loads;
    run.config_ok.reserve(sc.config.size());
    run.config_wire_fail.reserve(sc.config.size());
    {
        const auto span = spans.scope("control.apply", Layer::control);
        for (const auto& st : dev.apply(sc.config)) {
            run.config_ok.push_back(st.ok);
            run.config_wire_fail.push_back(false);
        }
    }
    tally.apply_ops += sc.config.size();
    {
        const auto span = spans.scope("dataplane.inject", Layer::dataplane);
        dev.set_digests_enabled(true);
        const std::size_t batch = std::max<std::size_t>(1, batch_size);
        std::vector<Packet> drained;
        std::size_t i = 0;
        while (i < packets.size()) {
            const std::size_t end = std::min(i + batch, packets.size());
            for (; i < end; ++i) {
                if (i == 0) {
                    // The first packet after load() pays for building the
                    // execution engine.
                    const auto first =
                        spans.scope("dataplane.first_pkt", Layer::dataplane);
                    dev.inject(packets[i]);
                } else {
                    dev.inject(packets[i]);
                }
                ++run.injected;
            }
            for (int p = 0; p < dev.config().num_ports; ++p) {
                drained.clear();
                dev.drain_port_into(static_cast<std::uint32_t>(p), drained);
                for (auto& out : drained) {
                    run.observed.push_back(
                        {static_cast<std::uint32_t>(p), std::move(out)});
                }
            }
        }
        std::vector<dataplane::TapDigest> records = dev.take_digest_records();
        if (records.size() == packets.size()) run.taps = std::move(records);
        dev.set_digests_enabled(false);
    }
    tally.detect_packets += run.injected;
    if (run.injected > 0) ++tally.first_packets;
    {
        const auto span = spans.scope("target.snapshot", Layer::target);
        run.snapshot = dev.snapshot();
    }
    return run;
}

void traced_execute(core::WorkerContext& ctx, const core::Scenario& sc,
                    const std::vector<core::BackendSpec>& duts,
                    const core::ExecOptions& options,
                    core::ScenarioOutcome& outcome, SpanRecorder& spans,
                    Tally& tally) {
    std::vector<Packet> packets;
    {
        const auto span = spans.scope("generator.packets", Layer::generator);
        packets = core::scenario_packets(sc);
    }
    tally.generated += packets.size();
    const core::DeviceRun ref_run = traced_run_on(
        *ctx.reference, sc, packets, options.batch_size, spans, tally);
    outcome.packets += ref_run.injected;

    for (std::size_t d = 0; d < duts.size(); ++d) {
        ndb::target::Device& dut = *ctx.duts[d];
        const core::DeviceRun dut_run =
            traced_run_on(dut, sc, packets, options.batch_size, spans, tally);
        outcome.packets += dut_run.injected;

        std::optional<core::RawDivergence> raw;
        {
            const auto span = spans.scope("core.diff", Layer::core_diff);
            raw = core::diff_runs(dut_run, ref_run);
        }
        ++tally.diffs;
        if (!raw) continue;
        ++tally.findings;

        core::DivergenceRecord rec;
        rec.seed = sc.seed;
        rec.backend = duts[d].label;
        rec.program = sc.program;
        rec.quirk_signature = dut.config().quirks.signature();
        rec.kind = raw->kind;
        rec.detail = raw->detail;
        rec.first_diverging_packet = raw->first_diverging_packet;

        if (options.minimize) {
            const auto span = spans.scope("core.minimize", Layer::core_triage);
            for (std::size_t k = 1; k <= packets.size(); ++k) {
                const auto replay =
                    spans.scope("core.minimize.replay", Layer::core_triage);
                const std::vector<Packet> prefix(packets.begin(),
                                                 packets.begin() + k);
                const core::DeviceRun r = core::run_scenario_on(
                    *ctx.reference, sc, prefix, options.batch_size);
                const core::DeviceRun u = core::run_scenario_on(
                    dut, sc, prefix, options.batch_size, nullptr, &outcome.mgmt);
                outcome.packets += r.injected + u.injected;
                tally.loads += 2;
                ++tally.replays;
                if (core::diff_runs(u, r)) {
                    rec.minimized_count = k;
                    rec.minimized_reproduces = true;
                    break;
                }
                ++tally.replays_wasted;
            }
        }

        const std::uint64_t trigger =
            rec.minimized_count ? rec.minimized_count : packets.size();
        if (options.localize && trigger > 0) {
            const auto span = spans.scope("core.localize", Layer::core_triage);
            const std::vector<Packet> warmup(packets.begin(),
                                             packets.begin() + (trigger - 1));
            const core::DeviceRun r = core::run_scenario_on(
                *ctx.reference, sc, warmup, options.batch_size);
            const core::DeviceRun u = core::run_scenario_on(
                dut, sc, warmup, options.batch_size, nullptr, &outcome.mgmt);
            outcome.packets += r.injected + u.injected;
            tally.loads += 2;
            core::FaultLocalizer localizer(dut, *ctx.reference);
            rec.localized = localizer.localize_binary(packets[trigger - 1]);
            outcome.packets += rec.localized.packets_replayed;
            tally.probes += static_cast<std::uint64_t>(rec.localized.probes);
        }

        const std::string stage =
            rec.localized.diverged
                ? dataplane::stage_name(rec.localized.stage)
                : (rec.kind == "config"  ? "control"
                   : rec.kind == "mgmt"  ? "mgmt"
                   : rec.kind == "state" ? "state"
                                         : "unlocalized");
        rec.fingerprint = rec.backend + "|" + rec.quirk_signature + "|" + stage;
        outcome.findings.push_back(std::move(rec));
    }
}

// --- sweep_triage and guided ------------------------------------------------

class CampaignWorkload final : public Workload {
public:
    CampaignWorkload(std::uint64_t seed, bool guided)
        : Workload(guided ? kGuidedScenarios : kSweepScenarios),
          seed_(base_seed(seed)),
          guided_(guided),
          programs_(core::SpecGenerator::default_programs()),
          duts_(ten_flag_duts()) {}

    void setup() override {
        const core::SpecGenerator gen(programs_);
        const core::WorkerContext ctx(kReference, duts_,
                                      dataplane::default_engine());
    }
    void compile() override { const core::SpecGenerator gen(programs_); }
    void prepare() override {}

    BatchResult run_batch() override {
        BatchResult out;
        out.scenarios = scenarios_;
        core::CampaignEngine engine(config());
        const std::uint64_t t0 = obs::now_ns();
        const core::CampaignReport report = engine.run();
        out.wall_s = seconds_between(t0, obs::now_ns());
        finish(report, out);
        return out;
    }

    BatchResult run_traced(SpanRecorder& spans, Tally& tally) override {
        return guided_ ? traced_guided(spans, tally) : traced_sweep(spans, tally);
    }

private:
    core::CampaignConfig config() const {
        core::CampaignConfig cfg;
        cfg.base_seed = seed_;
        cfg.scenarios = scenarios_;
        cfg.threads = 1;
        cfg.programs = programs_;
        cfg.duts = duts_;
        cfg.minimize = true;
        cfg.localize = true;
        cfg.mutate = guided_;
        cfg.concolic = guided_;
        return cfg;
    }

    void finish(const core::CampaignReport& report, BatchResult& out) const {
        out.report = report.to_json();
        check_every_flag_found(report, duts_, out);
    }

    // The uniform sweep rebuilt from the replica: CampaignEngine::run's
    // set-up, then every seed through traced_execute and ReportBuilder.
    BatchResult traced_sweep(SpanRecorder& spans, Tally& tally) {
        BatchResult out;
        out.scenarios = scenarios_;
        const std::uint64_t t0 = obs::now_ns();
        std::optional<core::SpecGenerator> gen;
        std::optional<core::WorkerContext> ctx;
        {
            const auto span = spans.scope("campaign.setup", Layer::setup);
            gen.emplace(programs_);
            ctx.emplace(kReference, duts_, dataplane::default_engine());
        }
        core::CampaignReport report =
            report_header(seed_, scenarios_, gen->programs(), duts_);
        core::ReportBuilder builder(report);
        const core::ExecOptions exec = exec_options();
        for (std::uint64_t i = 0; i < scenarios_; ++i) {
            spans.set_scenario(seed_ + i);
            const auto root = spans.scope("scenario", Layer::core_glue);
            core::Scenario sc;
            {
                const auto span = spans.scope("specgen.make", Layer::specgen);
                sc = gen->make(seed_ + i);
            }
            core::ScenarioOutcome outcome;
            traced_execute(*ctx, sc, duts_, exec, outcome, spans, tally);
            const auto fold = spans.scope("core.fold", Layer::core_glue);
            builder.fold(outcome);
        }
        out.wall_s = seconds_between(t0, obs::now_ns());
        tally.scenarios += scenarios_;
        finish(report, out);
        return out;
    }

    // The guided loop has no replica: the existing obs trace layer already
    // records its round and scenario spans, and the benchmark wraps run().
    BatchResult traced_guided(SpanRecorder& spans, Tally& tally) {
        BatchResult out;
        out.scenarios = scenarios_;
        core::CampaignEngine engine(config());
        obs::Trace::instance().reset();
        obs::Telemetry::set_enabled(false, true);
        const std::uint64_t t0 = obs::now_ns();
        core::CampaignReport report;
        try {
            report = engine.run();
        } catch (...) {
            obs::Telemetry::set_enabled(false, false);
            throw;
        }
        const std::uint64_t t1 = obs::now_ns();
        obs::Telemetry::set_enabled(false, false);
        out.wall_s = seconds_between(t0, t1);
        std::vector<obs::TraceEventRecord> events = obs::Trace::instance().drain();
        tally.trace_events_dropped += obs::Trace::instance().dropped();

        const std::int32_t root =
            spans.add("campaign.run", Layer::campaign_loop, t0, t1, -1, 0);
        std::vector<std::pair<std::int32_t, const obs::TraceEventRecord*>> rounds;
        for (const auto& e : events) {
            if (e.instant() || e.name != "round") continue;
            rounds.emplace_back(spans.add("campaign.round", Layer::campaign_barrier,
                                          e.ts_ns, e.ts_ns + e.dur_ns, root, 0),
                                &e);
        }
        for (const auto& e : events) {
            if (e.instant() || e.name != "scenario") continue;
            std::int32_t parent = root;
            for (const auto& [index, r] : rounds) {
                if (r->ts_ns <= e.ts_ns && e.ts_ns + e.dur_ns <= r->ts_ns + r->dur_ns) {
                    parent = index;
                    break;
                }
            }
            spans.add("campaign.scenario", Layer::campaign_scenario, e.ts_ns,
                      e.ts_ns + e.dur_ns, parent, e.v0);
        }
        tally.scenarios += scenarios_;
        tally.rounds += report.coverage_series.size();
        tally.mutated += report.scenarios_mutated;
        tally.concolic_injected += report.concolic_injected;
        tally.coverage_edges = report.coverage_edges;
        finish(report, out);
        return out;
    }

    std::uint64_t seed_;
    bool guided_;
    std::vector<std::string> programs_;
    std::vector<core::BackendSpec> duts_;
};

// --- stream_clean and table_scale -------------------------------------------
//
// Scenarios go one by one through execute_scenario + ReportBuilder on a
// device pool built once in prepare(), against a quirk-free DUT: any
// divergence is a failure.

class CleanWorkload : public Workload {
public:
    CleanWorkload(std::uint64_t seed, std::vector<std::string> programs,
                  std::uint64_t scenarios)
        : Workload(scenarios),
          seed_(base_seed(seed)),
          programs_(std::move(programs)),
          duts_(faithful_dut()) {}

    void setup() override {
        const core::SpecGenerator gen(programs_);
        const core::WorkerContext ctx(kReference, duts_,
                                      dataplane::default_engine());
    }
    void compile() override { const core::SpecGenerator gen(programs_); }

    void prepare() override {
        gen_.emplace(programs_);
        ctx_.emplace(kReference, duts_, dataplane::default_engine());
    }

    BatchResult run_batch() override {
        BatchResult out;
        out.scenarios = scenarios_;
        core::CampaignReport report =
            report_header(seed_, scenarios_, gen_->programs(), duts_);
        core::ReportBuilder builder(report);
        const core::ExecOptions exec = exec_options();
        std::uint64_t busy_ns = 0;
        for (std::uint64_t i = 0; i < scenarios_; ++i) {
            const std::uint64_t t0 = obs::now_ns();
            core::ScenarioOutcome outcome;
            try {
                const core::Scenario& sc = scenario(i);
                core::execute_scenario(*ctx_, sc, duts_, exec, outcome,
                                       std::string());
            } catch (const std::exception& e) {
                ++out.failed;
                out.problems.push_back(e.what());
                continue;
            }
            busy_ns += obs::now_ns() - t0;
            check(outcome, out);
            const std::uint64_t t1 = obs::now_ns();
            builder.fold(outcome);
            busy_ns += obs::now_ns() - t1;
        }
        out.wall_s = static_cast<double>(busy_ns) / 1e9;
        out.report = report.to_json();
        return out;
    }

    BatchResult run_traced(SpanRecorder& spans, Tally& tally) override {
        BatchResult out;
        out.scenarios = scenarios_;
        core::CampaignReport report =
            report_header(seed_, scenarios_, gen_->programs(), duts_);
        core::ReportBuilder builder(report);
        const core::ExecOptions exec = exec_options();
        std::uint64_t busy_ns = 0;
        for (std::uint64_t i = 0; i < scenarios_; ++i) {
            spans.set_scenario(seed_ + i);
            const std::uint64_t t0 = obs::now_ns();
            core::ScenarioOutcome outcome;
            {
                const auto root = spans.scope("scenario", Layer::core_glue);
                const core::Scenario* sc = nullptr;
                {
                    const auto span = spans.scope("specgen.make", Layer::specgen);
                    sc = &scenario(i);
                }
                traced_execute(*ctx_, *sc, duts_, exec, outcome, spans, tally);
            }
            busy_ns += obs::now_ns() - t0;
            check(outcome, out);
            const std::uint64_t t1 = obs::now_ns();
            {
                const auto fold = spans.scope("core.fold", Layer::core_glue);
                builder.fold(outcome);
            }
            busy_ns += obs::now_ns() - t1;
        }
        out.wall_s = static_cast<double>(busy_ns) / 1e9;
        tally.scenarios += scenarios_;
        out.report = report.to_json();
        return out;
    }

protected:
    // The scenario for slot `i` of a batch; the reference stays valid until
    // the next call.
    virtual const core::Scenario& scenario(std::uint64_t i) = 0;

    // Output check of one executed scenario (outside the timed region).
    virtual void check(const core::ScenarioOutcome& outcome, BatchResult& out) {
        if (outcome.findings.empty()) return;
        ++out.failed;
        const auto& f = outcome.findings.front();
        out.problems.push_back("divergence on a faithful DUT: " + f.fingerprint +
                               " " + f.detail);
    }

    std::uint64_t seed_;
    std::vector<std::string> programs_;
    std::vector<core::BackendSpec> duts_;
    std::optional<core::SpecGenerator> gen_;
    std::optional<core::WorkerContext> ctx_;
};

class StreamCleanWorkload final : public CleanWorkload {
public:
    explicit StreamCleanWorkload(std::uint64_t seed)
        : CleanWorkload(seed, core::SpecGenerator::default_programs(),
                        kStreamScenarios) {}

private:
    const core::Scenario& scenario(std::uint64_t i) override {
        current_ = gen_->make(seed_ + i);
        current_.spec.count = kStreamPackets;
        return current_;
    }

    core::Scenario current_;
};

class TableScaleWorkload final : public CleanWorkload {
public:
    explicit TableScaleWorkload(std::uint64_t seed)
        : CleanWorkload(seed, {"wide_match"}, kTableScenarios) {}

    void prepare() override {
        CleanWorkload::prepare();
        build_scenario();
    }

private:
    const core::Scenario& scenario(std::uint64_t) override { return scenario_; }

    void check(const core::ScenarioOutcome& outcome, BatchResult& out) override {
        const std::uint64_t failed_before = out.failed;
        CleanWorkload::check(outcome, out);
        if (out.failed != failed_before) return;
        // The reference ran the scenario's detection run last (no triage on
        // a clean scenario), so its table counters are that run's.
        std::uint64_t hits = 0;
        bool seen = false;
        for (const auto& t : ctx_->reference->snapshot().tables) {
            if (t.name == "flow_wide" || t.name.ends_with(".flow_wide")) {
                hits = t.hits;
                seen = true;
            }
        }
        if (!seen || hits != planned_hits_) {
            ++out.failed;
            out.problems.push_back(
                "flow_wide hits " + std::to_string(hits) + " != planned " +
                std::to_string(planned_hits_));
        }
    }

    // wide_match's generated scenario with flow_wide refilled to its declared
    // size: kTableEntries distinct destination keys out of a key space twice
    // that size, and a stream whose destinations are uniform over the same
    // space, so about half the packets hit.  The planned hit count comes
    // from the stream itself.
    void build_scenario() {
        using ndb::core::scenario::host_ip;
        using ndb::core::scenario::host_mac;
        scenario_ = gen_->make_for(0, seed_);
        std::vector<core::ConfigOp> backup;
        for (auto& op : scenario_.config) {
            if (op.target != "flow_wide") backup.push_back(std::move(op));
        }
        const auto mac = [](const ndb::packet::Mac& m) {
            return Bitvec::from_bytes(
                std::span<const std::uint8_t>(m.data(), m.size()), 48);
        };
        const std::uint32_t dst_base = host_ip(0) & ~((1u << kTableKeyBits) - 1);
        ndb::util::Rng rng(mix64(seed_ ^ 0x7461626c65ull));  // "table"
        std::vector<std::uint32_t> keys(std::size_t{1} << kTableKeyBits);
        for (std::size_t k = 0; k < keys.size(); ++k) {
            keys[k] = static_cast<std::uint32_t>(k);
        }
        for (std::size_t k = 0; k < kTableEntries; ++k) {  // partial shuffle
            std::swap(keys[k], keys[k + rng.next_below(keys.size() - k)]);
        }
        keys.resize(kTableEntries);
        scenario_.config.clear();
        scenario_.config.reserve(kTableEntries + backup.size());
        for (const std::uint32_t key : keys) {
            core::ConfigOp op;
            op.kind = core::ConfigOp::Kind::add_entry;
            op.target = "flow_wide";
            op.entry.key_values = {mac(host_mac(2)), mac(host_mac(1)),
                                   Bitvec(32, host_ip(1)),
                                   Bitvec(32, dst_base | key),
                                   Bitvec(8, ndb::packet::kIpProtoUdp)};
            op.entry.action = "set_port";
            op.entry.action_args = {Bitvec(9, rng.next_range(1, 3))};
            scenario_.config.push_back(std::move(op));
        }
        for (auto& op : backup) scenario_.config.push_back(std::move(op));

        scenario_.spec.count = kTablePackets;
        scenario_.spec.rate_pps = 0;
        scenario_.spec.tmpl.base = ndb::core::scenario::ipv4_udp_packet();
        core::FieldMutation dst;
        dst.bit_offset = ndb::core::scenario::kIpv4DstBit + (32 - kTableKeyBits);
        dst.width = kTableKeyBits;
        dst.mode = core::FieldMutation::Mode::random;
        dst.value = Bitvec(kTableKeyBits, 0);
        scenario_.spec.tmpl.mutations = {dst};

        const std::unordered_set<std::uint32_t> installed(keys.begin(), keys.end());
        planned_hits_ = 0;
        for (const Packet& p : core::scenario_packets(scenario_)) {
            const auto& bytes = p.data();
            const std::uint32_t dst_ip =
                (std::uint32_t{bytes[30]} << 24) | (std::uint32_t{bytes[31]} << 16) |
                (std::uint32_t{bytes[32]} << 8) | std::uint32_t{bytes[33]};
            if ((dst_ip & ~((1u << kTableKeyBits) - 1)) == dst_base &&
                installed.count(dst_ip & ((1u << kTableKeyBits) - 1)) != 0) {
                ++planned_hits_;
            }
        }
    }

    core::Scenario scenario_;
    std::uint64_t planned_hits_ = 0;
};

}  // namespace

LookupCounts Workload::count_lookups() {
    struct MetricsOn {
        MetricsOn() {
            obs::Metrics::instance().reset();
            obs::Telemetry::set_enabled(true, false);
        }
        ~MetricsOn() { obs::Telemetry::set_enabled(false, false); }
    };
    obs::MetricsSnapshot snap;
    {
        const MetricsOn on;
        run_batch();
        snap = obs::Metrics::instance().snapshot();
    }
    const auto counter = [&snap](obs::Counter c) {
        return snap.counters[static_cast<std::size_t>(c)];
    };
    LookupCounts counts;
    counts.lookups = counter(obs::Counter::lookups_exact) +
                     counter(obs::Counter::lookups_lpm) +
                     counter(obs::Counter::lookups_ternary);
    counts.packets = counter(obs::Counter::packets);
    return counts;
}

std::vector<std::string> workload_names() {
    return {"sweep_triage", "guided", "stream_clean", "table_scale"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
    if (name == "sweep_triage") return std::make_unique<CampaignWorkload>(seed, false);
    if (name == "guided") return std::make_unique<CampaignWorkload>(seed, true);
    if (name == "stream_clean") return std::make_unique<StreamCleanWorkload>(seed);
    if (name == "table_scale") return std::make_unique<TableScaleWorkload>(seed);
    return nullptr;
}

}  // namespace perfbench
