#include "core/scenario_exec.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string_view>

#include "core/generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace ndb::core {

namespace {

using dataplane::TapDigest;

std::uint64_t stamp_seq(const packet::Packet& pkt) {
    std::uint64_t seq = 0, t = 0;
    return TestPacketGenerator::read_stamp(pkt, seq, t) ? seq : 0;
}

// Mixes (plan seed, program, scenario seed, DUT index) into the per-run
// fault-schedule seed.  Pure, so the identical schedule replays in any
// thread, worker process, or standalone reproduction of the scenario.
std::uint64_t derive_mgmt_seed(const control::FaultPlan& base,
                               const Scenario& sc, std::size_t dut_index) {
    std::uint64_t h = base.seed;
    h ^= util::fnv1a_64(sc.program);
    h ^= sc.seed * 0x9e3779b97f4a7c15ull;
    h ^= (dut_index + 1) * 0xc2b2ae3d27d4eb4full;
    return h;
}

}  // namespace

WorkerContext::WorkerContext(const std::string& reference_backend,
                             const std::vector<BackendSpec>& specs,
                             dataplane::Engine) {
    reference = target::make_device(reference_backend);
    if (!reference) {
        throw std::invalid_argument("campaign: unknown reference backend '" +
                                    reference_backend + "'");
    }
    for (const auto& spec : specs) {
        auto dev = target::make_device(spec.name, spec.quirks);
        if (!dev) {
            throw std::invalid_argument("campaign: unknown backend '" +
                                        spec.name + "'");
        }
        duts.push_back(std::move(dev));
    }
}

void scenario_packets(const Scenario& sc, std::vector<packet::Packet>& out) {
    // Build the stream once; every backend sees byte-identical stimuli on
    // an identical timeline.  A spec-level rate stretches the slot so
    // stateful scenarios can straddle aging timeouts within one stream;
    // the integer slot keeps the timeline exactly reproducible.
    const std::uint64_t slot_ns =
        sc.spec.rate_pps > 0
            ? static_cast<std::uint64_t>(1e9 / sc.spec.rate_pps + 0.5)
            : target::kNsPerPacket;
    TestPacketGenerator pgen(sc.spec);
    out.clear();
    out.reserve(sc.spec.count);
    for (std::uint64_t seq = 1; seq <= sc.spec.count; ++seq) {
        out.push_back(
            pgen.make_packet(seq, target::kClockEpochNs + (seq - 1) * slot_ns));
    }
}

std::vector<packet::Packet> scenario_packets(const Scenario& sc) {
    std::vector<packet::Packet> packets;
    scenario_packets(sc, packets);
    return packets;
}

DeviceRun run_scenario_on(target::Device& dev, const Scenario& sc,
                          std::span<const packet::Packet> packets,
                          std::size_t batch_size,
                          const control::FaultPlan* mgmt,
                          control::ChannelStats* acct) {
    DeviceRun run;
    run_scenario_on(dev, sc, packets, batch_size, run, mgmt, acct);
    return run;
}

void run_scenario_on(target::Device& dev, const Scenario& sc,
                     std::span<const packet::Packet> packets,
                     std::size_t batch_size, DeviceRun& run,
                     const control::FaultPlan* mgmt, control::ChannelStats* acct) {
    run.config_ok.clear();
    run.config_wire_fail.clear();
    run.observed.clear();
    run.taps.clear();
    run.injected = 0;
    // Hands over the scenario's shared image: a device that already holds it
    // (every triage replay after the detection run) resets in place
    // instead of rebuilding its tables and engines.
    if (!dev.load(sc.compiled)) {
        throw std::runtime_error("campaign: device refused catalogue program " +
                                 sc.program);
    }
    run.config_ok.reserve(sc.config.size());
    run.config_wire_fail.reserve(sc.config.size());
    if (mgmt != nullptr && mgmt->enabled()) {
        // Deliver the configuration the way the paper's management
        // interface would: serialized frames over a (faultable) link, with
        // the resilient client retrying under its budget.
        control::LoopbackTransport transport(dev);
        transport.set_fault_plan(*mgmt);
        control::WireChannel channel(transport);
        control::RuntimeClient client(channel);
        // The whole scenario's configuration rides one ApplyConfigReq frame;
        // per-op Status comes back in the response, so the accounting below
        // is unchanged from the one-frame-per-op protocol.
        const std::vector<control::Status> statuses = client.apply(sc.config);
        for (const control::Status& st : statuses) {
            run.config_ok.push_back(st.ok);
            run.config_wire_fail.push_back(
                !st.ok && util::starts_with(st.message, "wire:"));
        }
        if (acct != nullptr) {
            acct->add(channel.stats());
            transport.count(*acct);
        }
    } else {
        dev.apply(sc.config, run.config_ok);
        run.config_wire_fail.assign(sc.config.size(), false);
    }
    // Streaming digest mode: the pipeline hashes each stage's state in
    // place, so detection gets the tap signal without a single PacketState
    // copy (only FaultLocalizer's traced trigger makes stage copies).
    dev.set_digests_enabled(true);
    const std::size_t batch = std::max<std::size_t>(1, batch_size);
    // Sized once for the stream: every packet leaves one digest and at most
    // one output.
    run.observed.reserve(packets.size());
    run.taps.reserve(packets.size());
    std::size_t i = 0;
    while (i < packets.size()) {
        const std::size_t end = std::min(i + batch, packets.size());
        for (; i < end; ++i) {
            dev.inject(packets[i]);
            ++run.injected;
            // Only a batch longer than the digest ring fills it.
            if (dev.digest_records().size() == target::kMaxDigestRecords) {
                dev.drain_digests_into(run.taps);
            }
        }
        // One ring and queue sweep per batch amortizes the drain round-trip.
        dev.drain_digests_into(run.taps);
        for (int p = 0; p < dev.config().num_ports; ++p) {
            const auto port = static_cast<std::uint32_t>(p);
            dev.drain_port_each(port, [&run, port](packet::Packet&& out) {
                run.observed.emplace_back(port, std::move(out));
            });
        }
    }
    dev.set_digests_enabled(false);
    dev.snapshot_into(run.snapshot);
}

namespace {

// Where a DUT run first differs from the reference run: the check that
// failed and the position it failed at (a config op, table, extern, packet,
// output or stage-counter index).
struct RunDifference {
    enum class Check : std::uint8_t {
        config_op, table_shape, extern_state, meter_config, tap, output_port,
        output_bytes, output_length, stage_counter, table_stats
    };
    Check check;
    std::size_t index;
};

struct StageCounter {
    const char* name;
    std::uint64_t dut, ref;
};

std::array<StageCounter, 8> stage_counters(const DeviceRun& dut,
                                           const DeviceRun& ref) {
    const auto& ds = dut.snapshot.stages;
    const auto& gs = ref.snapshot.stages;
    return {{
        {"parser_in", ds.parser_in, gs.parser_in},
        {"parser_accepted", ds.parser_accepted, gs.parser_accepted},
        {"parser_rejected", ds.parser_rejected, gs.parser_rejected},
        {"parser_errors", ds.parser_errors, gs.parser_errors},
        {"ingress_dropped", ds.ingress_dropped, gs.ingress_dropped},
        {"egress_dropped", ds.egress_dropped, gs.egress_dropped},
        {"forwarded", ds.forwarded, gs.forwarded},
        {"misdirected", dut.snapshot.misdirected, ref.snapshot.misdirected},
    }};
}

// diff_runs' search, in its causal order.  It compares and never formats,
// so minimize asks whether a replay diverges without allocating.
std::optional<RunDifference> first_difference(const DeviceRun& dut,
                                              const DeviceRun& ref) {
    using Check = RunDifference::Check;
    for (std::size_t i = 0; i < dut.config_ok.size() && i < ref.config_ok.size();
         ++i) {
        if (dut.config_ok[i] != ref.config_ok[i]) {
            return RunDifference{Check::config_op, i};
        }
    }

    // Static table shape is control-plane visible before any packet flows:
    // a clamped capacity or a rejected insert shows up here.
    const std::size_t tables =
        std::min(dut.snapshot.tables.size(), ref.snapshot.tables.size());
    for (std::size_t i = 0; i < tables; ++i) {
        const auto& dt = dut.snapshot.tables[i];
        const auto& gt = ref.snapshot.tables[i];
        if (dt.capacity != gt.capacity || dt.entries != gt.entries) {
            return RunDifference{Check::table_shape, i};
        }
    }

    // Per-flow state next: register/counter contents diverge when a target
    // ages, drops, or misplaces flow entries even while every output byte
    // matches (a stale NAT binding forwards correctly right up to the
    // packet where it does not).  The snapshot hashes make the disagreement
    // first-class instead of waiting for a packet to expose it.
    for (std::size_t i = 0;
         i < dut.snapshot.externs.size() && i < ref.snapshot.externs.size();
         ++i) {
        const auto& de = dut.snapshot.externs[i];
        const auto& ge = ref.snapshot.externs[i];
        if (de.state_hash != ge.state_hash) {
            return RunDifference{Check::extern_state, i};
        }
        if (de.unconfigured_meters != ge.unconfigured_meters) {
            return RunDifference{Check::meter_config, i};
        }
    }

    // Internal visibility next: the taps see divergences (wrong parser
    // verdict, clobbered metadata) that output bytes can hide entirely.
    // Every run keeps one digest per injected packet, so the two lists
    // line up whenever both devices ran the same stream.
    if (dut.taps.size() == ref.taps.size()) {
        for (std::size_t i = 0; i < dut.taps.size(); ++i) {
            if (!(dut.taps[i] == ref.taps[i])) return RunDifference{Check::tap, i};
        }
    }

    const std::size_t n = std::min(dut.observed.size(), ref.observed.size());
    for (std::size_t i = 0; i < n; ++i) {
        const StreamItem& d = dut.observed[i];
        const StreamItem& g = ref.observed[i];
        if (d.port != g.port) return RunDifference{Check::output_port, i};
        if (!d.pkt.same_bytes(g.pkt)) return RunDifference{Check::output_bytes, i};
    }
    if (dut.observed.size() != ref.observed.size()) {
        return RunDifference{Check::output_length, n};
    }

    const std::array<StageCounter, 8> counters = stage_counters(dut, ref);
    for (std::size_t i = 0; i < counters.size(); ++i) {
        if (counters[i].dut != counters[i].ref) {
            return RunDifference{Check::stage_counter, i};
        }
    }
    for (std::size_t i = 0; i < tables; ++i) {
        const auto& dt = dut.snapshot.tables[i];
        const auto& gt = ref.snapshot.tables[i];
        if (dt.hits != gt.hits || dt.misses != gt.misses) {
            return RunDifference{Check::table_stats, i};
        }
    }
    return std::nullopt;
}

// The finding first_difference() located: its kind, the human-readable
// detail with both runs' values, and the 1-based packet it names (0 when
// the check is not about one packet).
RawDivergence describe(const RunDifference& diff, const DeviceRun& dut,
                       const DeviceRun& ref) {
    using Check = RunDifference::Check;
    using ull = unsigned long long;
    const std::size_t i = diff.index;
    const char* const acceptance[] = {"rejected", "ok"};
    switch (diff.check) {
        case Check::config_op:
            // A wire-layer loss on the DUT's (faulted) management channel
            // where the reference's clean channel delivered: the management
            // plane itself diverged, not the device runtime.
            if (i < dut.config_wire_fail.size() && dut.config_wire_fail[i]) {
                return {"mgmt",
                        util::format("config op #%zu lost on the management "
                                     "wire: dut=timed-out golden=%s",
                                     i, acceptance[ref.config_ok[i]]),
                        0};
            }
            return {"config",
                    util::format("config op #%zu: dut=%s golden=%s", i,
                                 acceptance[dut.config_ok[i]],
                                 acceptance[ref.config_ok[i]]),
                    0};
        case Check::table_shape: {
            const auto &dt = dut.snapshot.tables[i], &gt = ref.snapshot.tables[i];
            return {"config",
                    util::format("table %s shape: dut entries=%llu/%llu golden "
                                 "entries=%llu/%llu",
                                 dt.name.c_str(), ull(dt.entries), ull(dt.capacity),
                                 ull(gt.entries), ull(gt.capacity)),
                    0};
        }
        case Check::extern_state: {
            const auto &de = dut.snapshot.externs[i], &ge = ref.snapshot.externs[i];
            return {"state",
                    util::format("%s %s state hash: dut=%016llx golden=%016llx",
                                 de.kind.c_str(), de.name.c_str(),
                                 ull(de.state_hash), ull(ge.state_hash)),
                    0};
        }
        case Check::meter_config: {
            const auto &de = dut.snapshot.externs[i], &ge = ref.snapshot.externs[i];
            return {"state",
                    util::format("meter %s unconfigured cells: dut=%llu golden=%llu",
                                 de.name.c_str(), ull(de.unconfigured_meters),
                                 ull(ge.unconfigured_meters)),
                    0};
        }
        case Check::tap: {
            const TapDigest &d = dut.taps[i], &g = ref.taps[i];
            std::string what;
            if (d.verdict != g.verdict) {
                what = util::format("parser verdict dut=%s golden=%s",
                                    dataplane::parser_verdict_name(d.verdict),
                                    dataplane::parser_verdict_name(g.verdict));
            } else if (d.stage_hash[0] != g.stage_hash[0]) {
                what = "state differs at the parser tap";
            } else if (d.stage_hash[1] != g.stage_hash[1]) {
                what = "state differs at the ingress tap";
            } else if (d.stage_hash[2] != g.stage_hash[2]) {
                what = "state differs at the egress tap";
            } else if (d.disposition != g.disposition) {
                what = util::format("disposition dut=%s golden=%s",
                                    dataplane::disposition_name(d.disposition),
                                    dataplane::disposition_name(g.disposition));
            } else {
                what = util::format("egress port dut=%u golden=%u", d.egress_port,
                                    g.egress_port);
            }
            return {"internal", util::format("packet #%zu: %s", i + 1, what.c_str()),
                    static_cast<std::uint64_t>(i + 1)};
        }
        case Check::output_port: {
            const StreamItem &d = dut.observed[i], &g = ref.observed[i];
            return {"output",
                    util::format("output #%zu egress port: dut=%u golden=%u", i,
                                 d.port, g.port),
                    stamp_seq(g.pkt)};
        }
        case Check::output_bytes: {
            const StreamItem &d = dut.observed[i], &g = ref.observed[i];
            return {"output",
                    util::format("output #%zu bytes differ on port %u (%zuB vs %zuB)",
                                 i, d.port, d.pkt.size(), g.pkt.size()),
                    stamp_seq(g.pkt)};
        }
        case Check::output_length: {
            const bool dut_longer = dut.observed.size() > ref.observed.size();
            return {"output",
                    util::format("output stream length: dut=%zu golden=%zu",
                                 dut.observed.size(), ref.observed.size()),
                    stamp_seq((dut_longer ? dut.observed : ref.observed)[i].pkt)};
        }
        case Check::stage_counter: {
            const StageCounter c = stage_counters(dut, ref)[i];
            return {"snapshot",
                    util::format("stage counter %s: dut=%llu golden=%llu", c.name,
                                 ull(c.dut), ull(c.ref)),
                    0};
        }
        case Check::table_stats: {
            const auto &dt = dut.snapshot.tables[i], &gt = ref.snapshot.tables[i];
            return {"snapshot",
                    util::format("table %s: dut hits=%llu misses=%llu, golden "
                                 "hits=%llu misses=%llu",
                                 dt.name.c_str(), ull(dt.hits), ull(dt.misses),
                                 ull(gt.hits), ull(gt.misses)),
                    0};
        }
    }
    throw std::logic_error("diff_runs: unknown check");
}

}  // namespace

std::optional<RawDivergence> diff_runs(const DeviceRun& dut,
                                       const DeviceRun& ref) {
    const std::optional<RunDifference> diff = first_difference(dut, ref);
    if (!diff) return std::nullopt;
    return describe(*diff, dut, ref);
}

void execute_scenario(WorkerContext& ctx, const Scenario& sc,
                      const std::vector<BackendSpec>& duts,
                      const ExecOptions& options, ScenarioOutcome& outcome,
                      const std::string& recipe) {
    const std::uint64_t obs_t0 =
        (obs::metrics_on() || obs::trace_on()) ? obs::now_ns() : 0;
    scenario_packets(sc, ctx.stimulus);
    const std::vector<packet::Packet>& packets = ctx.stimulus;

    // Guided mode: each detection run streams its execution edges into the
    // worker's map (the setting survives the load() inside
    // run_scenario_on), and the outcome's slot lists are refilled with the
    // lit slots, keeping their capacity.  Triage replays below run with
    // coverage off again -- they revisit the same behaviour and would only
    // re-count edges.
    const auto record_coverage = [&](target::Device& dev) {
        ctx.coverage.clear();
        dev.set_coverage(&ctx.coverage);
    };
    const auto take_coverage = [&](target::Device& dev,
                                   std::vector<coverage::SlotHits>& out) {
        dev.set_coverage(nullptr);
        ctx.coverage.take_hits_into(out);
    };
    if (options.coverage) {
        record_coverage(*ctx.reference);
        outcome.dut_coverage.resize(duts.size());
    }
    const DeviceRun& ref_run = ctx.reference_run;
    run_scenario_on(*ctx.reference, sc, packets, options.batch_size, ctx.reference_run);
    if (options.coverage) take_coverage(*ctx.reference, outcome.coverage);
    outcome.packets += ref_run.injected;

    for (std::size_t d = 0; d < duts.size(); ++d) {
        target::Device& dut = *ctx.duts[d];
        // The DUT's management link: the base plan with a per-(scenario,
        // DUT) derived schedule seed.  Triage replays below reuse the same
        // link, so they see the identical fault schedule the detection run
        // did -- the divergence reproduces, deterministically.
        control::FaultPlan plan = options.mgmt_plan;
        const control::FaultPlan* mgmt = nullptr;
        if (plan.enabled()) {
            plan.seed = derive_mgmt_seed(options.mgmt_plan, sc, d);
            mgmt = &plan;
        }
        // The DUT's detection run records the same way (backend-salted
        // inside the device); triage replays below run with coverage
        // detached, like the reference's.
        if (options.coverage) record_coverage(dut);
        const DeviceRun& dut_run = ctx.dut_run;
        run_scenario_on(dut, sc, packets, options.batch_size, ctx.dut_run, mgmt,
                        &outcome.mgmt);
        if (options.coverage) take_coverage(dut, outcome.dut_coverage[d]);
        outcome.packets += dut_run.injected;

        auto raw = diff_runs(dut_run, ref_run);
        if (!raw) continue;

        DivergenceRecord rec;
        rec.seed = sc.seed;
        rec.recipe = recipe;
        rec.backend = duts[d].label;
        rec.program = sc.program;
        rec.quirk_signature = dut.quirk_signature();
        rec.kind = std::move(raw->kind);
        rec.detail = std::move(raw->detail);
        rec.first_diverging_packet = raw->first_diverging_packet;

        // Triage replays refill the context's two replay runs.
        DeviceRun& r = ctx.reference_replay;
        DeviceRun& u = ctx.dut_replay;

        // Minimize: the shortest stimulus prefix that still diverges.
        if (options.minimize) {
            for (std::size_t k = 1; k <= packets.size(); ++k) {
                const std::span<const packet::Packet> prefix =
                    std::span(packets).first(k);
                run_scenario_on(*ctx.reference, sc, prefix, options.batch_size, r);
                run_scenario_on(dut, sc, prefix, options.batch_size, u, mgmt,
                                &outcome.mgmt);
                outcome.packets += r.injected + u.injected;
                if (first_difference(u, r)) {
                    rec.minimized_count = k;
                    rec.minimized_reproduces = true;
                    break;
                }
            }
        }

        // Localize: replay the warm-up, then trace the minimized trigger.
        const std::uint64_t trigger =
            rec.minimized_count ? rec.minimized_count : packets.size();
        if (options.localize && trigger > 0) {
            const std::span<const packet::Packet> warmup =
                std::span(packets).first(trigger - 1);
            run_scenario_on(*ctx.reference, sc, warmup, options.batch_size, r);
            run_scenario_on(dut, sc, warmup, options.batch_size, u, mgmt,
                            &outcome.mgmt);
            outcome.packets += r.injected + u.injected;
            FaultLocalizer localizer(dut, *ctx.reference);
            rec.localized = localizer.localize(packets[trigger - 1]);
            outcome.packets += rec.localized.packets_replayed;
        }

        const std::string_view stage =
            rec.localized.diverged
                ? dataplane::stage_name(rec.localized.stage)
                : (rec.kind == "config"  ? "control"
                   : rec.kind == "mgmt"  ? "mgmt"
                   : rec.kind == "state" ? "state"
                                         : "unlocalized");
        rec.fingerprint.reserve(rec.backend.size() + rec.quirk_signature.size() +
                                stage.size() + 2);
        rec.fingerprint.append(rec.backend)
            .append(1, '|')
            .append(rec.quirk_signature)
            .append(1, '|')
            .append(stage);
        outcome.findings.push_back(std::move(rec));
    }

    // Telemetry: scenario counters are exact (divergences counted here, once
    // per raw finding; fold() only traces the post-dedup fresh ones).
    if (obs::metrics_on()) {
        obs::count(obs::Counter::scenarios);
        obs::count(obs::Counter::divergences, outcome.findings.size());
        obs::record(obs::Hist::scenario_ns, obs::now_ns() - obs_t0);
    }
    if (obs::trace_on()) {
        obs::trace_complete("scenario", obs_t0, obs::now_ns() - obs_t0, "seed",
                            sc.seed, "findings", outcome.findings.size());
    }
}

bool ReportBuilder::fold(ScenarioOutcome& outcome) {
    // Merge in scenario order so the report never depends on scheduling;
    // dedup keeps the first finding per fingerprint and counts the rest.
    ++merge_ordinal_;
    report_->packets_injected += outcome.packets;
    report_->mgmt.add(outcome.mgmt);
    bool fresh = false;
    for (auto& rec : outcome.findings) {
        ++report_->findings_total;
        const auto it = seen_.find(rec.fingerprint);
        if (it == seen_.end()) {
            rec.discovered_at = merge_ordinal_;
            if (obs::trace_on()) {
                obs::trace_instant("divergence", "seed", rec.seed, "ordinal",
                                   merge_ordinal_);
            }
            seen_.emplace(rec.fingerprint, report_->divergences.size());
            report_->divergences.push_back(std::move(rec));
            fresh = true;
        } else {
            ++report_->divergences[it->second].duplicates;
        }
    }
    return fresh;
}

}  // namespace ndb::core
