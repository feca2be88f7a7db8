#include "core/scenario_exec.h"

#include <algorithm>
#include <stdexcept>

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
std::uint64_t derive_mgmt_seed(const MgmtLink& base, const Scenario& sc,
                               std::size_t dut_index) {
    std::uint64_t h = base.plan.seed;
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

std::vector<packet::Packet> scenario_packets(const Scenario& sc) {
    // Build the stream once; every backend sees byte-identical stimuli on
    // an identical timeline.  A spec-level rate stretches the slot so
    // stateful scenarios can straddle aging timeouts within one stream;
    // the integer slot keeps the timeline exactly reproducible.
    const std::uint64_t slot_ns =
        sc.spec.rate_pps > 0
            ? static_cast<std::uint64_t>(1e9 / sc.spec.rate_pps + 0.5)
            : kSlotNs;
    TestPacketGenerator pgen(sc.spec);
    std::vector<packet::Packet> packets;
    packets.reserve(sc.spec.count);
    for (std::uint64_t seq = 1; seq <= sc.spec.count; ++seq) {
        packets.push_back(pgen.make_packet(seq, kEpochNs + (seq - 1) * slot_ns));
    }
    return packets;
}

DeviceRun run_scenario_on(target::Device& dev, const Scenario& sc,
                          std::span<const packet::Packet> packets,
                          std::size_t batch_size, const MgmtLink* mgmt,
                          ChannelAccounting* acct) {
    DeviceRun run;
    // Hands over the scenario's shared image: a device that already holds it
    // (every triage replay after the detection run) resets in place
    // instead of rebuilding its tables and engines.
    if (!dev.load(sc.compiled)) {
        throw std::runtime_error("campaign: device refused catalogue program " +
                                 sc.program);
    }
    run.config_ok.reserve(sc.config.size());
    run.config_wire_fail.reserve(sc.config.size());
    if (mgmt != nullptr && mgmt->enabled) {
        // Deliver the configuration the way the paper's management
        // interface would: serialized frames over a (faultable) link, with
        // the resilient client retrying under its budget.
        control::LoopbackTransport transport(dev);
        transport.set_fault_plan(mgmt->plan);
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
            const control::ChannelStats& cs = channel.stats();
            acct->requests += cs.requests;
            acct->frames_sent += cs.frames_sent;
            acct->retries += cs.retries;
            acct->timeouts += cs.timeouts;
            acct->decode_errors += cs.decode_errors;
            acct->faults_injected += transport.faults_injected();
            acct->dedup_hits += transport.server_stats().dedup_hits;
        }
    } else {
        for (const control::Status& st : dev.apply(sc.config)) {
            run.config_ok.push_back(st.ok);
            run.config_wire_fail.push_back(false);
        }
    }
    // Streaming digest mode: the pipeline hashes each stage's state in
    // place, so detection gets the tap signal without a single PacketState
    // copy (only FaultLocalizer's traced trigger makes stage copies).
    dev.set_digests_enabled(true);
    const std::size_t batch = std::max<std::size_t>(1, batch_size);
    // Sized once for the stream: every packet leaves at most one output,
    // and a drain round sees at most one batch of them.
    run.observed.reserve(packets.size());
    std::vector<packet::Packet> drained;  // reused across every drain round
    drained.reserve(std::min(batch, packets.size()));
    std::size_t i = 0;
    while (i < packets.size()) {
        const std::size_t end = std::min(i + batch, packets.size());
        for (; i < end; ++i) {
            dev.inject(packets[i]);
            ++run.injected;
        }
        // One queue sweep per batch amortizes the drain round-trip.
        for (int p = 0; p < dev.config().num_ports; ++p) {
            drained.clear();
            dev.drain_port_into(static_cast<std::uint32_t>(p), drained);
            for (auto& out : drained) {
                run.observed.emplace_back(static_cast<std::uint32_t>(p),
                                          std::move(out));
            }
        }
    }
    // Collect the digest ring (synchronous recording: one record per
    // injection, unless the stream outran the ring's kMaxDigestRecords).
    std::vector<TapDigest> records = dev.take_digest_records();
    if (records.size() == packets.size()) {
        run.taps = std::move(records);
    }
    dev.set_digests_enabled(false);
    run.snapshot = dev.snapshot();
    return run;
}

std::optional<RawDivergence> diff_runs(const DeviceRun& dut,
                                       const DeviceRun& ref) {
    for (std::size_t i = 0; i < dut.config_ok.size() && i < ref.config_ok.size();
         ++i) {
        if (dut.config_ok[i] != ref.config_ok[i]) {
            // A wire-layer loss on the DUT's (faulted) management channel
            // where the reference's clean channel delivered: the management
            // plane itself diverged, not the device runtime.
            if (i < dut.config_wire_fail.size() && dut.config_wire_fail[i]) {
                return RawDivergence{
                    "mgmt",
                    util::format("config op #%zu lost on the management wire: "
                                 "dut=timed-out golden=%s",
                                 i, ref.config_ok[i] ? "ok" : "rejected"),
                    0};
            }
            return RawDivergence{
                "config",
                util::format("config op #%zu: dut=%s golden=%s", i,
                             dut.config_ok[i] ? "ok" : "rejected",
                             ref.config_ok[i] ? "ok" : "rejected"),
                0};
        }
    }

    // Static table shape is control-plane visible before any packet flows:
    // a clamped capacity or a rejected insert shows up here.
    for (std::size_t i = 0;
         i < dut.snapshot.tables.size() && i < ref.snapshot.tables.size(); ++i) {
        const auto& dt = dut.snapshot.tables[i];
        const auto& gt = ref.snapshot.tables[i];
        if (dt.capacity != gt.capacity || dt.entries != gt.entries) {
            return RawDivergence{
                "config",
                util::format("table %s shape: dut entries=%llu/%llu golden "
                             "entries=%llu/%llu",
                             dt.name.c_str(),
                             static_cast<unsigned long long>(dt.entries),
                             static_cast<unsigned long long>(dt.capacity),
                             static_cast<unsigned long long>(gt.entries),
                             static_cast<unsigned long long>(gt.capacity)),
                0};
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
            return RawDivergence{
                "state",
                util::format("%s %s state hash: dut=%016llx golden=%016llx",
                             de.kind.c_str(), de.name.c_str(),
                             static_cast<unsigned long long>(de.state_hash),
                             static_cast<unsigned long long>(ge.state_hash)),
                0};
        }
        if (de.unconfigured_meters != ge.unconfigured_meters) {
            return RawDivergence{
                "state",
                util::format("meter %s unconfigured cells: dut=%llu golden=%llu",
                             de.name.c_str(),
                             static_cast<unsigned long long>(
                                 de.unconfigured_meters),
                             static_cast<unsigned long long>(
                                 ge.unconfigured_meters)),
                0};
        }
    }

    // Internal visibility next: the taps see divergences (wrong parser
    // verdict, clobbered metadata) that output bytes can hide entirely.
    // Only comparable when both devices recorded the full stream.
    if (!dut.taps.empty() && dut.taps.size() == ref.taps.size()) {
        for (std::size_t i = 0; i < dut.taps.size(); ++i) {
            const TapDigest& d = dut.taps[i];
            const TapDigest& g = ref.taps[i];
            if (d == g) continue;
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
            return RawDivergence{
                "internal",
                util::format("packet #%zu: %s", i + 1, what.c_str()),
                static_cast<std::uint64_t>(i + 1)};
        }
    }

    const std::size_t n = std::min(dut.observed.size(), ref.observed.size());
    for (std::size_t i = 0; i < n; ++i) {
        const StreamItem& d = dut.observed[i];
        const StreamItem& g = ref.observed[i];
        if (d.port != g.port) {
            return RawDivergence{
                "output",
                util::format("output #%zu egress port: dut=%u golden=%u", i,
                             d.port, g.port),
                stamp_seq(g.pkt)};
        }
        if (!d.pkt.same_bytes(g.pkt)) {
            return RawDivergence{
                "output",
                util::format("output #%zu bytes differ on port %u (%zuB vs %zuB)",
                             i, d.port, d.pkt.size(), g.pkt.size()),
                stamp_seq(g.pkt)};
        }
    }
    if (dut.observed.size() != ref.observed.size()) {
        const bool dut_longer = dut.observed.size() > ref.observed.size();
        const StreamItem& extra = dut_longer ? dut.observed[n] : ref.observed[n];
        return RawDivergence{
            "output",
            util::format("output stream length: dut=%zu golden=%zu",
                         dut.observed.size(), ref.observed.size()),
            stamp_seq(extra.pkt)};
    }

    const auto& ds = dut.snapshot.stages;
    const auto& gs = ref.snapshot.stages;
    const struct {
        const char* name;
        std::uint64_t d, g;
    } counters[] = {
        {"parser_in", ds.parser_in, gs.parser_in},
        {"parser_accepted", ds.parser_accepted, gs.parser_accepted},
        {"parser_rejected", ds.parser_rejected, gs.parser_rejected},
        {"parser_errors", ds.parser_errors, gs.parser_errors},
        {"ingress_dropped", ds.ingress_dropped, gs.ingress_dropped},
        {"egress_dropped", ds.egress_dropped, gs.egress_dropped},
        {"forwarded", ds.forwarded, gs.forwarded},
        {"misdirected", dut.snapshot.misdirected, ref.snapshot.misdirected},
    };
    for (const auto& c : counters) {
        if (c.d != c.g) {
            return RawDivergence{
                "snapshot",
                util::format("stage counter %s: dut=%llu golden=%llu", c.name,
                             static_cast<unsigned long long>(c.d),
                             static_cast<unsigned long long>(c.g)),
                0};
        }
    }
    for (std::size_t i = 0;
         i < dut.snapshot.tables.size() && i < ref.snapshot.tables.size(); ++i) {
        const auto& dt = dut.snapshot.tables[i];
        const auto& gt = ref.snapshot.tables[i];
        if (dt.hits != gt.hits || dt.misses != gt.misses) {
            return RawDivergence{
                "snapshot",
                util::format("table %s: dut hits=%llu misses=%llu, golden "
                             "hits=%llu misses=%llu",
                             dt.name.c_str(),
                             static_cast<unsigned long long>(dt.hits),
                             static_cast<unsigned long long>(dt.misses),
                             static_cast<unsigned long long>(gt.hits),
                             static_cast<unsigned long long>(gt.misses)),
                0};
        }
    }
    return std::nullopt;
}

void execute_scenario(WorkerContext& ctx, const Scenario& sc,
                      const std::vector<BackendSpec>& duts,
                      const ExecOptions& options, ScenarioOutcome& outcome,
                      const std::string& recipe) {
    const std::uint64_t obs_t0 =
        (obs::metrics_on() || obs::trace_on()) ? obs::now_ns() : 0;
    const std::vector<packet::Packet> packets = scenario_packets(sc);

    // Guided mode: each detection run streams its execution edges into the
    // worker's map (attached before run_scenario_on so the load() inside
    // re-applies it), and the outcome keeps the lit slots.  Triage replays
    // below run with coverage off again -- they revisit the same behaviour
    // and would only re-count edges.
    const auto record_coverage = [&](target::Device& dev) {
        ctx.coverage.clear();
        dev.set_coverage(&ctx.coverage);
    };
    const auto take_coverage = [&](target::Device& dev) {
        dev.set_coverage(nullptr);
        return ctx.coverage.take_hits();
    };
    if (options.coverage) {
        record_coverage(*ctx.reference);
        outcome.dut_coverage.resize(duts.size());
    }
    const DeviceRun ref_run =
        run_scenario_on(*ctx.reference, sc, packets, options.batch_size);
    if (options.coverage) outcome.coverage = take_coverage(*ctx.reference);
    outcome.packets += ref_run.injected;

    for (std::size_t d = 0; d < duts.size(); ++d) {
        target::Device& dut = *ctx.duts[d];
        // The DUT's management link: the base plan with a per-(scenario,
        // DUT) derived schedule seed.  Triage replays below reuse the same
        // link, so they see the identical fault schedule the detection run
        // did -- the divergence reproduces, deterministically.
        MgmtLink link = options.mgmt;
        const MgmtLink* mgmt = nullptr;
        if (link.enabled) {
            link.plan.seed = derive_mgmt_seed(options.mgmt, sc, d);
            mgmt = &link;
        }
        // The DUT's detection run records the same way (backend-salted
        // inside the device); triage replays below run with coverage
        // detached, like the reference's.
        if (options.coverage) record_coverage(dut);
        const DeviceRun dut_run = run_scenario_on(
            dut, sc, packets, options.batch_size, mgmt, &outcome.mgmt);
        if (options.coverage) outcome.dut_coverage[d] = take_coverage(dut);
        outcome.packets += dut_run.injected;

        const auto raw = diff_runs(dut_run, ref_run);
        if (!raw) continue;

        DivergenceRecord rec;
        rec.seed = sc.seed;
        rec.recipe = recipe;
        rec.backend = duts[d].label;
        rec.program = sc.program;
        rec.quirk_signature = dut.config().quirks.signature();
        rec.kind = raw->kind;
        rec.detail = raw->detail;
        rec.first_diverging_packet = raw->first_diverging_packet;

        // Minimize: the shortest stimulus prefix that still diverges.
        if (options.minimize) {
            for (std::size_t k = 1; k <= packets.size(); ++k) {
                const std::span<const packet::Packet> prefix =
                    std::span(packets).first(k);
                const DeviceRun r = run_scenario_on(*ctx.reference, sc, prefix,
                                                    options.batch_size);
                const DeviceRun u = run_scenario_on(
                    dut, sc, prefix, options.batch_size, mgmt, &outcome.mgmt);
                outcome.packets += r.injected + u.injected;
                if (diff_runs(u, r)) {
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
            const DeviceRun r = run_scenario_on(*ctx.reference, sc, warmup,
                                                options.batch_size);
            const DeviceRun u = run_scenario_on(
                dut, sc, warmup, options.batch_size, mgmt, &outcome.mgmt);
            outcome.packets += r.injected + u.injected;
            FaultLocalizer localizer(dut, *ctx.reference);
            rec.localized = localizer.localize(packets[trigger - 1]);
            outcome.packets += rec.localized.packets_replayed;
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
