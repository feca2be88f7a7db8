#include "core/fabric.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "control/transport.h"
#include "control/wire.h"
#include "core/scenario_exec.h"
#include "obs/telemetry.h"
#include "util/strings.h"

namespace ndb::core {
namespace {

namespace wire = control::wire;
using Clock = std::chrono::steady_clock;

// The parent heartbeats every worker at this cadence.
constexpr std::chrono::milliseconds kHeartbeatInterval{50};
// A worker with a shard in flight and no frame for this long is declared
// hung, SIGKILLed and replaced.  Must exceed the worst-case shard execution
// time.
constexpr std::chrono::milliseconds kHeartbeatTimeout{10'000};
// A worker that answers heartbeats *after* its job was sent but returns no
// result is idle -- the job or result frame was lost on a faulty link; the
// job is retransmitted at this cadence.
constexpr std::chrono::milliseconds kJobResend{200};
// A worker slot that keeps dying past this many respawns aborts the
// campaign (it is failing deterministically, not crashing by injection).
constexpr int kMaxRestartsPerWorker = 3;

// --- shard message field lists -----------------------------------------------
//
// One function per message, fields in wire order (see "payload primitives"
// in control/wire.h).

template <class IO>
void fields(IO& io, wire::Fields<IO, LocalizeResult>& l) {
    io.flag(l.diverged);
    io.tag(l.stage, dataplane::Stage::egress, "stage");
    io.str(l.description);
    io.i32(l.probes);
    io.u64(l.packets_replayed);
    io.flag(l.conclusive);
}

template <class IO>
void fields(IO& io, wire::Fields<IO, DivergenceRecord>& rec) {
    io.u64(rec.seed);
    io.str(rec.backend);
    io.str(rec.program);
    io.str(rec.quirk_signature);
    io.str(rec.kind);
    io.str(rec.detail);
    io.u64(rec.first_diverging_packet);
    io.u64(rec.minimized_count);
    io.flag(rec.minimized_reproduces);
    fields(io, rec.localized);
    io.str(rec.recipe);
    io.str(rec.fingerprint);
}

template <class IO>
void fields(IO& io, wire::Fields<IO, ScenarioOutcome>& o) {
    io.u64(o.packets);
    io.u64(o.mgmt.requests);
    io.u64(o.mgmt.frames_sent);
    io.u64(o.mgmt.retries);
    io.u64(o.mgmt.timeouts);
    io.u64(o.mgmt.decode_errors);
    io.u64(o.mgmt.faults_injected);
    io.u64(o.mgmt.dedup_hits);
    io.seq(o.findings, [&](auto& rec) { fields(io, rec); });
}

template <class IO>
void fields(IO& io, wire::Fields<IO, ShardJob>& job) {
    io.u64(job.start);
    io.u32(job.count);
}

template <class IO>
void fields(IO& io, wire::Fields<IO, ShardResult>& result) {
    io.u64(result.shard_id);
    io.u64(result.link_faults);
    io.seq(result.outcomes, [&](auto& o) { fields(io, o); });
}

// --- worker process -----------------------------------------------------------

// Event loop of one forked worker: answer heartbeats, execute job shards
// through the shared execute_scenario() core, stream results back.  The
// sweep and its run order are the parent's, inherited through fork(); a
// job's start and count name positions in `order`.  Exits via _Exit (never
// returns into the parent's stack): the forked child must not run the
// parent's atexit/static-destructor chain.
[[noreturn]] void worker_main(int fd, const FabricConfig& cfg,
                              const SweepSetup& sweep,
                              const std::vector<std::uint64_t>& order,
                              const control::FaultPlan& link_plan,
                              std::uint64_t link_salt) {
    try {
        // Telemetry enable flags and the trace epoch were inherited across
        // the fork; zero the inherited samples so this worker's deltas
        // cover only what it records itself.
        if (obs::Telemetry::any_enabled()) obs::Telemetry::reset();
        control::FdTransport transport(fd, link_plan, link_salt);
        std::unique_ptr<WorkerContext> ctx;
        // Link faults already reported to the parent (each result frame
        // carries the delta, so the parent can aggregate link faults it
        // never directly observed).
        std::uint64_t faults_reported = 0;

        for (;;) {
            transport.tick();  // sends what is due, then a ~1ms poll
            if (!transport.alive()) std::_Exit(0);  // parent is gone

            wire::Frame frame;
            while (transport.next(frame)) {
                switch (frame.kind) {
                    case wire::FrameKind::heartbeat: {
                        // The ack doubles as the telemetry ship: its payload
                        // is the delta since the last ack (empty payload =
                        // nothing new).  It rides the faulted link, so a
                        // dropped ack loses that delta -- acceptable for
                        // observe-only cargo.
                        wire::Frame ack;
                        ack.kind = wire::FrameKind::heartbeat_ack;
                        ack.seq = frame.seq;
                        if (obs::Telemetry::any_enabled()) {
                            const obs::TelemetryDelta delta =
                                obs::Telemetry::take_delta();
                            if (!delta.empty()) {
                                ack.payload = wire::encode_telemetry_delta(delta);
                            }
                        }
                        transport.send(ack);
                        break;
                    }
                    case wire::FrameKind::shutdown:
                        // Frames this batch queued go out, then the last
                        // telemetry delta: like the shutdown frame itself,
                        // teardown housekeeping bypasses fault injection.
                        transport.flush();
                        if (obs::Telemetry::any_enabled()) {
                            const obs::TelemetryDelta delta =
                                obs::Telemetry::take_delta();
                            if (!delta.empty()) {
                                transport.send_unfaulted(
                                    {wire::FrameKind::heartbeat_ack, frame.seq,
                                     wire::encode_telemetry_delta(delta)});
                            }
                        }
                        std::_Exit(0);
                    case wire::FrameKind::job: {
                        // A malformed job is dropped; the parent's
                        // retransmit path recovers it.
                        ShardJob job;
                        if (!decode_shard_job(frame.payload, job) ||
                            job.start > order.size() ||
                            job.count > order.size() - job.start) {
                            break;
                        }
                        if (!ctx) {
                            ctx = std::make_unique<WorkerContext>(
                                cfg.campaign.reference_backend, sweep.duts);
                        }
                        ShardResult result;
                        result.shard_id = frame.seq;
                        result.link_faults = transport.link().faults() - faults_reported;
                        faults_reported = transport.link().faults();
                        result.outcomes.resize(job.count);
                        for (std::uint32_t k = 0; k < job.count; ++k) {
                            const Scenario sc = sweep.gen.make(
                                cfg.campaign.base_seed + order[job.start + k]);
                            execute_scenario(*ctx, sc, sweep.duts, sweep.exec,
                                             result.outcomes[k], std::string());
                        }
                        transport.send({wire::FrameKind::job_result, frame.seq,
                                        encode_shard_result(result)});
                        break;
                    }
                    default:
                        break;  // not worker-bound traffic; ignore
                }
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ndb fabric worker: %s\n", e.what());
        std::_Exit(2);
    } catch (...) {
        std::_Exit(2);
    }
}

// --- parent-side bookkeeping --------------------------------------------------

struct Shard {
    std::uint64_t id = 0;  // ordinal; doubles as the job frame seq
    ShardJob job;
};

struct WorkerSlot {
    pid_t pid = -1;
    std::unique_ptr<control::FdTransport> transport;
    std::optional<Shard> inflight;
    Clock::time_point job_sent{};
    Clock::time_point last_frame{};  // any well-formed frame received
    Clock::time_point last_ack{};    // heartbeat_ack specifically
    Clock::time_point last_hb{};     // heartbeat emitted
    int restarts = 0;                // respawn generation
};

}  // namespace

std::vector<std::uint8_t> encode_shard_job(const ShardJob& job) {
    wire::Writer w;
    fields(w, job);
    return w.take();
}

wire::Decode decode_shard_job(std::span<const std::uint8_t> payload, ShardJob& out) {
    wire::Reader r(payload);
    fields(r, out);
    return r.finish("shard job");
}

std::vector<std::uint8_t> encode_shard_result(const ShardResult& result) {
    wire::Writer w;
    fields(w, result);
    return w.take();
}

wire::Decode decode_shard_result(std::span<const std::uint8_t> payload,
                                 ShardResult& out) {
    wire::Reader r(payload);
    fields(r, out);
    return r.finish("shard result");
}

FabricEngine::FabricEngine(FabricConfig config)
    : config_(std::move(config)) {}

CampaignReport FabricEngine::run() {
    const CampaignConfig& cc = config_.campaign;

    if (config_.workers < 1 || config_.workers > 64) {
        throw std::invalid_argument("fabric: workers must be in [1, 64]");
    }
    if (config_.shard_size < 1 ||
        config_.shard_size > wire::kMaxSequenceItems) {
        throw std::invalid_argument(util::format(
            "fabric: shard size must be in [1, %zu]", wire::kMaxSequenceItems));
    }
    // Parsed up front, before any fork: a malformed spec must be a clean
    // invalid_argument, not a worker crash loop.
    const control::FaultPlan link_plan =
        control::FaultPlan::parse(config_.link_fault_plan);
    SweepSetup sweep = prepare_sweep(cc);
    if (sweep.mode != SweepMode::uniform) {
        throw std::invalid_argument(
            "fabric: only the uniform sweep shards across processes "
            "(coverage/mutation/concolic modes keep their feedback loops at "
            "round barriers inside one process)");
    }
    CampaignReport& report = sweep.report;
    report.fabric_enabled = true;
    report.fabric.workers = static_cast<std::uint64_t>(config_.workers);
    if (obs::metrics_on()) {
        obs::Metrics::instance().gauge_set(obs::Gauge::fabric_workers,
                                           config_.workers);
    }

    // The shard plan: fixed up front, so a shard id names the same scenarios
    // no matter which worker (or respawn generation) runs it.  Shards cut
    // the sweep's program-grouped run order (the one CampaignEngine runs),
    // so each worker meets the programs in order and its devices build
    // each image once; outcomes land at their seed's index.
    const std::vector<std::uint64_t> order =
        sweep.gen.program_grouped_order(cc.base_seed, cc.scenarios);
    std::deque<Shard> pending;
    const std::uint64_t total_shards =
        (cc.scenarios + config_.shard_size - 1) / config_.shard_size;
    for (std::uint64_t sid = 0; sid < total_shards; ++sid) {
        const std::uint64_t start = sid * config_.shard_size;
        pending.push_back(
            {sid, {start, static_cast<std::uint32_t>(std::min<std::uint64_t>(
                              config_.shard_size, cc.scenarios - start))}});
    }
    std::vector<std::unique_ptr<ScenarioOutcome>> outcomes(cc.scenarios);
    std::vector<bool> shard_done(total_shards, false);
    std::uint64_t shards_left = total_shards;
    std::uint64_t results_received = 0;
    std::uint64_t hb_seq = 0;
    bool kill_fired = false;

    std::vector<WorkerSlot> slots(static_cast<std::size_t>(config_.workers));

    // Link-layer accounting survives a slot's respawn by folding the dying
    // incarnation's link end into the report first.
    const auto retire_link = [&](WorkerSlot& s) {
        const control::FrameLink& link = s.transport->link();
        report.fabric.link_frames += link.received().frames;
        report.fabric.link_corrupt += link.received().corrupt_frames;
        report.fabric.link_faults += link.faults();
    };
    // Salted by end, slot and respawn generation: a respawned worker must
    // not replay its predecessor's exact fault schedule, or a
    // deterministically-dropped result frame could live-lock the shard into
    // the restart cap.
    const auto link_salt = [&](const char* end, std::size_t slot_index) {
        return util::fnv1a_64(end) ^ (slot_index + 1) * 0x9e3779b97f4a7c15ull ^
               static_cast<std::uint64_t>(slots[slot_index].restarts) *
                   0xc2b2ae3d27d4eb4full;
    };

    const auto spawn = [&](std::size_t slot_index) {
        int sv[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
            throw std::runtime_error("fabric: socketpair failed");
        }
        const pid_t pid = ::fork();
        if (pid < 0) {
            ::close(sv[0]);
            ::close(sv[1]);
            throw std::runtime_error("fabric: fork failed");
        }
        WorkerSlot& s = slots[slot_index];
        if (pid == 0) {
            // Child: drop every parent-side fd, ours included -- a sibling
            // holding a dead worker's socket open would mask its death.
            ::close(sv[0]);
            for (auto& other : slots) {
                if (other.transport) other.transport->close();
            }
            worker_main(sv[1], config_, sweep, order, link_plan,
                        link_salt("ndb.fabric.worker", slot_index));
        }
        ::close(sv[1]);
        if (obs::metrics_on()) obs::count(obs::Counter::worker_spawns);
        if (obs::trace_on()) {
            obs::trace_instant(s.restarts > 0 ? "worker_respawn" : "worker_spawn",
                               "slot", slot_index,
                               "pid", static_cast<std::uint64_t>(pid));
        }
        s.pid = pid;
        s.transport = std::make_unique<control::FdTransport>(
            sv[0], link_plan, link_salt("ndb.fabric.parent", slot_index));
        s.inflight.reset();
        const auto now = Clock::now();
        s.job_sent = s.last_frame = s.last_ack = s.last_hb = now;
    };

    // Heartbeat acks carry the worker's telemetry delta as payload; fold it
    // into the parent's imported accumulators (a bad payload is dropped
    // whole -- telemetry never poisons the run).
    const auto import_telemetry = [](const wire::Frame& frame) {
        if (frame.payload.empty() || !obs::Telemetry::any_enabled()) return;
        obs::TelemetryDelta delta;
        if (wire::decode_telemetry_delta(frame.payload, delta)) {
            obs::Telemetry::import_delta(std::move(delta));
        }
    };
    const auto send_job = [&](WorkerSlot& s) {
        s.transport->send({wire::FrameKind::job, s.inflight->id,
                           encode_shard_job(s.inflight->job)});
        s.job_sent = Clock::now();
    };

    const auto handle_result = [&](WorkerSlot& s, const wire::Frame& frame) {
        // The whole payload decodes before anything commits: a result that
        // is refused, names no shard or holds the wrong number of outcomes
        // is treated as lost, never half-applied.
        ShardResult result;
        if (!decode_shard_result(frame.payload, result) ||
            result.shard_id >= total_shards) {
            return;
        }
        const std::uint64_t start = result.shard_id * config_.shard_size;
        if (result.outcomes.size() !=
            std::min<std::uint64_t>(config_.shard_size, cc.scenarios - start)) {
            return;
        }

        report.fabric.link_faults += result.link_faults;
        ++results_received;
        if (s.inflight && s.inflight->id == result.shard_id) s.inflight.reset();
        // A retransmitted job or a re-dispatched shard can complete twice;
        // first result wins, duplicates are dropped whole.
        if (shard_done[result.shard_id]) return;
        shard_done[result.shard_id] = true;
        --shards_left;
        for (std::size_t k = 0; k < result.outcomes.size(); ++k) {
            outcomes[order[start + k]] =
                std::make_unique<ScenarioOutcome>(std::move(result.outcomes[k]));
        }
    };

    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < slots.size(); ++i) spawn(i);

    while (shards_left > 0) {
        const auto now = Clock::now();
        for (auto& s : slots) {
            if (!s.inflight && !pending.empty()) {
                s.inflight = pending.front();
                pending.pop_front();
                send_job(s);
            }
            if (now - s.last_hb >= kHeartbeatInterval) {
                s.transport->send({wire::FrameKind::heartbeat, ++hb_seq, {}});
                s.last_hb = now;
            }
            // The worker answered a heartbeat sent after its job went out,
            // yet no result: it is alive and idle, so the job or the result
            // frame died on the link -- retransmit (execution is safe to
            // repeat; shard dedup keeps the first result).
            if (s.inflight && s.last_ack > s.job_sent &&
                now - s.job_sent >= kJobResend) {
                ++report.fabric.jobs_resent;
                send_job(s);
            }
            // Send what is due, then collect inbound traffic.
            s.transport->tick();
            wire::Frame frame;
            while (s.transport->next(frame)) {
                s.last_frame = now;
                if (frame.kind == wire::FrameKind::heartbeat_ack) {
                    s.last_ack = now;
                    import_telemetry(frame);
                } else if (frame.kind == wire::FrameKind::job_result) {
                    handle_result(s, frame);
                }
            }
        }

        if (!kill_fired && config_.kill_worker_after_results >= 0 &&
            results_received >=
                static_cast<std::uint64_t>(config_.kill_worker_after_results)) {
            kill_fired = true;
            if (slots[0].pid > 0) ::kill(slots[0].pid, SIGKILL);
        }

        // Watchdog: a slot is dead when its process was reaped, its stream
        // closed, or it sat silent past the heartbeat timeout with a shard
        // in flight (hung).  Death costs a respawn and a shard re-dispatch,
        // never a lost scenario.
        for (std::size_t i = 0; i < slots.size(); ++i) {
            WorkerSlot& s = slots[i];
            bool dead = false;
            if (s.pid > 0 && ::waitpid(s.pid, nullptr, WNOHANG) == s.pid) {
                s.pid = -1;
                dead = true;
            }
            if (!dead && !s.transport->alive()) dead = true;
            if (!dead && s.inflight && now - s.last_frame > kHeartbeatTimeout) {
                dead = true;
            }
            if (!dead) continue;
            if (s.pid > 0) {
                ::kill(s.pid, SIGKILL);
                ::waitpid(s.pid, nullptr, 0);
                s.pid = -1;
            }
            retire_link(s);
            ++report.fabric.worker_restarts;
            if (obs::metrics_on()) obs::count(obs::Counter::worker_restarts);
            if (obs::trace_on()) {
                obs::trace_instant("worker_kill", "slot", i, "restarts",
                                   static_cast<std::uint64_t>(s.restarts));
            }
            if (s.inflight) {
                pending.push_front(*s.inflight);
                s.inflight.reset();
                ++report.fabric.shards_redispatched;
            }
            if (++s.restarts > kMaxRestartsPerWorker) {
                throw std::runtime_error(util::format(
                    "fabric: worker slot %zu died %d times; a worker that "
                    "keeps dying is failing deterministically, not crashing "
                    "by injection",
                    i, s.restarts));
            }
            spawn(i);
        }
    }

    // Orderly teardown: shutdown frames bypass the fault plan (this is
    // housekeeping, not the experiment), stragglers get SIGKILL.
    for (auto& s : slots) {
        if (s.pid > 0) s.transport->send_unfaulted({wire::FrameKind::shutdown, 0, {}});
    }
    // Each worker's final telemetry delta lands on its link right before
    // exit; pump the transport while waiting to reap (no-op when telemetry
    // is off, so the untelemetered teardown is unchanged).
    const auto drain_telemetry = [&](WorkerSlot& s) {
        if (!s.transport || !obs::Telemetry::any_enabled()) return;
        s.transport->tick();
        wire::Frame frame;
        while (s.transport->next(frame)) {
            if (frame.kind == wire::FrameKind::heartbeat_ack) {
                import_telemetry(frame);
            }
        }
    };
    for (auto& s : slots) {
        if (s.pid > 0) {
            bool reaped = false;
            for (int i = 0; i < 250 && !reaped; ++i) {
                drain_telemetry(s);
                if (::waitpid(s.pid, nullptr, WNOHANG) == s.pid) {
                    reaped = true;
                } else {
                    std::this_thread::sleep_for(std::chrono::milliseconds(2));
                }
            }
            if (!reaped) {
                ::kill(s.pid, SIGKILL);
                ::waitpid(s.pid, nullptr, 0);
            }
            s.pid = -1;
        }
        drain_telemetry(s);
        retire_link(s);
        s.transport.reset();
    }

    // Fold in scenario-index order -- the exact order the single-process
    // uniform sweep folds -- so the report comes out byte-identical.
    ReportBuilder builder(report);
    for (std::uint64_t i = 0; i < cc.scenarios; ++i) {
        if (!outcomes[i]) {
            throw std::runtime_error(
                util::format("fabric: scenario %llu completed no outcome",
                             static_cast<unsigned long long>(i)));
        }
        builder.fold(*outcomes[i]);
    }

    stats_ = sweep_stats(report, t0);
    return std::move(report);
}

}  // namespace ndb::core
