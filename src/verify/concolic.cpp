#include "verify/concolic.h"

#include <algorithm>
#include <utility>

#include "packet/packet.h"
#include "packet/protocols.h"
#include "target/device.h"
#include "util/strings.h"
#include "verify/solver.h"

namespace ndb::verify {

using coverage::EdgeSite;
using coverage::Site;
using p4::ir::kAccept;
using p4::ir::kReject;

ConcolicSynthesizer::ConcolicSynthesizer(const p4::ir::Program& prog,
                                         ConcolicOptions options)
    : prog_(prog), options_(options) {}

void ConcolicSynthesizer::ensure_explored() {
    if (explored_) return;
    explored_ = true;
    SymExecOptions opts;
    opts.max_paths = options_.max_paths;
    // Invalid-read tracking only produces warnings; skip the bookkeeping.
    opts.track_invalid_reads = false;
    SymExec exec(prog_, pool_, opts);
    SymExecResult result = exec.explore();
    paths_ = std::move(result.paths);
    paths_exhausted_ = result.paths_exhausted;
}

std::vector<const SymPath*> ConcolicSynthesizer::candidates(
    const EdgeSite& site) const {
    std::vector<const SymPath*> out;
    for (const auto& path : paths_) {
        bool match = false;
        switch (site.kind) {
            case Site::parser_edge: {
                const std::pair<int, int> edge{static_cast<int>(site.a),
                                               static_cast<int>(site.b)};
                match = std::find(path.parser_edges.begin(),
                                  path.parser_edges.end(),
                                  edge) != path.parser_edges.end();
                break;
            }
            case Site::parser_finish:
                match = path.final_parser_state == static_cast<int>(site.a);
                break;
            case Site::table:
                // Only the miss side: without installed entries every apply
                // misses concretely, so any path applying the table works.
                match = site.b == 0 &&
                        std::any_of(path.table_choices.begin(),
                                    path.table_choices.end(), [&](const auto& tc) {
                                        return tc.first == static_cast<int>(site.a);
                                    });
                break;
            case Site::action:
                match = std::find(path.actions_run.begin(), path.actions_run.end(),
                                  static_cast<int>(site.a)) !=
                        path.actions_run.end();
                break;
            case Site::branch:
                match = std::any_of(
                    path.branches.begin(), path.branches.end(),
                    [&site](const std::pair<const p4::ir::Stmt*, bool>& b) {
                        return b.first->branch == static_cast<std::uint64_t>(site.a) &&
                               b.second == (site.b != 0);
                    });
                break;
        }
        if (match) out.push_back(&path);
    }
    return out;
}

TargetStatus ConcolicSynthesizer::solve_path(const SymPath& path,
                                             ConcolicRecipe& seed,
                                             std::string& detail) {
    // Packet geometry first: the length constraint must name the exact size
    // of the packet we will emit, or length-sensitive paths drift.  The
    // generator's trailing stamp stays out of the parsed bytes, and a packet
    // is never shorter than the generator makes one.
    int parsed_bits = 0;
    for (const auto& chunk : path.wire) parsed_bits += chunk.bits;
    const std::size_t parsed_bytes = static_cast<std::size_t>(parsed_bits + 7) / 8;
    const std::size_t length =
        std::max(parsed_bytes + packet::kStampBytes, packet::kMinStampedBytes);

    Solver solver;
    solver.add(path.condition);
    // Pin the execution environment to what target::Device + the generator
    // actually present: otherwise the model picks, say, port 300, and the
    // synthesized seed dies in injection instead of lighting its edge.  A
    // seed is one packet on a reference device's ports, stamped at the
    // stream epoch (std.timestamp counts microseconds).
    const SExpr port = pool_.get("std.ingress_port", 9);
    solver.add(sv_ult(port, sv_const_u(9, static_cast<std::uint64_t>(
                                              target::DeviceConfig{}.num_ports))));
    solver.add(sv_eq(pool_.get("std.packet_length", 32), sv_const_u(32, length)));
    solver.add(sv_eq(pool_.get("std.timestamp", 48),
                     sv_const_u(48, target::kClockEpochNs / 1000)));
    // Device state at scenario start: registers zeroed, meters unconfigured
    // (= everything green, color 0).  Hash outputs stay free -- they cannot
    // be steered, so hash-dependent seeds may fail the caller's relight
    // check and be discarded there.
    const auto& vars = pool_.vars();
    for (std::size_t id = 0; id < vars.size(); ++id) {
        const auto& [name, width] = vars[id];
        if (util::starts_with(name, "reg#") || util::starts_with(name, "meter#")) {
            solver.add(sv_eq(sv_var(static_cast<int>(id), width, name),
                             sv_const(Bitvec(width))));
        }
    }

    const SatResult verdict = solver.check(options_.max_conflicts);
    if (verdict == SatResult::unsat) {
        detail = "candidate path unsat under concrete environment";
        return TargetStatus::unsat;
    }
    if (verdict == SatResult::unknown) {
        detail = util::format("SAT conflict budget (%llu) exhausted",
                              static_cast<unsigned long long>(
                                  options_.max_conflicts));
        return TargetStatus::unknown;
    }

    // Decode the wire: walk the chunks the parser consumed, depositing each
    // extracted field's model value at its offset (MSB-first, the wire order
    // ParserEngine::run copies headers in).  Advanced-over and padding bytes
    // stay zero -- unconstrained variables read back as zero from the
    // blaster, so the two agree.
    packet::Packet pkt = packet::Packet::zeros(length);
    std::size_t cursor = 0;
    for (const auto& chunk : path.wire) {
        if (chunk.header < 0) {
            cursor += static_cast<std::size_t>(chunk.bits);
            continue;
        }
        const auto& hdr = prog_.headers[static_cast<std::size_t>(chunk.header)];
        for (const auto& field : hdr.fields) {
            const Bitvec value =
                solver.eval(pool_.get(hdr.name + "." + field.name, field.width));
            pkt.deposit_bits(cursor + static_cast<std::size_t>(field.offset),
                             value);
        }
        cursor += static_cast<std::size_t>(hdr.size_bits);
    }
    seed.packet.assign(pkt.data().begin(), pkt.data().end());
    seed.ingress_port =
        static_cast<std::uint32_t>(solver.eval(port).to_u64());

    // Steer every applied table to the path's chosen action via its default
    // (no entries installed => every lookup misses => default runs).
    seed.defaults.clear();
    for (std::size_t i = 0; i < path.table_choices.size(); ++i) {
        const auto& [table_id, action_id] = path.table_choices[i];
        const auto& table = prog_.tables[static_cast<std::size_t>(table_id)];
        const auto& action = prog_.actions[static_cast<std::size_t>(action_id)];
        ConcolicRecipe::Default def;
        def.table = table.name;
        def.action = action.name;
        for (const SExpr& arg : path.table_args[i]) {
            def.args.push_back(solver.eval(arg).to_bytes());
        }
        const auto prev = std::find_if(
            seed.defaults.begin(), seed.defaults.end(),
            [&](const auto& d) { return d.table == def.table; });
        if (prev == seed.defaults.end()) {
            seed.defaults.push_back(std::move(def));
            continue;
        }
        if (prev->action != def.action || prev->args != def.args) {
            // The path applies one table twice with diverging choices; a
            // single default cannot realize it.
            detail = util::format("conflicting defaults for table %s",
                                  table.name.c_str());
            return TargetStatus::no_path;
        }
    }
    detail = util::format("%s path, %zu wire bytes, %zu defaults",
                          path_end_name(path.end), length,
                          seed.defaults.size());
    return TargetStatus::solved;
}

ConcolicResult ConcolicSynthesizer::synthesize(
    const std::vector<EdgeSite>& targets) {
    ensure_explored();
    ConcolicResult result;
    result.paths_exhausted = paths_exhausted_;
    for (const EdgeSite& site : targets) {
        TargetOutcome outcome;
        outcome.site = site;
        if (site.kind == Site::table && site.b != 0) {
            outcome.status = TargetStatus::no_path;
            outcome.detail = "table hit needs an installed entry; not synthesized";
            result.outcomes.push_back(std::move(outcome));
            continue;
        }
        const auto paths = candidates(site);
        bool saw_unknown = false;
        bool saw_unsat = false;
        std::string last_detail;
        const int attempts = std::min<int>(options_.max_attempts_per_site,
                                           static_cast<int>(paths.size()));
        for (int i = 0; i < attempts; ++i) {
            ConcolicRecipe seed;
            seed.program = prog_.name;
            seed.slot = site.slot;
            std::string detail;
            const TargetStatus status = solve_path(*paths[static_cast<std::size_t>(i)],
                                                   seed, detail);
            if (status == TargetStatus::solved) {
                outcome.status = TargetStatus::solved;
                outcome.detail = std::move(detail);
                result.seeds.push_back(std::move(seed));
                break;
            }
            saw_unknown = saw_unknown || status == TargetStatus::unknown;
            saw_unsat = saw_unsat || status == TargetStatus::unsat;
            last_detail = std::move(detail);
        }
        if (outcome.status != TargetStatus::solved) {
            if (saw_unknown) {
                outcome.status = TargetStatus::unknown;
            } else if (saw_unsat) {
                outcome.status = TargetStatus::unsat;
            } else {
                outcome.status = TargetStatus::no_path;
                last_detail = paths.empty()
                                  ? (paths_exhausted_
                                         ? "no covering path (exploration "
                                           "truncated at max_paths)"
                                         : "no covering path")
                                  : last_detail;
            }
            outcome.detail = std::move(last_detail);
        }
        result.outcomes.push_back(std::move(outcome));
    }
    return result;
}

}  // namespace ndb::verify
