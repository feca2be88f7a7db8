#include "target/device.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "util/strings.h"

namespace ndb::target {

using control::Status;
using util::Bitvec;

namespace {
// Egress queues keep at least this much capacity so steady-state batched
// traffic never grows them packet by packet.  It covers run_scenario_on's
// default batch of 8 twice over; a packet keeps its bytes inline, so each
// slot is a whole packet and a deeper reserve makes every device (and so
// every WorkerContext) slower to build.
constexpr std::size_t kEgressQueueReserve = 16;

// Digest ring policy: evict the oldest half in one move when the cap is
// hit, so sustained traffic at the cap stays amortized O(1) per packet.
void push_ring(std::vector<dataplane::TapDigest>& ring,
               const dataplane::TapDigest& record) {
    if (ring.size() >= kMaxDigestRecords) {
        ring.erase(ring.begin(),
                   ring.begin() + static_cast<long>(ring.size() / 2 + 1));
    }
    ring.push_back(record);
}

const char* cell_kind_name(p4::ir::ExternDecl::Kind kind) {
    switch (kind) {
        case p4::ir::ExternDecl::Kind::reg: return "register";
        case p4::ir::ExternDecl::Kind::counter: return "counter";
        case p4::ir::ExternDecl::Kind::meter: return "meter";
    }
    return "extern";
}
}  // namespace

Device::Device(DeviceConfig config) : config_(std::move(config)) {
    config_.num_ports = std::max(config_.num_ports, 1);
    cov_salt_ = util::fnv1a_64(config_.backend) ^
                util::fnv1a_64(config_.quirks.signature());
    clock_ns_ = kClockEpochNs;
    egress_queues_.resize(static_cast<std::size_t>(config_.num_ports));
    for (auto& q : egress_queues_) q.reserve(kEgressQueueReserve);
    port_counters_.resize(static_cast<std::size_t>(config_.num_ports));
}

Status Device::load(std::shared_ptr<const p4::ir::Program> image) {
    if (!image) return Status::failure("load: null program image");
    if (image == prog_) {
        // The image the device was built from: everything derived from it
        // (table layout, extern shapes, pipeline) still holds, so only the
        // dynamic state goes back to its freshly loaded values.
        tables_->reset();
        reset_state();
        return Status::success();
    }
    if (obs::metrics_on()) obs::count(obs::Counter::image_builds);
    // Tear down what references the old image before it can be released.
    pipeline_.reset();
    stateful_.reset();
    tables_.reset();
    prog_ = std::move(image);
    tables_ = std::make_unique<dataplane::TableSet>(
        *prog_, config_.quirks.table_size_clamp,
        config_.quirks.ternary_priority_inverted);
    stateful_ = std::make_unique<dataplane::StatefulSet>(*prog_);
    dataplane::PipelineOptions options;
    options.quirks = config_.quirks;
    options.capture_digests = digests_enabled_;
    pipeline_ = std::make_unique<dataplane::Pipeline>(*prog_, *tables_, *stateful_,
                                                      std::move(options));
    // A new image replaces the pipeline wholesale, so coverage mode must be
    // re-applied here for the setting to survive an image swap.
    pipeline_->set_coverage(coverage_, cov_salt_);
    clear_dynamic_state();
    return Status::success();
}

void Device::set_coverage(coverage::CoverageMap* map) {
    coverage_ = map;
    if (pipeline_) pipeline_->set_coverage(map, cov_salt_);
}

void Device::clear_dynamic_state() {
    for (auto& q : egress_queues_) q.clear();
    std::fill(port_counters_.begin(), port_counters_.end(),
              control::PortCounters{});
    misdirected_ = 0;
    digests_.clear();
}

const p4::ir::Program& Device::program() const {
    if (!prog_) {
        throw std::logic_error("target::Device: no program loaded");
    }
    return *prog_;
}

// With no image the wire is dead.  The check stays out of run_packet so
// that its one return is the named result, which the compiler builds in
// the caller's frame instead of moving the whole result out per packet.
void Device::inject(const packet::Packet& pkt) {
    if (pipeline_) run_packet(pkt, false);
}

dataplane::PipelineResult Device::trace(const packet::Packet& pkt) {
    if (!pipeline_) return {};
    return run_packet(pkt, true);
}

dataplane::PipelineResult Device::run_packet(const packet::Packet& pkt, bool taps) {
    packet::PacketMeta meta = pkt.meta;
    if (meta.rx_time_ns == 0) meta.rx_time_ns = clock_ns_;
    // The virtual clock tracks the line: one packet slot per injection, and
    // never behind the newest admitted packet.
    clock_ns_ = std::max(clock_ns_, meta.rx_time_ns) + kNsPerPacket;

    if (meta.ingress_port < static_cast<std::uint32_t>(config_.num_ports)) {
        auto& rx = port_counters_[meta.ingress_port];
        ++rx.rx_packets;
        rx.rx_bytes += pkt.size();
    }

    dataplane::PipelineResult result = pipeline_->process(pkt, meta, taps);

    if (result.disposition == dataplane::Disposition::forwarded) {
        result.output.meta.tx_time_ns = meta.rx_time_ns + result.cycles * kNsPerCycle;
    }

    if (digests_enabled_) {
        dataplane::TapDigest digest;
        digest.verdict = result.parser_verdict;
        digest.disposition = result.disposition;
        digest.egress_port =
            result.disposition == dataplane::Disposition::forwarded
                ? result.egress_port
                : 0;
        digest.stage_hash = result.stage_hash;
        push_ring(digests_, digest);
    }

    if (result.disposition == dataplane::Disposition::forwarded) {
        if (result.egress_port < static_cast<std::uint32_t>(config_.num_ports)) {
            auto& tx = port_counters_[result.egress_port];
            ++tx.tx_packets;
            tx.tx_bytes += result.output.size();
            auto& queue = egress_queues_[result.egress_port];
            // A traced packet stays in the result as well.
            if (taps) {
                queue.push_back(result.output);
            } else {
                queue.push_back(std::move(result.output));
            }
        } else {
            // Models real hardware: a forwarded packet whose egress port does
            // not exist is discarded on the way to the queues.
            ++misdirected_;
        }
    }
    return result;
}

std::vector<packet::Packet> Device::drain_port(std::uint32_t port) {
    std::vector<packet::Packet> out;
    drain_port_into(port, out);
    return out;
}

void Device::drain_port_into(std::uint32_t port, std::vector<packet::Packet>& out) {
    if (port >= egress_queues_.size()) return;
    auto& q = egress_queues_[port];
    out.insert(out.end(), std::make_move_iterator(q.begin()),
               std::make_move_iterator(q.end()));
    q.clear();  // keeps capacity: the queue never re-grows in steady state
}

void Device::set_digests_enabled(bool on) {
    digests_enabled_ = on;
    if (pipeline_) pipeline_->set_capture_digests(on);
}

// --- management plane ---------------------------------------------------------

std::vector<Status> Device::apply(std::span<const control::ConfigOp> ops) {
    std::vector<Status> statuses;
    statuses.reserve(ops.size());
    for (const control::ConfigOp& op : ops) {
        switch (op.kind) {
            case control::ConfigOp::Kind::add_entry:
                statuses.push_back(add_entry(op));
                continue;
            case control::ConfigOp::Kind::set_default_action:
                statuses.push_back(set_default_action(op));
                continue;
            case control::ConfigOp::Kind::write_register:
                statuses.push_back(write_register(op));
                continue;
            case control::ConfigOp::Kind::configure_meter:
                statuses.push_back(configure_meter(op));
                continue;
        }
        statuses.push_back(Status::failure("unknown config op"));
    }
    return statuses;
}

Status Device::find_table(const std::string& name,
                          const p4::ir::Table*& out) const {
    if (!prog_) return Status::failure("no program loaded");
    out = prog_->table_by_name(name);
    if (!out) return Status::failure("unknown table '" + name + "'");
    return Status::success();
}

Status Device::find_cell(const std::string& name, p4::ir::ExternDecl::Kind kind,
                         std::uint64_t index,
                         const p4::ir::ExternDecl*& out) const {
    if (!prog_) return Status::failure("no program loaded");
    out = prog_->extern_by_name(name);
    if (!out) return Status::failure("unknown extern '" + name + "'");
    if (out->kind != kind) {
        return Status::failure("extern '" + name + "' has the wrong kind");
    }
    if (index >= static_cast<std::uint64_t>(out->array_size)) {
        return Status::failure(util::format("%s '%s': index %llu out of range",
                                            cell_kind_name(kind), name.c_str(),
                                            static_cast<unsigned long long>(index)));
    }
    return Status::success();
}

Status Device::translate_entry(const p4::ir::Table& table,
                               const control::EntrySpec& entry,
                               dataplane::TableEntry& out) const {
    if (entry.key_values.size() != table.keys.size()) {
        return Status::failure(util::format(
            "table '%s' expects %zu key(s), got %zu", table.name.c_str(),
            table.keys.size(), entry.key_values.size()));
    }
    if (!entry.key_masks.empty() &&
        entry.key_masks.size() != table.keys.size()) {
        return Status::failure(util::format(
            "table '%s': %zu mask(s) for %zu key(s)", table.name.c_str(),
            entry.key_masks.size(), table.keys.size()));
    }
    out.key_values.resize(table.keys.size());
    out.key_masks.clear();
    for (std::size_t i = 0; i < table.keys.size(); ++i) {
        out.key_values[i] = entry.key_values[i].resize(table.keys[i].width);
        if (!entry.key_masks.empty()) {
            out.key_masks.push_back(entry.key_masks[i].resize(table.keys[i].width));
        }
    }
    out.prefix_len = entry.prefix_len;
    if (table.has_lpm() && out.prefix_len < 0) {
        out.prefix_len = table.keys[0].width;  // exact-as-lpm convenience
    }
    out.priority = entry.priority;
    return resolve_action(table, entry.action, entry.action_args, out.action_id,
                          out.action_args);
}

Status Device::resolve_action(const p4::ir::Table& table,
                              const std::string& action,
                              const std::vector<Bitvec>& args, int& action_id,
                              std::vector<Bitvec>& out_args) const {
    const p4::ir::Action* a = prog_->action_by_name(action);
    if (!a) return Status::failure("unknown action '" + action + "'");
    if (std::find(table.actions.begin(), table.actions.end(), a->id) ==
        table.actions.end()) {
        return Status::failure("action '" + action + "' not permitted on table '" +
                               table.name + "'");
    }
    if (args.size() != a->param_widths.size()) {
        return Status::failure(util::format("action '%s' expects %zu arg(s), got %zu",
                                            action.c_str(), a->param_widths.size(),
                                            args.size()));
    }
    action_id = a->id;
    out_args.clear();
    for (std::size_t i = 0; i < args.size(); ++i) {
        out_args.push_back(args[i].resize(a->param_widths[i]));
    }
    return Status::success();
}

Status Device::add_entry(const control::ConfigOp& op) {
    const p4::ir::Table* t = nullptr;
    if (Status s = find_table(op.target, t); !s) return s;
    if (op.entry.action.empty()) {
        return Status::failure("add_entry requires an action");
    }
    if (Status s = translate_entry(*t, op.entry, entry_scratch_); !s) return s;
    const dataplane::InsertStatus result = tables_->insert(t->id, entry_scratch_);
    if (result != dataplane::InsertStatus::ok) {
        return Status::failure(util::format("insert into '%s' failed: %s",
                                            t->name.c_str(),
                                            dataplane::insert_status_name(result)));
    }
    return Status::success();
}

Status Device::set_default_action(const control::ConfigOp& op) {
    const p4::ir::Table* t = nullptr;
    if (Status s = find_table(op.target, t); !s) return s;
    dataplane::ActionEntry entry;
    if (Status s = resolve_action(*t, op.action, op.action_args, entry.action_id,
                                  entry.args);
        !s) {
        return s;
    }
    tables_->set_default_action(t->id, std::move(entry));
    return Status::success();
}

Status Device::write_register(const control::ConfigOp& op) {
    const p4::ir::ExternDecl* e = nullptr;
    if (Status s = find_cell(op.target, p4::ir::ExternDecl::Kind::reg, op.index, e);
        !s) {
        return s;
    }
    stateful_->register_write(e->id, op.index, op.value);
    return Status::success();
}

Status Device::configure_meter(const control::ConfigOp& op) {
    const p4::ir::ExternDecl* e = nullptr;
    if (Status s = find_cell(op.target, p4::ir::ExternDecl::Kind::meter, op.index, e);
        !s) {
        return s;
    }
    // Rates arrive from the management wire as raw doubles; NaN, infinite
    // or negative ones would poison the token buckets.
    const control::MeterConfig& m = op.meter;
    for (const auto& [which, rate] : {std::pair{"committed", m.committed_rate_bps},
                                      std::pair{"excess", m.excess_rate_bps}}) {
        if (!std::isfinite(rate) || rate < 0) {
            return Status::failure(util::format(
                "meter '%s': %s rate %g is not finite and non-negative",
                e->name.c_str(), which, rate));
        }
    }
    stateful_->meter_configure(e->id, op.index, m.committed_rate_bps,
                               m.committed_burst, m.excess_rate_bps,
                               m.excess_burst);
    return Status::success();
}

Status Device::read_register(const std::string& name, std::uint64_t index,
                             Bitvec& out) {
    const p4::ir::ExternDecl* e = nullptr;
    if (Status s = find_cell(name, p4::ir::ExternDecl::Kind::reg, index, e); !s) {
        return s;
    }
    out = stateful_->register_read(e->id, index);
    return Status::success();
}

Status Device::read_counter(const std::string& name, std::uint64_t index,
                            control::CounterValue& out) {
    const p4::ir::ExternDecl* e = nullptr;
    if (Status s = find_cell(name, p4::ir::ExternDecl::Kind::counter, index, e);
        !s) {
        return s;
    }
    out.packets = stateful_->counter_packets(e->id, index);
    out.bytes = stateful_->counter_bytes(e->id, index);
    return Status::success();
}

control::StatusSnapshot Device::snapshot() {
    control::StatusSnapshot snap;
    snap.taken_at_ns = clock_ns_;
    snap.ports = port_counters_;
    snap.misdirected = misdirected_;
    if (pipeline_) snap.stages = pipeline_->counters();
    if (prog_ && tables_) {
        snap.tables.reserve(prog_->tables.size());
        for (const auto& t : prog_->tables) {
            control::TableStatus status;
            status.name = t.name;
            status.hits = tables_->stats(t.id).hits;
            status.misses = tables_->stats(t.id).misses;
            status.entries = tables_->entry_count(t.id);
            status.capacity = tables_->capacity(t.id);
            snap.tables.push_back(std::move(status));
        }
    }
    if (stateful_) {
        if (obs::metrics_on()) {
            obs::record(obs::Hist::stateful_touched_cells,
                        stateful_->touched_cells());
        }
        for (auto& inf : stateful_->info()) {
            control::ExternStatus status;
            status.name = std::move(inf.name);
            status.kind = std::move(inf.kind);
            status.cells = inf.cells;
            status.state_hash = inf.state_hash;
            status.unconfigured_meters = inf.unconfigured_meters;
            snap.externs.push_back(std::move(status));
        }
    }
    return snap;
}

Status Device::reset_state() {
    clear_dynamic_state();
    if (pipeline_) pipeline_->reset_counters();
    if (tables_) tables_->reset_stats();
    if (stateful_) stateful_->reset_state();
    return Status::success();
}

// --- backends -----------------------------------------------------------------

dataplane::Quirks sdnet_quirks() {
    dataplane::Quirks q;
    // Headline bug (paper Section 4): the toolchain never implemented the
    // parser reject state, so must-drop packets sail through.
    q.reject_as_accept = true;
    // The hardware parser runs out of stages before deep header stacks end.
    q.parser_depth_limit = 4;
    // Right shifts are emitted as left shifts.
    q.shift_miscompile = true;
    // TCAM priority encoder wired backwards: lowest priority wins.
    q.ternary_priority_inverted = true;
    // State-quirk family: the stateful pipeline never refreshes occupied
    // register cells, latches the aging clock at half resolution, and
    // truncates the hash unit to 3 result bits (8 buckets).
    q.stale_entry = true;
    q.expiry_off_by_one = true;
    q.hash_collision_misdirect = 3;
    return q;
}

namespace {

struct Registry {
    std::mutex mutex;
    std::map<std::string, DeviceFactory> factories;
};

Registry& registry() {
    static Registry r;
    return r;
}

bool register_locked(const std::string& name, DeviceFactory factory) {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    return r.factories.emplace(name, std::move(factory)).second;
}

void ensure_builtin_backends() {
    static const bool once = [] {
        register_locked("reference", [](std::optional<dataplane::Quirks> q) {
            DeviceConfig cfg;
            if (q) cfg.quirks = *q;
            return make_reference_device(std::move(cfg));
        });
        register_locked("sdnet", [](std::optional<dataplane::Quirks> q) {
            // Build directly so an explicit all-defaults override yields a
            // quirk-free device (make_sdnet_device would re-apply the
            // catalogue, which is right for it but wrong for an override).
            DeviceConfig cfg;
            cfg.backend = "sdnet";
            cfg.quirks = q ? *q : sdnet_quirks();
            return std::make_unique<Device>(std::move(cfg));
        });
        return true;
    }();
    (void)once;
}

}  // namespace

std::unique_ptr<Device> make_reference_device(DeviceConfig config) {
    if (config.backend.empty()) config.backend = "reference";
    return std::make_unique<Device>(std::move(config));
}

std::unique_ptr<Device> make_sdnet_device(DeviceConfig config) {
    if (config.backend.empty()) config.backend = "sdnet";
    if (!config.quirks.any()) config.quirks = sdnet_quirks();
    return std::make_unique<Device>(std::move(config));
}

bool register_backend(const std::string& name, DeviceFactory factory) {
    // Builtins first, so a client registration can never shadow them.
    ensure_builtin_backends();
    return register_locked(name, std::move(factory));
}

std::vector<std::string> registered_backends() {
    ensure_builtin_backends();
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<std::string> names;
    names.reserve(r.factories.size());
    for (const auto& [name, factory] : r.factories) names.push_back(name);
    return names;
}

std::unique_ptr<Device> make_device(std::string_view name,
                                    std::optional<dataplane::Quirks> quirks_override) {
    ensure_builtin_backends();
    DeviceFactory factory;
    {
        Registry& r = registry();
        const std::lock_guard<std::mutex> lock(r.mutex);
        const auto it = r.factories.find(std::string(name));
        if (it == r.factories.end()) return nullptr;
        factory = it->second;
    }
    return factory(std::move(quirks_override));
}

}  // namespace ndb::target
