#include "target/device.h"

#include <algorithm>
#include <array>
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

Device::Device(DeviceConfig config)
    : config_(std::move(config)),
      quirk_signature_(config_.quirks.signature()),
      tables_(config_.quirks.table_size_clamp, config_.quirks.ternary_priority_inverted),
      pipeline_(tables_, stateful_, dataplane::PipelineOptions{config_.quirks}) {
    config_.num_ports = std::max(config_.num_ports, 1);
    cov_salt_ = util::fnv1a_64(config_.backend) ^ util::fnv1a_64(quirk_signature_);
    clock_ns_ = kClockEpochNs;
    egress_queues_.resize(static_cast<std::size_t>(config_.num_ports));
    for (auto& q : egress_queues_) q.reserve(kEgressQueueReserve);
    port_counters_.resize(static_cast<std::size_t>(config_.num_ports));
}

Status Device::load(std::shared_ptr<const p4::ir::Program> image) {
    if (!image) return Status::failure("load: null program image");
    if (image == prog_) {
        // The image the device holds: its tables, externs and pipeline are
        // already shaped for it, so only the dynamic state goes back to its
        // freshly loaded values.
        tables_.reset();
        return reset_state();
    }
    if (!image->layout) {
        return Status::failure("load: program '" + image->name +
                               "' was not finalized by the compiler");
    }
    if (obs::metrics_on()) obs::count(obs::Counter::image_builds);
    prog_ = std::move(image);
    tables_.load(*prog_);
    stateful_.load(*prog_);
    pipeline_.load(*prog_);
    clear_dynamic_state();
    return Status::success();
}

void Device::set_coverage(coverage::CoverageMap* map) {
    coverage_ = map;
    pipeline_.set_coverage(map, cov_salt_);
}

void Device::clear_dynamic_state() {
    for (auto& q : egress_queues_) q.clear();
    std::fill(port_counters_.begin(), port_counters_.end(),
              control::PortCounters{});
    misdirected_ = 0;
    digests_.clear();
    taps_.reached = 0;
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
    if (prog_) run_packet(pkt, nullptr);
}

dataplane::PipelineResult Device::trace(const packet::Packet& pkt) {
    if (!prog_) return {};
    return run_packet(pkt, &taps_);
}

dataplane::PipelineResult Device::run_packet(const packet::Packet& pkt,
                                             dataplane::StageTaps* taps) {
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

    dataplane::PipelineResult result = pipeline_.process(pkt, meta, taps);

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
    drain_port_each(port, [&out](packet::Packet&& pkt) { out.push_back(std::move(pkt)); });
}

void Device::set_digests_enabled(bool on) {
    digests_enabled_ = on;
    pipeline_.set_capture_digests(on);
}

// --- management plane ---------------------------------------------------------

namespace {

// Records a failed check: the message is formatted into *why only when the
// caller wants one.
template <class Message>
bool reject(std::string* why, Message&& message) {
    if (why != nullptr) *why = message();
    return false;
}

// Where the batch core reports each op (see Device::apply_ops): a Status
// per op with its message, or one acceptance bit per op and no message.
struct StatusOut {
    std::span<Status> statuses;
    std::string* message(std::size_t i) { return &statuses[i].message; }
    void result(std::size_t i, bool ok) { statuses[i].ok = ok; }
};

struct AcceptedOut {
    std::vector<bool>& accepted;
    std::string* message(std::size_t) { return nullptr; }
    void result(std::size_t, bool ok) { accepted.push_back(ok); }
};

}  // namespace

template <class Out>
void Device::apply_ops(std::span<const control::ConfigOp> ops, Out& out) {
    using Kind = control::ConfigOp::Kind;
    std::size_t i = 0;
    while (i < ops.size()) {
        const control::ConfigOp& op = ops[i];
        if (op.kind == Kind::add_entry) {
            std::size_t end = i + 1;
            while (end < ops.size() && end - i < kEntryChunk &&
                   ops[end].kind == Kind::add_entry && ops[end].target == op.target) {
                ++end;
            }
            add_entries(ops.subspan(i, end - i), i, out);
            i = end;
            continue;
        }
        std::string* why = out.message(i);
        bool ok = false;
        switch (op.kind) {
            case Kind::set_default_action: ok = set_default_action(op, why); break;
            case Kind::write_register: ok = write_register(op, why); break;
            case Kind::configure_meter: ok = configure_meter(op, why); break;
            default:
                ok = reject(why, [] { return std::string("unknown config op"); });
                break;
        }
        out.result(i, ok);
        ++i;
    }
}

template <class Out>
void Device::add_entries(std::span<const control::ConfigOp> chunk, std::size_t first,
                         Out& out) {
    const p4::ir::Table* t = nullptr;
    if (!find_table(chunk.front().target, t, nullptr)) {
        for (std::size_t j = 0; j < chunk.size(); ++j) {
            out.result(first + j, find_table(chunk[j].target, t, out.message(first + j)));
        }
        return;
    }
    // Translate every op, then insert the ones that translated in one batch:
    // an op that fails translation never reaches the table, so leaving it
    // out keeps the batch equal to inserting op by op.
    dataplane::TableEntry* entries = &entry_scratch_;
    if (chunk.size() > 1) {
        if (chunk_entries_.size() < chunk.size()) chunk_entries_.resize(chunk.size());
        entries = chunk_entries_.data();
    }
    std::array<bool, kEntryChunk> translated{};
    std::array<dataplane::InsertStatus, kEntryChunk> inserted{};
    const p4::ir::Action* action = nullptr;
    std::size_t n = 0;
    for (std::size_t j = 0; j < chunk.size(); ++j) {
        translated[j] = translate_entry(*t, chunk[j].entry, action, entries[n],
                                        out.message(first + j));
        n += translated[j];
    }
    tables_.insert_batch(t->id, {entries, n}, {inserted.data(), n});
    std::size_t k = 0;
    for (std::size_t j = 0; j < chunk.size(); ++j) {
        bool ok = translated[j];
        if (ok) {
            const dataplane::InsertStatus result = inserted[k++];
            ok = result == dataplane::InsertStatus::ok ||
                 reject(out.message(first + j), [&] {
                     return util::format("insert into '%s' failed: %s", t->name.c_str(),
                                         dataplane::insert_status_name(result));
                 });
        }
        out.result(first + j, ok);
    }
}

Status Device::apply(const control::ConfigOp& op) {
    Status status;
    StatusOut out{{&status, 1}};
    apply_ops({&op, 1}, out);
    return status;
}

std::vector<Status> Device::apply(std::span<const control::ConfigOp> ops) {
    std::vector<Status> statuses(ops.size());
    StatusOut out{statuses};
    apply_ops(ops, out);
    return statuses;
}

void Device::apply(std::span<const control::ConfigOp> ops, std::vector<bool>& accepted) {
    AcceptedOut out{accepted};
    apply_ops(ops, out);
}

bool Device::find_table(const std::string& name, const p4::ir::Table*& out,
                        std::string* why) const {
    if (!prog_) return reject(why, [] { return std::string("no program loaded"); });
    out = prog_->table_by_name(name);
    if (!out) return reject(why, [&] { return "unknown table '" + name + "'"; });
    return true;
}

bool Device::find_cell(const std::string& name, p4::ir::ExternDecl::Kind kind,
                       std::uint64_t index, const p4::ir::ExternDecl*& out,
                       std::string* why) const {
    if (!prog_) return reject(why, [] { return std::string("no program loaded"); });
    out = prog_->extern_by_name(name);
    if (!out) return reject(why, [&] { return "unknown extern '" + name + "'"; });
    if (out->kind != kind) {
        return reject(why, [&] { return "extern '" + name + "' has the wrong kind"; });
    }
    if (index >= static_cast<std::uint64_t>(out->array_size)) {
        return reject(why, [&] {
            return util::format("%s '%s': index %llu out of range", cell_kind_name(kind),
                                name.c_str(), static_cast<unsigned long long>(index));
        });
    }
    return true;
}

bool Device::translate_entry(const p4::ir::Table& table, const control::EntrySpec& entry,
                             const p4::ir::Action*& action, dataplane::TableEntry& out,
                             std::string* why) const {
    if (entry.action.empty()) {
        return reject(why, [] { return std::string("add_entry requires an action"); });
    }
    if (entry.key_values.size() != table.keys.size()) {
        return reject(why, [&] {
            return util::format("table '%s' expects %zu key(s), got %zu",
                                table.name.c_str(), table.keys.size(),
                                entry.key_values.size());
        });
    }
    if (!entry.key_masks.empty() && entry.key_masks.size() != table.keys.size()) {
        return reject(why, [&] {
            return util::format("table '%s': %zu mask(s) for %zu key(s)",
                                table.name.c_str(), entry.key_masks.size(),
                                table.keys.size());
        });
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
    if ((action == nullptr || action->name != entry.action) &&
        !find_action(table, entry.action, action, why)) {
        return false;
    }
    out.action_id = action->id;
    return bind_args(*action, entry.action_args, out.action_args, why);
}

bool Device::find_action(const p4::ir::Table& table, const std::string& name,
                         const p4::ir::Action*& out, std::string* why) const {
    const p4::ir::Action* a = prog_->action_by_name(name);
    if (!a) return reject(why, [&] { return "unknown action '" + name + "'"; });
    if (std::find(table.actions.begin(), table.actions.end(), a->id) ==
        table.actions.end()) {
        return reject(why, [&] {
            return "action '" + name + "' not permitted on table '" + table.name + "'";
        });
    }
    out = a;
    return true;
}

bool Device::bind_args(const p4::ir::Action& action, const std::vector<Bitvec>& args,
                       std::vector<Bitvec>& out, std::string* why) const {
    if (args.size() != action.param_widths.size()) {
        return reject(why, [&] {
            return util::format("action '%s' expects %zu arg(s), got %zu",
                                action.name.c_str(), action.param_widths.size(),
                                args.size());
        });
    }
    out.clear();
    for (std::size_t i = 0; i < args.size(); ++i) {
        out.push_back(args[i].resize(action.param_widths[i]));
    }
    return true;
}

bool Device::set_default_action(const control::ConfigOp& op, std::string* why) {
    const p4::ir::Table* t = nullptr;
    const p4::ir::Action* a = nullptr;
    if (!find_table(op.target, t, why) || !find_action(*t, op.action, a, why) ||
        !bind_args(*a, op.action_args, entry_scratch_.action_args, why)) {
        return false;
    }
    tables_.set_default_action(t->id, a->id, entry_scratch_.action_args);
    return true;
}

bool Device::write_register(const control::ConfigOp& op, std::string* why) {
    const p4::ir::ExternDecl* e = nullptr;
    if (!find_cell(op.target, p4::ir::ExternDecl::Kind::reg, op.index, e, why)) {
        return false;
    }
    stateful_.register_write(e->id, op.index, op.value);
    return true;
}

bool Device::configure_meter(const control::ConfigOp& op, std::string* why) {
    const p4::ir::ExternDecl* e = nullptr;
    if (!find_cell(op.target, p4::ir::ExternDecl::Kind::meter, op.index, e, why)) {
        return false;
    }
    // Rates arrive from the management wire as raw doubles; NaN, infinite
    // or negative ones would poison the token buckets.
    const control::MeterConfig& m = op.meter;
    for (const std::pair<const char*, double>& rate :
         {std::pair{"committed", m.committed_rate_bps},
          std::pair{"excess", m.excess_rate_bps}}) {
        if (!std::isfinite(rate.second) || rate.second < 0) {
            return reject(why, [&] {
                return util::format(
                    "meter '%s': %s rate %g is not finite and non-negative",
                    e->name.c_str(), rate.first, rate.second);
            });
        }
    }
    stateful_.meter_configure(e->id, op.index, m.committed_rate_bps,
                               m.committed_burst, m.excess_rate_bps,
                               m.excess_burst);
    return true;
}

Status Device::read_register(const std::string& name, std::uint64_t index,
                             Bitvec& out) {
    Status status;
    const p4::ir::ExternDecl* e = nullptr;
    status.ok = find_cell(name, p4::ir::ExternDecl::Kind::reg, index, e, &status.message);
    if (status) out = stateful_.register_read(e->id, index);
    return status;
}

Status Device::read_counter(const std::string& name, std::uint64_t index,
                            control::CounterValue& out) {
    Status status;
    const p4::ir::ExternDecl* e = nullptr;
    status.ok =
        find_cell(name, p4::ir::ExternDecl::Kind::counter, index, e, &status.message);
    if (status) {
        out.packets = stateful_.counter_packets(e->id, index);
        out.bytes = stateful_.counter_bytes(e->id, index);
    }
    return status;
}

control::StatusSnapshot Device::snapshot() {
    control::StatusSnapshot snap;
    snapshot_into(snap);
    return snap;
}

void Device::snapshot_into(control::StatusSnapshot& snap) {
    snap.taken_at_ns = clock_ns_;
    snap.ports = port_counters_;
    snap.misdirected = misdirected_;
    snap.stages = pipeline_.counters();
    snap.tables.resize(prog_ ? prog_->tables.size() : 0);
    for (std::size_t i = 0; i < snap.tables.size(); ++i) {
        const p4::ir::Table& t = prog_->tables[i];
        control::TableStatus& status = snap.tables[i];
        status.name = t.name;
        status.hits = tables_.stats(t.id).hits;
        status.misses = tables_.stats(t.id).misses;
        status.entries = tables_.entry_count(t.id);
        status.capacity = tables_.capacity(t.id);
    }
    if (!prog_) {
        snap.externs.clear();
        return;
    }
    if (obs::metrics_on()) {
        obs::record(obs::Hist::stateful_touched_cells, stateful_.touched_cells());
    }
    stateful_.info_into(snap.externs);
}

Status Device::reset_state() {
    clear_dynamic_state();
    pipeline_.reset_counters();
    tables_.reset_stats();
    stateful_.reset_state();
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

// Keyed by backend name; the builtins are there before any registration.
struct Registry {
    std::mutex mutex;
    std::map<std::string, DeviceConfig, std::less<>> backends{
        {"reference", DeviceConfig{}},
        {"sdnet", DeviceConfig{.backend = "sdnet", .quirks = sdnet_quirks()}},
    };
};

Registry& registry() {
    static Registry r;
    return r;
}

}  // namespace

bool register_backend(DeviceConfig config) {
    if (config.backend.empty()) return false;
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    std::string name = config.backend;
    return r.backends.emplace(std::move(name), std::move(config)).second;
}

std::vector<std::string> registered_backends() {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<std::string> names;
    names.reserve(r.backends.size());
    for (const auto& [name, config] : r.backends) names.push_back(name);
    return names;
}

std::unique_ptr<Device> make_device(std::string_view name,
                                    std::optional<dataplane::Quirks> quirks_override) {
    DeviceConfig config;
    {
        Registry& r = registry();
        const std::lock_guard<std::mutex> lock(r.mutex);
        const auto it = r.backends.find(name);
        if (it == r.backends.end()) return nullptr;
        config = it->second;
    }
    if (quirks_override) config.quirks = *quirks_override;
    return std::make_unique<Device>(std::move(config));
}

}  // namespace ndb::target
