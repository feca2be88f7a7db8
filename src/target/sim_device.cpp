#include "target/sim_device.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/strings.h"

namespace ndb::target {

using control::Status;

namespace {
// Egress queues keep at least this much capacity so steady-state batched
// traffic never grows them packet by packet.
constexpr std::size_t kEgressQueueReserve = 64;

// Shared ring policy for the tap and digest records: evict the oldest half
// in one move when the cap is hit, so sustained traffic at the cap stays
// amortized O(1) per packet.
template <typename T>
void push_ring(std::vector<T>& ring, std::size_t cap, T record) {
    if (ring.size() >= cap) {
        ring.erase(ring.begin(),
                   ring.begin() + static_cast<long>(ring.size() / 2 + 1));
    }
    ring.push_back(std::move(record));
}
}  // namespace

SimDevice::SimDevice(DeviceConfig config) : config_(std::move(config)) {
    config_.num_ports = std::max(config_.num_ports, 1);
    cov_salt_ = util::fnv1a_64(config_.backend) ^
                util::fnv1a_64(config_.quirks.signature());
    clock_ns_ = kClockEpochNs;
    egress_queues_.resize(static_cast<std::size_t>(config_.num_ports));
    for (auto& q : egress_queues_) q.reserve(kEgressQueueReserve);
    port_counters_.resize(static_cast<std::size_t>(config_.num_ports));
}

Status SimDevice::load(std::shared_ptr<const p4::ir::Program> image) {
    if (!image) return Status::failure("load: null program image");
    ++generation_;  // invalidates every handle issued against the old image
    if (image == prog_) {
        // The image the device was built from: everything derived from it
        // (table layout, extern shapes, pipeline) still holds, so only the
        // dynamic state goes back to its freshly loaded values.
        tables_->reset();
        reset_state();
        return Status::success();
    }
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
    options.capture_taps = taps_enabled_;
    options.capture_digests = digests_enabled_;
    pipeline_ = std::make_unique<dataplane::Pipeline>(*prog_, *tables_, *stateful_,
                                                      std::move(options));
    // A new image replaces the pipeline wholesale, so coverage mode must be
    // re-applied here for the setting to survive an image swap.
    pipeline_->set_coverage(coverage_, cov_salt_);
    clear_dynamic_state();
    return Status::success();
}

void SimDevice::set_coverage(coverage::CoverageMap* map) {
    coverage_ = map;
    if (pipeline_) pipeline_->set_coverage(map, cov_salt_);
}

void SimDevice::clear_dynamic_state() {
    for (auto& q : egress_queues_) q.clear();
    std::fill(port_counters_.begin(), port_counters_.end(),
              control::PortCounters{});
    misdirected_ = 0;
    taps_.clear();
    digests_.clear();
}

const p4::ir::Program& SimDevice::program() const {
    if (!prog_) {
        throw std::logic_error("target::Device: no program loaded");
    }
    return *prog_;
}

void SimDevice::inject(packet::Packet pkt) {
    if (!pipeline_) return;  // no image: the wire is dead

    if (pkt.meta.rx_time_ns == 0) pkt.meta.rx_time_ns = clock_ns_;
    // The virtual clock tracks the line: one packet slot per injection, and
    // never behind the newest admitted packet.
    clock_ns_ = std::max(clock_ns_, pkt.meta.rx_time_ns) + kNsPerPacket;

    if (pkt.meta.ingress_port < static_cast<std::uint32_t>(config_.num_ports)) {
        auto& rx = port_counters_[pkt.meta.ingress_port];
        ++rx.rx_packets;
        rx.rx_bytes += pkt.size();
    }

    dataplane::PipelineResult result = pipeline_->process(pkt);

    if (result.disposition == dataplane::Disposition::forwarded) {
        result.output.meta.tx_time_ns =
            pkt.meta.rx_time_ns + result.cycles * kNsPerCycle;
    }

    if (taps_enabled_ && config_.max_tap_records > 0) {
        push_ring(taps_, config_.max_tap_records, TapRecord{pkt, result});
    }

    if (digests_enabled_ && config_.max_tap_records > 0) {
        dataplane::TapDigest digest;
        digest.verdict = result.parser_verdict;
        digest.disposition = result.disposition;
        digest.egress_port =
            result.disposition == dataplane::Disposition::forwarded
                ? result.egress_port
                : 0;
        digest.stage_hash = result.stage_hash;
        push_ring(digests_, config_.max_tap_records, digest);
    }

    if (result.disposition == dataplane::Disposition::forwarded) {
        if (result.egress_port < static_cast<std::uint32_t>(config_.num_ports)) {
            auto& tx = port_counters_[result.egress_port];
            ++tx.tx_packets;
            tx.tx_bytes += result.output.size();
            egress_queues_[result.egress_port].push_back(std::move(result.output));
        } else {
            // Models real hardware: a forwarded packet whose egress port does
            // not exist is discarded on the way to the queues.
            ++misdirected_;
        }
    }
}

std::vector<packet::Packet> SimDevice::drain_port(std::uint32_t port) {
    std::vector<packet::Packet> out;
    drain_port_into(port, out);
    return out;
}

void SimDevice::drain_port_into(std::uint32_t port,
                                std::vector<packet::Packet>& out) {
    if (port >= egress_queues_.size()) return;
    auto& q = egress_queues_[port];
    out.insert(out.end(), std::make_move_iterator(q.begin()),
               std::make_move_iterator(q.end()));
    q.clear();  // keeps capacity: the queue never re-grows in steady state
}

void SimDevice::set_taps_enabled(bool on) {
    taps_enabled_ = on;
    if (pipeline_) pipeline_->set_capture_taps(on);
}

void SimDevice::set_digests_enabled(bool on) {
    digests_enabled_ = on;
    if (pipeline_) pipeline_->set_capture_digests(on);
}

// --- management plane ---------------------------------------------------------

control::TableHandle SimDevice::resolve_table(const std::string& name) {
    control::TableHandle h;
    h.name = name;
    if (!prog_) return h;
    if (const p4::ir::Table* t = prog_->table_by_name(name)) {
        h.id = t->id;
        h.generation = generation_;
    }
    return h;
}

control::ExternHandle SimDevice::resolve_extern(const std::string& name) {
    control::ExternHandle h;
    h.name = name;
    if (!prog_) return h;
    if (const p4::ir::ExternDecl* e = prog_->extern_by_name(name)) {
        h.id = e->id;
        h.generation = generation_;
    }
    return h;
}

Status SimDevice::check_table(const control::TableHandle& handle,
                              const p4::ir::Table*& out) const {
    if (!prog_) return Status::failure("no program loaded");
    if (!handle.valid()) {
        // Name-only handle (a backend-agnostic caller, or resolution against
        // an unloaded device): one fresh lookup, same errors as ever.
        const p4::ir::Table* t = prog_->table_by_name(handle.name);
        if (!t) return Status::failure("unknown table '" + handle.name + "'");
        out = t;
        return Status::success();
    }
    if (handle.generation != generation_) {
        return Status::failure("stale table handle '" + handle.name +
                               "': device image reloaded since resolve");
    }
    if (static_cast<std::size_t>(handle.id) >= prog_->tables.size()) {
        return Status::failure("invalid table handle '" + handle.name + "'");
    }
    out = &prog_->tables[static_cast<std::size_t>(handle.id)];
    return Status::success();
}

Status SimDevice::check_extern(const control::ExternHandle& handle,
                               p4::ir::ExternDecl::Kind kind,
                               const p4::ir::ExternDecl*& out) const {
    if (!prog_) return Status::failure("no program loaded");
    if (!handle.valid()) return resolve_extern_decl(handle.name, kind, out);
    if (handle.generation != generation_) {
        return Status::failure("stale extern handle '" + handle.name +
                               "': device image reloaded since resolve");
    }
    for (const p4::ir::ExternDecl& e : prog_->externs) {
        if (e.id != handle.id) continue;
        if (e.kind != kind) {
            return Status::failure("extern '" + handle.name +
                                   "' has the wrong kind");
        }
        out = &e;
        return Status::success();
    }
    return Status::failure("invalid extern handle '" + handle.name + "'");
}

Status SimDevice::resolve_extern_decl(const std::string& name,
                                      p4::ir::ExternDecl::Kind kind,
                                      const p4::ir::ExternDecl*& out) const {
    if (!prog_) return Status::failure("no program loaded");
    const p4::ir::ExternDecl* e = prog_->extern_by_name(name);
    if (!e) return Status::failure("unknown extern '" + name + "'");
    if (e->kind != kind) {
        return Status::failure("extern '" + name + "' has the wrong kind");
    }
    out = e;
    return Status::success();
}

Status SimDevice::translate_entry(const p4::ir::Table& table,
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
    out = {};
    for (std::size_t i = 0; i < table.keys.size(); ++i) {
        out.key_values.push_back(entry.key_values[i].resize(table.keys[i].width));
        if (!entry.key_masks.empty()) {
            out.key_masks.push_back(entry.key_masks[i].resize(table.keys[i].width));
        }
    }
    out.prefix_len = entry.prefix_len;
    if (table.has_lpm() && out.prefix_len < 0) {
        out.prefix_len = table.keys[0].width;  // exact-as-lpm convenience
    }
    out.priority = entry.priority;

    if (entry.action.empty()) {
        // Key-only spec (delete matches on the key part alone).
        out.action_id = -1;
        return Status::success();
    }
    dataplane::ActionEntry resolved;
    if (Status s = resolve_action(table, entry.action, entry.action_args, resolved);
        !s) {
        return s;
    }
    out.action_id = resolved.action_id;
    out.action_args = std::move(resolved.args);
    return Status::success();
}

Status SimDevice::resolve_action(const p4::ir::Table& table,
                                 const std::string& action,
                                 const std::vector<Bitvec>& args,
                                 dataplane::ActionEntry& out) const {
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
    out.action_id = a->id;
    out.args.clear();
    for (std::size_t i = 0; i < args.size(); ++i) {
        out.args.push_back(args[i].resize(a->param_widths[i]));
    }
    return Status::success();
}

Status SimDevice::add_entry(const control::TableHandle& table,
                            const control::EntrySpec& entry) {
    const p4::ir::Table* t = nullptr;
    if (Status s = check_table(table, t); !s) return s;
    if (entry.action.empty()) {
        return Status::failure("add_entry requires an action");
    }
    dataplane::TableEntry translated;
    if (Status s = translate_entry(*t, entry, translated); !s) return s;
    const dataplane::InsertStatus result = tables_->insert(t->id, translated);
    if (result != dataplane::InsertStatus::ok) {
        return Status::failure(util::format("insert into '%s' failed: %s",
                                            t->name.c_str(),
                                            dataplane::insert_status_name(result)));
    }
    return Status::success();
}

Status SimDevice::delete_entry(const control::TableHandle& table,
                               const control::EntrySpec& entry) {
    const p4::ir::Table* t = nullptr;
    if (Status s = check_table(table, t); !s) return s;
    dataplane::TableEntry translated;
    if (Status s = translate_entry(*t, entry, translated); !s) return s;
    if (!tables_->erase(t->id, translated)) {
        return Status::failure("no such entry in '" + t->name + "'");
    }
    return Status::success();
}

Status SimDevice::set_default_action(const control::TableHandle& table,
                                     const std::string& action,
                                     const std::vector<Bitvec>& args) {
    const p4::ir::Table* t = nullptr;
    if (Status s = check_table(table, t); !s) return s;
    dataplane::ActionEntry entry;
    if (Status s = resolve_action(*t, action, args, entry); !s) return s;
    tables_->set_default_action(t->id, std::move(entry));
    return Status::success();
}

Status SimDevice::write_register(const control::ExternHandle& ext,
                                 std::uint64_t index, const Bitvec& value) {
    const p4::ir::ExternDecl* e = nullptr;
    if (Status s = check_extern(ext, p4::ir::ExternDecl::Kind::reg, e); !s) {
        return s;
    }
    if (index >= static_cast<std::uint64_t>(e->array_size)) {
        return Status::failure(util::format("register '%s': index %llu out of range",
                                            e->name.c_str(),
                                            static_cast<unsigned long long>(index)));
    }
    stateful_->register_write(e->id, index, value);
    return Status::success();
}

Status SimDevice::read_register(const control::ExternHandle& ext,
                                std::uint64_t index, Bitvec& out) {
    const p4::ir::ExternDecl* e = nullptr;
    if (Status s = check_extern(ext, p4::ir::ExternDecl::Kind::reg, e); !s) {
        return s;
    }
    if (index >= static_cast<std::uint64_t>(e->array_size)) {
        return Status::failure(util::format("register '%s': index %llu out of range",
                                            e->name.c_str(),
                                            static_cast<unsigned long long>(index)));
    }
    out = stateful_->register_read(e->id, index);
    return Status::success();
}

Status SimDevice::add_entry(const std::string& table,
                            const control::EntrySpec& entry) {
    return add_entry(resolve_table(table), entry);
}

Status SimDevice::delete_entry(const std::string& table,
                               const control::EntrySpec& entry) {
    return delete_entry(resolve_table(table), entry);
}

Status SimDevice::set_default_action(const std::string& table,
                                     const std::string& action,
                                     const std::vector<Bitvec>& args) {
    return set_default_action(resolve_table(table), action, args);
}

Status SimDevice::clear_table(const std::string& table) {
    const p4::ir::Table* t = nullptr;
    if (Status s = check_table(resolve_table(table), t); !s) return s;
    tables_->clear(t->id);
    return Status::success();
}

Status SimDevice::write_register(const std::string& name, std::uint64_t index,
                                 const Bitvec& value) {
    return write_register(resolve_extern(name), index, value);
}

Status SimDevice::read_register(const std::string& name, std::uint64_t index,
                                Bitvec& out) {
    return read_register(resolve_extern(name), index, out);
}

Status SimDevice::read_counter(const std::string& name, std::uint64_t index,
                               control::CounterValue& out) {
    const p4::ir::ExternDecl* e = nullptr;
    if (Status s = resolve_extern_decl(name, p4::ir::ExternDecl::Kind::counter, e);
        !s) {
        return s;
    }
    if (index >= static_cast<std::uint64_t>(e->array_size)) {
        return Status::failure(util::format("counter '%s': index %llu out of range",
                                            name.c_str(),
                                            static_cast<unsigned long long>(index)));
    }
    out.packets = stateful_->counter_packets(e->id, index);
    out.bytes = stateful_->counter_bytes(e->id, index);
    return Status::success();
}

Status SimDevice::configure_meter(const std::string& name, std::uint64_t index,
                                  const control::MeterConfig& config) {
    const p4::ir::ExternDecl* e = nullptr;
    if (Status s = resolve_extern_decl(name, p4::ir::ExternDecl::Kind::meter, e);
        !s) {
        return s;
    }
    if (index >= static_cast<std::uint64_t>(e->array_size)) {
        return Status::failure(util::format("meter '%s': index %llu out of range",
                                            name.c_str(),
                                            static_cast<unsigned long long>(index)));
    }
    stateful_->meter_configure(e->id, index, config.committed_rate_bps,
                               config.committed_burst, config.excess_rate_bps,
                               config.excess_burst);
    return Status::success();
}

control::StatusSnapshot SimDevice::snapshot() {
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

Status SimDevice::reset_state() {
    clear_dynamic_state();
    if (pipeline_) pipeline_->reset_counters();
    if (tables_) tables_->reset_stats();
    if (stateful_) stateful_->reset_state();
    return Status::success();
}

}  // namespace ndb::target
