// The device layer: what a "real target" looks like to the rest of the
// framework (paper Figure 1).
//
// A target::Device is one switch: it accepts a compiled program image,
// packets on its front-panel ports, and management-plane commands.  It
// exposes the three surfaces the paper's architecture needs:
//
//   * the data path       -- inject() / drain_port(), per-port egress queues;
//                            inject() borrows its stimulus and packets keep
//                            their bytes inline, so a warm device forwards
//                            and drops without allocating;
//   * the management path -- the full control::RuntimeApi (a Device IS a
//                            RuntimeApi, so control::dispatch and therefore
//                            RuntimeClient message traffic work end-to-end,
//                            serialized as control/wire.h frames over a
//                            faultable control/transport.h link, which is
//                            how the multi-process campaign fabric and the
//                            management-plane fuzzing mode drive a device);
//   * the debug path      -- trace(), an inject() that also keeps the
//                            packet's stage taps, and the streaming digest
//                            ring: the internal visibility external testers
//                            lack.
//
// Backends differ only in how faithfully they execute P4: the reference
// backend implements the language semantics exactly, the SDNet-like backend
// carries the paper's bug catalogue as a dataplane::Quirks value.  A backend
// is a registered DeviceConfig, so new ones join with register_backend() and
// campaigns and the fault localizer (which needs a DUT *and* a golden
// device) build them by name through make_device() without touching callers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "control/runtime.h"
#include "control/snapshot.h"
#include "dataplane/pipeline.h"
#include "dataplane/quirks.h"
#include "dataplane/stateful.h"
#include "dataplane/tables.h"
#include "p4/ir.h"
#include "packet/packet.h"

namespace ndb::coverage {
class CoverageMap;
}  // namespace ndb::coverage

namespace ndb::target {

// Deterministic virtual clock, the same on every device: now_ns() starts at
// kClockEpochNs and advances kNsPerPacket per injected packet, so every run
// of a campaign produces the identical timeline.  Forwarded packets are
// stamped rx_time + cycles * kNsPerCycle on egress.
inline constexpr std::uint64_t kClockEpochNs = 1'000'000;
inline constexpr std::uint64_t kNsPerPacket = 672;  // 84 wire bytes at 1 Gb/s
inline constexpr std::uint64_t kNsPerCycle = 4;

// Digest ring size; the oldest half is discarded when it fills.
inline constexpr std::size_t kMaxDigestRecords = 4096;

// The most consecutive add_entry ops on one table that reach its engine as
// one MatchEngine::insert_batch().
inline constexpr std::size_t kEntryChunk = 64;

// Static device parameters, fixed for the lifetime of one device instance.
// A registered DeviceConfig is a backend (see register_backend()).
struct DeviceConfig {
    // The backend's registry name.  It salts the device's coverage slots,
    // so two backends tracing the same path light different slots.
    std::string backend = "reference";
    int num_ports = 4;

    // Backend behaviour deviations; all-defaults = faithful P4 semantics.
    dataplane::Quirks quirks;
};

// One switch instance: a dataplane::Pipeline plus the table/stateful
// stores behind it, per-port egress queues, port and stage counters, a
// digest ring and a deterministic virtual clock.  Backend identity lives
// entirely in DeviceConfig (name + quirks), so the reference and SDNet-like
// devices are the same machine configured differently -- exactly how one
// vendor toolchain produces differently-buggy images from the same source.
class Device final : public control::RuntimeApi {
public:
    explicit Device(DeviceConfig config);
    // The pipeline refers to the device's own table and extern stores.
    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    // Installs a compiled program image and leaves the device in its
    // freshly loaded state: no entries, declared default actions, zeroed
    // extern cells, counters, queues and digests.  The image is shared and
    // immutable: the device keeps the pointer, not a copy, so many devices
    // (and worker threads) may hold one image at once, and everything
    // derived from the program alone (state layout, branch ordinals,
    // coverage salt) comes with the image instead of being rebuilt.
    //
    // A device builds its table set, extern store and pipeline once and
    // switches images in place.  Loading the image it already holds resets
    // that state.  Loading a different image refills the same storage for
    // the new program: each table takes over an engine of its match kind,
    // each extern a slot, and the pipeline, parser, interpreter and packet
    // state keep every buffer they pooled.  So once a device has run a set
    // of programs, switching among them allocates nothing.  A null image,
    // or one the compiler never finalized, is refused.
    control::Status load(std::shared_ptr<const p4::ir::Program> image);

    // Convenience for callers that own a plain program: copies `prog` once
    // into a new shared image and loads that, so `prog` may be discarded
    // as soon as this returns.  A new image never matches the held one, so
    // this path always switches images (and copies the program).
    control::Status load(const p4::ir::Program& prog) {
        return load(std::make_shared<const p4::ir::Program>(prog.clone()));
    }

    bool loaded() const { return prog_ != nullptr; }

    // The installed image.  Throws std::logic_error when nothing is loaded.
    const p4::ir::Program& program() const;

    const DeviceConfig& config() const { return config_; }

    // config().quirks.signature(), computed once.
    const std::string& quirk_signature() const { return quirk_signature_; }

    // --- data path ----------------------------------------------------------
    // Runs one packet through the pipeline.  The stimulus is borrowed, not
    // copied: the device stamps rx_time (when pkt.meta.rx_time_ns is 0) into
    // its own PacketMeta, which the forwarded packet carries, and never
    // writes to `pkt`.  With no image loaded the wire is dead: nothing runs.
    void inject(const packet::Packet& pkt);
    std::vector<packet::Packet> drain_port(std::uint32_t port);

    // Appends everything pending on `port` to `out` (callers reuse one
    // buffer across batched inject/drain rounds instead of receiving a
    // fresh vector per round).
    void drain_port_into(std::uint32_t port, std::vector<packet::Packet>& out);

    // Hands everything pending on `port` to `sink(packet::Packet&&)`,
    // oldest first, moving each packet out; the queue keeps its capacity.
    template <typename Sink>
    void drain_port_each(std::uint32_t port, Sink&& sink) {
        if (port >= egress_queues_.size()) return;
        auto& q = egress_queues_[port];
        for (packet::Packet& pkt : q) sink(std::move(pkt));
        q.clear();
    }

    // Drains and discards everything pending on every port; the queues
    // keep their capacity.
    void flush() {
        for (auto& q : egress_queues_) q.clear();
    }

    // --- debug path ---------------------------------------------------------
    // Injects `pkt` exactly as inject() does -- the clock, counters, egress
    // queues and digest ring move the same way -- and returns everything
    // the pipeline did with it.  A forwarded packet is queued as usual and
    // also stays in the result's `output`.  A copy of the state after each
    // stage the packet reached goes to taps(), overwriting the previous
    // trace's copies in place, so a warm traced inject allocates nothing.
    // FaultLocalizer traces one stimulus on each of its two devices.  With
    // no image loaded nothing runs: the result is default-constructed and
    // taps() holds no stage.
    dataplane::PipelineResult trace(const packet::Packet& pkt);

    // The stage taps of the last trace(); no stage after a load or a
    // reset_state().
    const dataplane::StageTaps& taps() const { return taps_; }

    // Streaming digest mode: per-packet TapDigest records hashed in place
    // by the pipeline, with none of trace()'s PacketState copies.  Recording
    // is synchronous: inject() and trace() append the packet's digest before
    // returning, and the ring keeps the newest kMaxDigestRecords.  This is
    // what the campaign engine's detection loop runs on.
    void set_digests_enabled(bool on);
    const std::vector<dataplane::TapDigest>& digest_records() const {
        return digests_;
    }

    // Appends the recorded digests to `out`, oldest first, and empties the
    // ring.  The ring keeps its capacity, so a warm device records the next
    // batch without growing it again.
    void drain_digests_into(std::vector<dataplane::TapDigest>& out) {
        out.insert(out.end(), digests_.begin(), digests_.end());
        digests_.clear();
    }

    // The recorded digests in one exactly-sized vector; empties the ring.
    std::vector<dataplane::TapDigest> take_digest_records() {
        std::vector<dataplane::TapDigest> out;
        drain_digests_into(out);
        return out;
    }

    // Coverage mode: execution-edge events (parser transitions, table
    // hits/misses, action ids, branch edges) stream into `map` while
    // packets flow; nullptr turns instrumentation off.  The setting
    // survives load().
    void set_coverage(coverage::CoverageMap* map);

    // The salt folded into every coverage slot operand: fnv(backend name)
    // ^ fnv(quirk signature).  coverage::EdgeIndex must be built with the
    // same salt to map slots back to IR sites.
    std::uint64_t coverage_salt() const { return cov_salt_; }

    // Deterministic virtual device clock.
    std::uint64_t now_ns() const { return clock_ns_; }

    // --- management path (control::RuntimeApi) ------------------------------
    // Every write goes through one batch core, which applies the ops in
    // order.  A run of consecutive add_entry ops on one table reaches the
    // table's engine in chunks of at most kEntryChunk entries: the table is
    // resolved once per chunk, an action once per run of its name, and the
    // entries are translated into storage the device keeps.  The three
    // forms below differ only in how they report each op's outcome.  An
    // accepted op allocates nothing on a warm device.
    //
    // One op; a rejected one allocates its Status message.
    control::Status apply(const control::ConfigOp& op);
    // One Status per op, in order.
    std::vector<control::Status> apply(
        std::span<const control::ConfigOp> ops) override;
    // Appends one acceptance bit per op to `accepted` and formats no
    // failure message, so a warm device allocates nothing even for the ops
    // it rejects.
    void apply(std::span<const control::ConfigOp> ops, std::vector<bool>& accepted);
    control::Status read_register(const std::string& name, std::uint64_t index,
                                  util::Bitvec& out) override;
    control::Status read_counter(const std::string& name, std::uint64_t index,
                                 control::CounterValue& out) override;
    control::StatusSnapshot snapshot() override;

    // snapshot() written into `out` in place: every field is overwritten,
    // and its vectors and strings keep their capacity, so snapshotting into
    // the previous run's snapshot allocates nothing.
    void snapshot_into(control::StatusSnapshot& out);

    // Clears dynamic state (queues, counters, registers, digests) but keeps
    // the loaded image and installed table entries, like a hardware
    // soft-reset.
    control::Status reset_state() override;

private:
    // The body of inject() and trace() on a loaded device: with `taps` the
    // pipeline writes its stage copies there and the forwarded packet also
    // stays in the result.
    dataplane::PipelineResult run_packet(const packet::Packet& pkt,
                                         dataplane::StageTaps* taps);

    // The batch core behind the three apply() forms.  It hands op i's
    // outcome to out.result(i, ok), in order, and writes a rejected op's
    // message to *out.message(i) unless that is null.
    template <class Out>
    void apply_ops(std::span<const control::ConfigOp> ops, Out& out);
    // A chunk of consecutive add_entry ops on one table, the first of them
    // op `first` of the batch.
    template <class Out>
    void add_entries(std::span<const control::ConfigOp> chunk, std::size_t first,
                     Out& out);

    // The other ConfigOp kinds, one each.  Like every check below, each
    // returns whether it succeeded and, on failure, writes its message to
    // *why unless `why` is null.
    bool set_default_action(const control::ConfigOp& op, std::string* why);
    bool write_register(const control::ConfigOp& op, std::string* why);
    bool configure_meter(const control::ConfigOp& op, std::string* why);

    // By-name lookups against the loaded image, failing with a message
    // that names what is missing.  find_cell also checks the extern's kind
    // and that `index` addresses one of its cells.
    bool find_table(const std::string& name, const p4::ir::Table*& out,
                    std::string* why) const;
    bool find_cell(const std::string& name, p4::ir::ExternDecl::Kind kind,
                   std::uint64_t index, const p4::ir::ExternDecl*& out,
                   std::string* why) const;
    // Maps a control-plane EntrySpec onto the table's engine entry.  On
    // success every field of `out` has been written, so nothing carries
    // over from the entry it held before, and its vectors keep their
    // capacity, so add_entry on a warm device translates without allocating.
    // `action` is the action an earlier entry on this table resolved (or
    // null): it is reused when the entry names it, and replaced when the
    // entry names another action that resolves.
    bool translate_entry(const p4::ir::Table& table, const control::EntrySpec& entry,
                         const p4::ir::Action*& action, dataplane::TableEntry& out,
                         std::string* why) const;
    // Resolves an action name against a table's permitted actions; `out`
    // is written only on success.
    bool find_action(const p4::ir::Table& table, const std::string& name,
                     const p4::ir::Action*& out, std::string* why) const;
    // Checks `args` against the action's parameters and writes them to
    // `out` resized to its parameter widths.
    bool bind_args(const p4::ir::Action& action, const std::vector<util::Bitvec>& args,
                   std::vector<util::Bitvec>& out, std::string* why) const;
    // Clears queues, port counters, digests and taps (shared by load and
    // soft reset).
    void clear_dynamic_state();

    DeviceConfig config_;
    std::string quirk_signature_;

    std::shared_ptr<const p4::ir::Program> prog_;  // shared, never mutated
    // Built with the device and refilled by every load of another image.
    dataplane::TableSet tables_;
    dataplane::StatefulSet stateful_;
    dataplane::Pipeline pipeline_;
    dataplane::StageTaps taps_;

    // Per-port egress queues: pre-reserved vectors drained by moving the
    // elements out and keeping the capacity, so batched inject/drain rounds
    // stop reallocating.
    std::vector<std::vector<packet::Packet>> egress_queues_;
    std::vector<control::PortCounters> port_counters_;
    std::uint64_t misdirected_ = 0;

    bool digests_enabled_ = false;
    std::vector<dataplane::TapDigest> digests_;
    coverage::CoverageMap* coverage_ = nullptr;  // not owned
    // Per-backend coverage salt (see coverage_salt()).  Two devices tracing
    // the identical path light different slots when they are different
    // backends, which is what lets the campaign scheduler see DUT-side
    // (quirk-divergent) novelty as distinct from reference novelty.
    std::uint64_t cov_salt_ = 0;

    std::uint64_t clock_ns_ = 0;

    // The translation target of set_default_action and of a chunk of one
    // add_entry op, reused by every op so its vectors keep their capacity.
    dataplane::TableEntry entry_scratch_;
    // The translation targets of a longer chunk, grown on first use to the
    // longest chunk seen (at most kEntryChunk) and kept, vectors and all.
    std::vector<dataplane::TableEntry> chunk_entries_;
};

// The paper's bug catalogue for the SDNet-like backend, headed by the
// Section-4 discovery that the parser reject state was never implemented.
dataplane::Quirks sdnet_quirks();

// --- backend registry ---------------------------------------------------------

// Registers `config` as the backend named config.backend: its port count
// and catalogue quirks.  Returns false (and changes nothing) when the name
// is empty or already taken.  "reference" (faithful P4 semantics, the golden
// device of every comparison) and "sdnet" (sdnet_quirks()) are registered
// from the start and cannot be shadowed.
bool register_backend(DeviceConfig config);

// Names of every registered backend, sorted.
std::vector<std::string> registered_backends();

// Builds the backend registered as `name`.  A quirks override replaces its
// catalogue wholesale, so make_device("sdnet", dataplane::Quirks{}) is a
// faithful device named "sdnet".  Returns nullptr for an unknown name.
std::unique_ptr<Device> make_device(
    std::string_view name,
    std::optional<dataplane::Quirks> quirks_override = std::nullopt);

}  // namespace ndb::target
