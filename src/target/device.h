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
//   * the debug path      -- trace(), an inject() that also hands back the
//                            packet's stage taps, and the streaming digest
//                            ring: the internal visibility external testers
//                            lack.
//
// Backends differ only in how faithfully they execute P4: the reference
// backend implements the language semantics exactly, the SDNet-like backend
// carries the paper's bug catalogue as a dataplane::Quirks value.  New
// backends register themselves with register_backend() so campaigns and the
// fault localizer (which needs a DUT *and* a golden device) compose without
// touching callers.
#pragma once

#include <cstdint>
#include <functional>
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

// Static device parameters, fixed for the lifetime of one device instance.
struct DeviceConfig {
    std::string backend;  // filled in by the factory when left empty
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

    // Installs a compiled program image.  The image is shared and
    // immutable: the device keeps the pointer, not a copy, so many devices
    // (and worker threads) may hold one image at once.  Loading a different
    // image replaces the previous program, its tables and its dynamic
    // state.  Loading the image the device already holds returns it to its
    // freshly loaded state in place -- no entries, declared default
    // actions, zeroed extern cells, counters, queues and digests --
    // without rebuilding the pipeline.  A null image is refused.
    control::Status load(std::shared_ptr<const p4::ir::Program> image);

    // Convenience for callers that own a plain program: copies `prog` once
    // into a new shared image and loads that, so `prog` may be discarded
    // as soon as this returns.  A new image never matches the held one, so
    // this path always rebuilds.
    control::Status load(const p4::ir::Program& prog) {
        return load(std::make_shared<const p4::ir::Program>(prog.clone()));
    }

    bool loaded() const { return pipeline_ != nullptr; }

    // The installed image.  Throws std::logic_error when nothing is loaded.
    const p4::ir::Program& program() const;

    const DeviceConfig& config() const { return config_; }

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

    // Drains and discards everything pending on every port; the queues
    // keep their capacity.
    void flush() {
        for (auto& q : egress_queues_) q.clear();
    }

    // --- debug path ---------------------------------------------------------
    // Injects `pkt` exactly as inject() does -- the clock, counters, egress
    // queues and digest ring move the same way -- and returns everything
    // the pipeline did with it, including a copy of the state after each
    // stage the packet reached.  A forwarded packet is queued as usual and
    // also stays in the result's `output`.  FaultLocalizer traces one
    // stimulus on each of its two devices.  With no image loaded nothing
    // runs and the result is default-constructed, no stage reached.
    dataplane::PipelineResult trace(const packet::Packet& pkt);

    // Streaming digest mode: per-packet TapDigest records hashed in place
    // by the pipeline, with none of trace()'s PacketState copies.  Recording
    // is synchronous: inject() and trace() append the packet's digest before
    // returning, and the ring keeps the newest kMaxDigestRecords.  This is
    // what the campaign engine's detection loop runs on.
    void set_digests_enabled(bool on);
    const std::vector<dataplane::TapDigest>& digest_records() const {
        return digests_;
    }

    // Hands out the recorded digests in one exactly-sized vector and
    // empties the ring.  The ring keeps its capacity, so a warm device
    // records the next run without growing it again.
    std::vector<dataplane::TapDigest> take_digest_records() {
        std::vector<dataplane::TapDigest> out(digests_.begin(), digests_.end());
        digests_.clear();
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
    std::vector<control::Status> apply(
        std::span<const control::ConfigOp> ops) override;
    control::Status read_register(const std::string& name, std::uint64_t index,
                                  util::Bitvec& out) override;
    control::Status read_counter(const std::string& name, std::uint64_t index,
                                 control::CounterValue& out) override;
    control::StatusSnapshot snapshot() override;

    // Clears dynamic state (queues, counters, registers, digests) but keeps
    // the loaded image and installed table entries, like a hardware
    // soft-reset.
    control::Status reset_state() override;

private:
    // The body of inject() and trace() on a loaded device: `taps` asks the
    // pipeline for its stage copies and keeps the forwarded packet in the
    // result.
    dataplane::PipelineResult run_packet(const packet::Packet& pkt, bool taps);

    // One ConfigOp kind each; apply() dispatches on the op's kind.
    control::Status add_entry(const control::ConfigOp& op);
    control::Status set_default_action(const control::ConfigOp& op);
    control::Status write_register(const control::ConfigOp& op);
    control::Status configure_meter(const control::ConfigOp& op);

    // By-name lookups against the loaded image, failing with a message
    // that names what is missing.  find_cell also checks the extern's kind
    // and that `index` addresses one of its cells.
    control::Status find_table(const std::string& name,
                               const p4::ir::Table*& out) const;
    control::Status find_cell(const std::string& name,
                              p4::ir::ExternDecl::Kind kind, std::uint64_t index,
                              const p4::ir::ExternDecl*& out) const;
    // Maps a control-plane EntrySpec onto the table's engine entry.  On
    // success every field of `out` has been written, so nothing carries
    // over from the entry it held before, and its vectors keep their
    // capacity, so add_entry on a warm device translates without allocating.
    control::Status translate_entry(const p4::ir::Table& table,
                                    const control::EntrySpec& entry,
                                    dataplane::TableEntry& out) const;
    // Resolves an action name + args against a table's permitted actions,
    // writing the action id and the args resized to its parameter widths.
    control::Status resolve_action(const p4::ir::Table& table,
                                   const std::string& action,
                                   const std::vector<util::Bitvec>& args,
                                   int& action_id,
                                   std::vector<util::Bitvec>& out_args) const;
    // Clears queues, port counters and digests (shared by load and soft reset).
    void clear_dynamic_state();

    DeviceConfig config_;

    std::shared_ptr<const p4::ir::Program> prog_;  // shared, never mutated
    std::unique_ptr<dataplane::TableSet> tables_;
    std::unique_ptr<dataplane::StatefulSet> stateful_;
    std::unique_ptr<dataplane::Pipeline> pipeline_;

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

    // add_entry's translation target, reused by every op.
    dataplane::TableEntry entry_scratch_;
};

// The paper's bug catalogue for the SDNet-like backend, headed by the
// Section-4 discovery that the parser reject state was never implemented.
dataplane::Quirks sdnet_quirks();

// Faithful P4 semantics: the golden device of every comparison.
std::unique_ptr<Device> make_reference_device(DeviceConfig config = {});

// The vendor backend.  When `config.quirks` is all-defaults the full
// sdnet_quirks() catalogue is applied; a config with any quirk already set
// replaces the catalogue wholesale (use make_device("sdnet", override) for
// the same semantics by name).
std::unique_ptr<Device> make_sdnet_device(DeviceConfig config = {});

// --- backend registry ---------------------------------------------------------

// A factory receives the quirks override requested through make_device();
// std::nullopt means "use the backend's own catalogue".
using DeviceFactory =
    std::function<std::unique_ptr<Device>(std::optional<dataplane::Quirks>)>;

// Registers a backend under `name`; returns false (and changes nothing)
// when the name is already taken.  "reference" and "sdnet" are pre-registered.
bool register_backend(const std::string& name, DeviceFactory factory);

// Names of every registered backend, sorted.
std::vector<std::string> registered_backends();

// Instantiates a backend by name, optionally overriding its quirk catalogue.
// Returns nullptr for an unknown name.
std::unique_ptr<Device> make_device(
    std::string_view name,
    std::optional<dataplane::Quirks> quirks_override = std::nullopt);

}  // namespace ndb::target
