// The device layer: what a "real target" looks like to the rest of the
// framework (paper Figure 1).
//
// A target::Device is one switch: it accepts a compiled program image,
// packets on its front-panel ports, and management-plane commands.  It
// exposes the three surfaces the paper's architecture needs:
//
//   * the data path       -- inject() / drain_port(), per-port egress queues;
//   * the management path -- the full control::RuntimeApi (a Device IS a
//                            RuntimeApi, so control::dispatch and therefore
//                            RuntimeClient message traffic work end-to-end --
//                            in-process over control::Channel, or serialized
//                            as control/wire.h frames over a faultable
//                            control/transport.h link, which is how the
//                            multi-process campaign fabric and the
//                            management-plane fuzzing mode drive a device);
//   * the debug path      -- stage taps (tap_records()) that give NetDebug
//                            the internal visibility external testers lack.
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
#include <string>
#include <string_view>
#include <vector>

#include "control/runtime.h"
#include "dataplane/pipeline.h"
#include "dataplane/quirks.h"
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

// Static device parameters, fixed for the lifetime of one device instance.
struct DeviceConfig {
    std::string backend;  // filled in by the factory when left empty
    int num_ports = 4;

    // Tap ring size; the oldest half is discarded when it fills, and 0
    // disables recording entirely.
    std::size_t max_tap_records = 4096;

    // Backend behaviour deviations; all-defaults = faithful P4 semantics.
    dataplane::Quirks quirks;
};

// One traced packet: the stimulus as injected plus everything the pipeline
// did with it.  Only recorded while taps are enabled.
struct TapRecord {
    packet::Packet input;
    dataplane::PipelineResult result;
};

class Device : public control::RuntimeApi {
public:
    ~Device() override = default;

    // Installs a compiled program image.  The image is shared and
    // immutable: the device keeps the pointer, not a copy, so many devices
    // (and worker threads) may hold one image at once.  Loading a different
    // image replaces the previous program, its tables and its dynamic
    // state.  Loading the image the device already holds returns it to its
    // freshly loaded state in place -- no entries, declared default
    // actions, zeroed extern cells, counters, queues, taps and digests --
    // without rebuilding the pipeline.  Either way every handle resolved
    // before the call goes stale.  A null image is refused.
    virtual control::Status load(
        std::shared_ptr<const p4::ir::Program> image) = 0;

    // Convenience for callers that own a plain program: copies `prog` once
    // into a new shared image and loads that, so `prog` may be discarded
    // as soon as this returns.  A new image never matches the held one, so
    // this path always rebuilds.
    control::Status load(const p4::ir::Program& prog) {
        return load(std::make_shared<const p4::ir::Program>(prog.clone()));
    }

    virtual bool loaded() const = 0;

    // The installed image.  Throws std::logic_error when nothing is loaded.
    virtual const p4::ir::Program& program() const = 0;

    virtual const DeviceConfig& config() const = 0;

    // --- data path ----------------------------------------------------------
    virtual void inject(packet::Packet pkt) = 0;
    virtual std::vector<packet::Packet> drain_port(std::uint32_t port) = 0;

    // Appends everything pending on `port` to `out` (callers reuse one
    // buffer across batched inject/drain rounds instead of receiving a
    // fresh vector per round).  Backends should override with a move-out
    // implementation; the default adapts drain_port().
    virtual void drain_port_into(std::uint32_t port,
                                 std::vector<packet::Packet>& out) {
        auto drained = drain_port(port);
        out.insert(out.end(), std::make_move_iterator(drained.begin()),
                   std::make_move_iterator(drained.end()));
    }

    // Drains and discards everything pending on every port.
    void flush() {
        for (int port = 0; port < config().num_ports; ++port) {
            drain_port(static_cast<std::uint32_t>(port));
        }
    }

    // --- debug path ---------------------------------------------------------
    // Recording is synchronous: while taps are enabled (and the ring has
    // capacity), every inject() appends its record before returning, so an
    // empty ring right after an injection means this device cannot record.
    // FaultLocalizer relies on this to tell "clean" from "unobservable";
    // backends wrapping asynchronous hardware must buffer until records
    // are available rather than return an empty ring early.
    virtual void set_taps_enabled(bool on) = 0;
    virtual bool taps_enabled() const = 0;
    virtual const std::vector<TapRecord>& tap_records() const = 0;
    virtual void clear_tap_records() = 0;

    // Streaming digest mode: per-packet TapDigest records hashed in place
    // by the pipeline, with the same synchronous-recording contract as the
    // full tap ring but none of the PacketState copies.  This is what the
    // campaign engine's detection loop runs on; full taps remain for
    // replay-based tools (FaultLocalizer).
    virtual void set_digests_enabled(bool on) = 0;
    virtual bool digests_enabled() const = 0;
    virtual const std::vector<dataplane::TapDigest>& digest_records() const = 0;
    virtual void clear_digest_records() = 0;

    // Moves the digest ring out and leaves it empty: the hot-path accessor
    // for consumers that would otherwise copy the records per scenario.
    virtual std::vector<dataplane::TapDigest> take_digest_records() {
        std::vector<dataplane::TapDigest> out = digest_records();
        clear_digest_records();
        return out;
    }

    // Coverage mode: execution-edge events (parser transitions, table
    // hits/misses, action ids, branch edges) stream into `map` while
    // packets flow; nullptr turns instrumentation off.  The setting
    // survives load() on backends that support it.  The default is a no-op
    // so external backends without instrumentation keep compiling; the
    // campaign scheduler treats their (never-written) maps as zero delta.
    virtual void set_coverage(coverage::CoverageMap* /*map*/) {}
    virtual coverage::CoverageMap* coverage() const { return nullptr; }

    // The salt this backend folds into its coverage slot operands (on
    // SimDevice: backend name ^ quirk signature).  coverage::EdgeIndex must
    // be built with the same salt to map slots back to IR sites; the
    // default matches the un-instrumented set_coverage() default above.
    virtual std::uint64_t coverage_salt() const { return 0; }

    // Deterministic virtual device clock.
    virtual std::uint64_t now_ns() const = 0;

    // The management surface, for callers that want the role spelled out
    // (control::dispatch also accepts the Device itself).
    control::RuntimeApi& runtime() { return *this; }
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
