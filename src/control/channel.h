// Management-plane messages and the typed client that sends them.
//
// Models the paper's dedicated host<->device management interface: requests
// are explicit messages, a device-side dispatcher executes them against a
// RuntimeApi, and RuntimeClient gives the host tool the same typed API over
// a WireChannel (control/transport.h), which carries every message as a
// control/wire.h frame over a faultable byte-stream link.  Keeping the
// messages explicit is what lets tests and campaigns fault that link.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "control/runtime.h"

namespace ndb::control {

// --- request messages ---------------------------------------------------------

struct AddEntryReq {
    std::string table;
    EntrySpec entry;
};
struct DeleteEntryReq {
    std::string table;
    EntrySpec entry;
};
struct SetDefaultReq {
    std::string table;
    std::string action;
    std::vector<Bitvec> args;
};
struct ClearTableReq {
    std::string table;
};
struct WriteRegisterReq {
    std::string name;
    std::uint64_t index = 0;
    Bitvec value;
};
struct ReadRegisterReq {
    std::string name;
    std::uint64_t index = 0;
};
struct ReadCounterReq {
    std::string name;
    std::uint64_t index = 0;
};
struct ConfigureMeterReq {
    std::string name;
    std::uint64_t index = 0;
    MeterConfig config;
};
struct SnapshotReq {};
struct ResetReq {};
// Batched configuration: every op of a scenario in one frame-level round
// trip instead of one frame per op.  The response carries one Status per op
// (Payload::op_statuses), so callers keep per-op accounting.
struct ApplyConfigReq {
    std::vector<ConfigOp> ops;
};

using Request = std::variant<AddEntryReq, DeleteEntryReq, SetDefaultReq,
                             ClearTableReq, WriteRegisterReq, ReadRegisterReq,
                             ReadCounterReq, ConfigureMeterReq, SnapshotReq,
                             ResetReq, ApplyConfigReq>;

// --- response -------------------------------------------------------------------

struct Response {
    // Which optional field below actually carries data.  Callers used to
    // have to know which field was live from the request they sent; the
    // explicit discriminator makes a mismatched (or corrupted-in-flight)
    // response a detectable protocol error instead of silently-default
    // garbage.
    enum class Payload : std::uint8_t {
        none = 0,
        register_value = 1,
        counter_value = 2,
        snapshot = 3,
        op_statuses = 4,
    };

    Status status;
    Payload payload = Payload::none;
    Bitvec register_value;       // payload == register_value
    CounterValue counter_value;  // payload == counter_value
    StatusSnapshot snapshot;     // payload == snapshot
    std::vector<Status> op_statuses;  // payload == op_statuses
};

const char* payload_name(Response::Payload payload);

// Executes one request against a device runtime.
Response dispatch(RuntimeApi& device, const Request& request);

class WireChannel;  // control/transport.h: the faultable wire-protocol channel

// RuntimeApi implementation that tunnels every call through a WireChannel,
// giving the host tool location transparency.  The channel serializes every
// request into a wire frame, survives injected link faults via
// sequence-numbered retries, and returns first-class Status failures --
// "wire: request ... timed out", "response carried payload ..." -- instead
// of default-constructed garbage.
class RuntimeClient final : public RuntimeApi {
public:
    explicit RuntimeClient(WireChannel& channel) : channel_(&channel) {}

    Status add_entry(const std::string& table, const EntrySpec& entry) override;
    Status delete_entry(const std::string& table, const EntrySpec& entry) override;
    Status set_default_action(const std::string& table, const std::string& action,
                              const std::vector<Bitvec>& args) override;
    Status clear_table(const std::string& table) override;
    Status write_register(const std::string& name, std::uint64_t index,
                          const Bitvec& value) override;
    Status read_register(const std::string& name, std::uint64_t index,
                         Bitvec& out) override;
    Status read_counter(const std::string& name, std::uint64_t index,
                        CounterValue& out) override;
    Status configure_meter(const std::string& name, std::uint64_t index,
                           const MeterConfig& config) override;
    // One ApplyConfigReq frame for the whole batch.  A transport-level
    // failure (timeout, wrong payload) is reported on every op, so per-op
    // accounting -- including the "wire:" failure-message convention --
    // survives the batching.
    std::vector<Status> apply(std::span<const ConfigOp> ops) override;
    StatusSnapshot snapshot() override;
    Status reset_state() override;

private:
    // Shared guard for the read-style calls: a success response whose
    // payload discriminator does not match `want` is a protocol error.
    static Status expect_payload(const Response& response,
                                 Response::Payload want);

    WireChannel* channel_;
};

}  // namespace ndb::control
