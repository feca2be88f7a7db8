// Control-plane value types and the replayable configuration op.
//
// This header is the bottom of the control-plane layering: the plain value
// types every management surface exchanges (Status, EntrySpec, MeterConfig,
// the wire's ChannelStats) plus ConfigOp, the single replayable programming
// step that scenarios, campaign recipes, and the batched wire request all
// carry.  runtime.h
// builds the RuntimeApi interface on top of these; nothing here depends on
// it, so channel codecs and scenario synthesis can share the types without
// dragging in the API surface.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bitvec.h"

namespace ndb::control {

using util::Bitvec;

struct Status {
    bool ok = true;
    std::string message;

    static Status success() { return {}; }
    static Status failure(std::string msg) { return {false, std::move(msg)}; }
    explicit operator bool() const { return ok; }
};

// Control-plane view of a table entry, with names instead of ids.
struct EntrySpec {
    std::vector<Bitvec> key_values;
    std::vector<Bitvec> key_masks;   // ternary
    int prefix_len = -1;             // lpm
    int priority = 0;                // ternary
    std::string action;
    std::vector<Bitvec> action_args;
};

struct CounterValue {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
};

struct MeterConfig {
    double committed_rate_bps = 0;     // bytes per second
    std::uint64_t committed_burst = 0;
    double excess_rate_bps = 0;
    std::uint64_t excess_burst = 0;
};

// Management-wire traffic counters.  WireChannel counts the client side;
// LoopbackTransport adds the link's fault decisions and the device end's
// dedup hits.
struct ChannelStats {
    std::uint64_t requests = 0;         // transact() calls
    std::uint64_t frames_sent = 0;      // request frames emitted (incl. retries)
    std::uint64_t retries = 0;          // re-sends after a timed-out attempt
    std::uint64_t timeouts = 0;         // requests that exhausted every attempt
    std::uint64_t decode_errors = 0;    // response frames that failed to decode
    std::uint64_t faults_injected = 0;  // fault decisions, both directions
    std::uint64_t dedup_hits = 0;       // retries answered from the dedup cache

    void add(const ChannelStats& o) {
        requests += o.requests;
        frames_sent += o.frames_sent;
        retries += o.retries;
        timeouts += o.timeouts;
        decode_errors += o.decode_errors;
        faults_injected += o.faults_injected;
        dedup_hits += o.dedup_hits;
    }
};

// One replayable control-plane programming step, and the only way to write
// to a device.  Scenarios carry these instead of side effects so the
// identical configuration can be applied to the reference device and every
// DUT in the sweep -- and shipped as one batched wire request
// (RuntimeApi::apply).
struct ConfigOp {
    enum class Kind { add_entry, set_default_action, write_register, configure_meter };

    Kind kind = Kind::add_entry;
    std::string target;  // table name, or register/meter extern name

    EntrySpec entry;                  // add_entry
    std::string action;               // set_default_action
    std::vector<Bitvec> action_args;  // set_default_action
    std::uint64_t index = 0;          // write_register / configure_meter
    Bitvec value;                     // write_register
    MeterConfig meter;                // configure_meter
};

}  // namespace ndb::control
