// Control-plane runtime API.
//
// This is the management surface a host tool uses to program and inspect a
// device.  Every write -- table entries, default actions, register cells,
// meter configurations -- is a ConfigOp, and a batch of them goes through
// apply() in one call (one ApplyConfigReq frame over the wire).  Reads name
// tables and externs the way P4 source does.  target::Device implements it
// directly; RuntimeClient speaks it over the message channel (the paper's
// "dedicated interface").
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "control/config.h"
#include "control/snapshot.h"
#include "util/bitvec.h"

namespace ndb::control {

using util::Bitvec;

class RuntimeApi {
public:
    virtual ~RuntimeApi() = default;

    // Applies the ops in order and returns one Status per op (never fewer:
    // a transport-level loss reports per-op failures).
    virtual std::vector<Status> apply(std::span<const ConfigOp> ops) = 0;

    virtual Status read_register(const std::string& name, std::uint64_t index,
                                 Bitvec& out) = 0;
    virtual Status read_counter(const std::string& name, std::uint64_t index,
                                CounterValue& out) = 0;

    virtual StatusSnapshot snapshot() = 0;
    virtual Status reset_state() = 0;
};

}  // namespace ndb::control
