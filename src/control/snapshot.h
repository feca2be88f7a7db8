// Device status snapshots: the periodic internal status information of the
// paper's status-monitoring use-case.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataplane/pipeline.h"
#include "dataplane/stateful.h"

namespace ndb::control {

struct PortCounters {
    std::uint64_t rx_packets = 0;
    std::uint64_t rx_bytes = 0;
    std::uint64_t tx_packets = 0;
    std::uint64_t tx_bytes = 0;
};

struct TableStatus {
    std::string name;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t entries = 0;
    std::uint64_t capacity = 0;
};

// Per-extern state summary (see dataplane::ExternInfo): the stateful store
// writes it straight into a snapshot's `externs`.
using ExternStatus = dataplane::ExternInfo;

struct StatusSnapshot {
    std::uint64_t taken_at_ns = 0;
    dataplane::StageCounters stages;
    std::vector<PortCounters> ports;
    std::vector<TableStatus> tables;
    std::vector<ExternStatus> externs;

    // Forwarded packets whose egress port does not exist on the device: the
    // pipeline counted them as forwarded, but they never reached any queue.
    // Real hardware discards these silently; the counter makes the loss
    // first-class instead of leaving it to observed-vs-injected arithmetic.
    std::uint64_t misdirected = 0;

    std::string to_string() const;

    // Total packets that entered but neither left on a real port nor were
    // accounted as dropped: nonzero values indicate silent loss inside the
    // device.  Misdirected packets count as lost (the pipeline's `forwarded`
    // includes them, but no port ever saw them).
    std::int64_t unaccounted_packets() const;
};

}  // namespace ndb::control
