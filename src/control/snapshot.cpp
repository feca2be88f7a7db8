#include "control/snapshot.h"

#include "util/strings.h"

namespace ndb::control {

std::string StatusSnapshot::to_string() const {
    std::string s = util::format(
        "status @%llu ns\n"
        "  parser: in=%llu accepted=%llu rejected=%llu errors=%llu\n"
        "  drops: ingress=%llu egress=%llu  forwarded=%llu misdirected=%llu\n",
        static_cast<unsigned long long>(taken_at_ns),
        static_cast<unsigned long long>(stages.parser_in),
        static_cast<unsigned long long>(stages.parser_accepted),
        static_cast<unsigned long long>(stages.parser_rejected),
        static_cast<unsigned long long>(stages.parser_errors),
        static_cast<unsigned long long>(stages.ingress_dropped),
        static_cast<unsigned long long>(stages.egress_dropped),
        static_cast<unsigned long long>(stages.forwarded),
        static_cast<unsigned long long>(misdirected));
    for (std::size_t i = 0; i < ports.size(); ++i) {
        const auto& p = ports[i];
        if (p.rx_packets == 0 && p.tx_packets == 0) continue;
        s += util::format("  port %zu: rx=%llu/%lluB tx=%llu/%lluB\n", i,
                          static_cast<unsigned long long>(p.rx_packets),
                          static_cast<unsigned long long>(p.rx_bytes),
                          static_cast<unsigned long long>(p.tx_packets),
                          static_cast<unsigned long long>(p.tx_bytes));
    }
    for (const auto& t : tables) {
        s += util::format("  table %s: hits=%llu misses=%llu entries=%llu/%llu\n",
                          t.name.c_str(), static_cast<unsigned long long>(t.hits),
                          static_cast<unsigned long long>(t.misses),
                          static_cast<unsigned long long>(t.entries),
                          static_cast<unsigned long long>(t.capacity));
    }
    for (const auto& e : externs) {
        s += util::format("  %s %s: cells=%llu state=%016llx", e.kind.c_str(),
                          e.name.c_str(), static_cast<unsigned long long>(e.cells),
                          static_cast<unsigned long long>(e.state_hash));
        if (e.unconfigured_meters > 0) {
            s += util::format(" unconfigured=%llu", static_cast<unsigned long long>(
                                                        e.unconfigured_meters));
        }
        s += "\n";
    }
    return s;
}

std::int64_t StatusSnapshot::unaccounted_packets() const {
    const auto in = static_cast<std::int64_t>(stages.parser_in);
    // `forwarded` counts misdirected packets too, but they never left on a
    // port, so only forwarded - misdirected are accounted for as delivered.
    const auto accounted = static_cast<std::int64_t>(
        stages.parser_rejected + stages.parser_errors + stages.ingress_dropped +
        stages.egress_dropped + stages.forwarded - misdirected);
    return in - accounted;
}

}  // namespace ndb::control
