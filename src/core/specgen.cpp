#include "core/specgen.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>

#include "core/tools.h"
#include "p4/programs.h"
#include "packet/protocols.h"
#include "util/random.h"

namespace ndb::core {

using util::Bitvec;
using util::Rng;

namespace {

// Field bit offsets in an Ethernet(+IPv4(+UDP)) frame.
constexpr std::size_t kEthDstBit = 0;
constexpr std::size_t kEthSrcBit = 48;
constexpr std::size_t kEthTypeBit = 96;
constexpr std::size_t kIpv4ProtoBit = (14 + 9) * 8;
constexpr std::size_t kIpv4SrcBit = (14 + 12) * 8;
constexpr std::size_t kUdpSrcPortBit = (14 + 20) * 8;
constexpr std::size_t kUdpDstPortBit = (14 + 20 + 2) * 8;

Bitvec mac_bits(const packet::Mac& mac) {
    return Bitvec::from_bytes(
        std::span<const std::uint8_t>(mac.data(), mac.size()), 48);
}

ConfigOp entry_op(std::string table, control::EntrySpec entry) {
    ConfigOp op;
    op.kind = ConfigOp::Kind::add_entry;
    op.target = std::move(table);
    op.entry = std::move(entry);
    return op;
}

ConfigOp register_op(std::string name, std::uint64_t index, Bitvec value) {
    ConfigOp op;
    op.kind = ConfigOp::Kind::write_register;
    op.target = std::move(name);
    op.index = index;
    op.value = std::move(value);
    return op;
}

FieldMutation mutation(std::size_t bit_offset, int width, FieldMutation::Mode mode,
                       std::uint64_t value, std::uint64_t step = 1,
                       std::uint64_t range = 0) {
    FieldMutation m;
    m.bit_offset = bit_offset;
    m.width = width;
    m.mode = mode;
    m.value = Bitvec(width, value);
    m.step = step;
    m.range = range;
    return m;
}

std::uint32_t pick_port(Rng& rng) { return static_cast<std::uint32_t>(rng.next_range(1, 3)); }

// An Ethernet + tunnel_t + IPv4/UDP frame for the tunnel program's decap path.
packet::Packet tunnel_packet(std::uint16_t dst_id) {
    const packet::Packet inner = scenario::ipv4_udp_packet();
    std::vector<std::uint8_t> bytes(inner.data().begin(), inner.data().begin() + 14);
    bytes[12] = 0x12;  // TYPE_TUNNEL
    bytes[13] = 0x12;
    bytes.push_back(0x08);  // proto_id: the encapsulated etherType
    bytes.push_back(0x00);
    bytes.push_back(static_cast<std::uint8_t>(dst_id >> 8));
    bytes.push_back(static_cast<std::uint8_t>(dst_id & 0xff));
    bytes.insert(bytes.end(), inner.data().begin() + 14, inner.data().end());
    return packet::Packet(bytes);
}

// --- per-program synthesis ----------------------------------------------------
//
// Each builder fills the scenario's config ops and packet plan.  The guiding
// rule: every plan must (a) stay deterministic in `rng` alone and (b) steer
// some packets through the program's interesting paths (misses, rejects,
// deep stacks, overlapping ternary entries) so backend deviations have
// something to diverge on.

void build_passthrough(Rng& rng, Scenario& s) {
    s.spec.tmpl.base = rng.next_bool(0.75) ? scenario::ipv4_udp_packet()
                                           : scenario::arp_packet();
    s.spec.tmpl.mutations.push_back(
        mutation(kEthSrcBit + 32, 16, FieldMutation::Mode::random, 0));
}

void build_l2_switch(Rng& rng, Scenario& s) {
    // Entries for a subset of hosts 1..8; the template's destination MAC
    // sweeps the full range, so some packets hit and some miss (drop).
    const std::uint64_t installed = rng.next_range(2, 6);
    for (std::uint64_t i = 0; i < installed; ++i) {
        const int host = static_cast<int>(rng.next_range(1, 8));
        control::EntrySpec e;
        e.key_values = {mac_bits(scenario::host_mac(host))};
        e.action = "forward";
        e.action_args = {Bitvec(9, pick_port(rng))};
        s.config.push_back(entry_op("dmac", std::move(e)));
    }
    s.spec.tmpl.base = scenario::ipv4_udp_packet();
    s.spec.tmpl.mutations.push_back(
        mutation(kEthDstBit + 40, 8, FieldMutation::Mode::sweep, 1, 1, 8));
}

void build_ipv4_router(Rng& rng, Scenario& s) {
    {  // default route, so most packets forward (and update the checksum)
        control::EntrySpec e;
        e.key_values = {Bitvec(32, 0)};
        e.prefix_len = 0;
        e.action = "ipv4_forward";
        e.action_args = {mac_bits(scenario::host_mac(2)), Bitvec(9, pick_port(rng))};
        s.config.push_back(entry_op("ipv4_lpm", std::move(e)));
    }
    const std::uint64_t routes = rng.next_range(0, 2);
    for (std::uint64_t i = 0; i < routes; ++i) {
        control::EntrySpec e;
        e.key_values = {Bitvec(32, scenario::host_ip(0) |
                                       (rng.next_range(0, 3) << 8))};
        e.prefix_len = 24;
        e.action = "ipv4_forward";
        e.action_args = {mac_bits(scenario::host_mac(3)), Bitvec(9, pick_port(rng))};
        s.config.push_back(entry_op("ipv4_lpm", std::move(e)));
    }
    s.spec.tmpl.base =
        scenario::ipv4_udp_packet(64, static_cast<std::uint8_t>(rng.next_range(2, 64)));
    // Third byte of the destination sweeps across the installed /24s; the
    // TTL sweep reaches 0 now and then to exercise the drop branch.
    s.spec.tmpl.mutations.push_back(
        mutation(scenario::kIpv4DstBit + 16, 8, FieldMutation::Mode::sweep, 0, 1, 4));
    if (rng.next_bool(0.5)) {
        s.spec.tmpl.mutations.push_back(
            mutation(scenario::kIpv4TtlBit, 8, FieldMutation::Mode::sweep, 0, 1, 3));
    }
}

void build_reject_filter(Rng& rng, Scenario& s) {
    s.spec.tmpl.base = scenario::ipv4_udp_packet();
    // Alternate IPv4 (accepted) and ARP (must be rejected) etherTypes: the
    // paper's Section-4 scenario, where reject_as_accept backends forward
    // what the program says to drop.
    s.spec.tmpl.mutations.push_back(
        mutation(kEthTypeBit, 16, FieldMutation::Mode::sweep, 0x0800, 6, 2));
    if (rng.next_bool(0.5)) {
        s.spec.tmpl.mutations.push_back(
            mutation(kEthSrcBit + 32, 16, FieldMutation::Mode::random, 0));
    }
}

void build_acl_firewall(Rng& rng, Scenario& s) {
    // One low-priority wildcard allow and one high-priority specific entry
    // with a different egress: packets matching both expose a backwards
    // priority encoder.  Extra random entries thicken the overlap.
    const std::uint32_t wildcard_port = pick_port(rng);
    {
        control::EntrySpec e;
        e.key_values = {Bitvec(32, 0), Bitvec(32, 0), Bitvec(8, 0), Bitvec(16, 0)};
        e.key_masks = {Bitvec(32, 0), Bitvec(32, 0), Bitvec(8, 0), Bitvec(16, 0)};
        e.priority = 1;
        e.action = "allow";
        e.action_args = {Bitvec(9, wildcard_port)};
        s.config.push_back(entry_op("acl", std::move(e)));
    }
    {
        control::EntrySpec e;
        e.key_values = {Bitvec(32, 0), Bitvec(32, 0), Bitvec(8, packet::kIpProtoUdp),
                        Bitvec(16, 7000)};
        e.key_masks = {Bitvec(32, 0), Bitvec(32, 0), Bitvec(8, 0xff),
                       Bitvec(16, 0xffff)};
        e.priority = static_cast<int>(rng.next_range(5, 15));
        e.action = rng.next_bool(0.8) ? "allow" : "deny";
        e.action_args = e.action == "allow"
                            ? std::vector<Bitvec>{Bitvec(9, (wildcard_port % 3) + 1)}
                            : std::vector<Bitvec>{};
        s.config.push_back(entry_op("acl", std::move(e)));
    }
    const std::uint64_t extra = rng.next_range(0, 3);
    for (std::uint64_t i = 0; i < extra; ++i) {
        control::EntrySpec e;
        e.key_values = {Bitvec(32, 0), Bitvec(32, 0), Bitvec(8, 0),
                        Bitvec(16, 7000 + rng.next_range(0, 3))};
        e.key_masks = {Bitvec(32, 0), Bitvec(32, 0), Bitvec(8, 0),
                       Bitvec(16, 0xffff)};
        e.priority = static_cast<int>(rng.next_range(2, 12));
        e.action = rng.next_bool(0.7) ? "allow" : "deny";
        e.action_args = e.action == "allow"
                            ? std::vector<Bitvec>{Bitvec(9, pick_port(rng))}
                            : std::vector<Bitvec>{};
        s.config.push_back(entry_op("acl", std::move(e)));
    }
    s.spec.tmpl.base = scenario::ipv4_udp_packet();
    s.spec.tmpl.mutations.push_back(
        mutation(kUdpDstPortBit, 16, FieldMutation::Mode::sweep, 7000, 1, 4));
    if (rng.next_bool(0.4)) {
        // 16 -> reject path, 17 -> UDP: exercises the parser's protocol gate.
        s.spec.tmpl.mutations.push_back(
            mutation(kIpv4ProtoBit, 8, FieldMutation::Mode::sweep, 16, 1, 2));
    }
}

void build_tunnel(Rng& rng, Scenario& s) {
    if (rng.next_bool(0.5)) {
        // Encap direction: plain IPv4 in, tunnel header pushed on a hit.
        for (int host = 2; host <= 3; ++host) {
            control::EntrySpec e;
            e.key_values = {Bitvec(32, scenario::host_ip(host))};
            e.action = "tunnel_encap";
            e.action_args = {Bitvec(16, rng.next_range(1, 500)),
                             Bitvec(9, pick_port(rng))};
            s.config.push_back(entry_op("encap_map", std::move(e)));
        }
        s.spec.tmpl.base = scenario::ipv4_udp_packet();
        s.spec.tmpl.mutations.push_back(mutation(
            scenario::kIpv4DstBit + 24, 8, FieldMutation::Mode::sweep, 2, 1, 3));
    } else {
        // Decap direction: tunnel-headed packets, ids partially installed.
        const std::uint16_t base_id = static_cast<std::uint16_t>(rng.next_range(10, 40));
        const std::uint64_t installed = rng.next_range(1, 3);
        for (std::uint64_t i = 0; i < installed; ++i) {
            control::EntrySpec e;
            e.key_values = {Bitvec(16, base_id + i)};
            e.action = rng.next_bool(0.5) ? "tunnel_decap" : "tunnel_forward";
            e.action_args = {Bitvec(9, pick_port(rng))};
            s.config.push_back(entry_op("tunnel_exact", std::move(e)));
        }
        s.spec.tmpl.base = tunnel_packet(base_id);
        s.spec.tmpl.mutations.push_back(
            mutation((14 + 2) * 8, 16, FieldMutation::Mode::sweep, base_id, 1, 4));
    }
}

void build_deep_parser(Rng& rng, Scenario& s) {
    const int depth = static_cast<int>(rng.next_range(1, 8));
    const std::uint64_t installed = rng.next_range(1, 4);
    for (std::uint64_t i = 0; i < installed; ++i) {
        control::EntrySpec e;
        e.key_values = {Bitvec(20, 100 + rng.next_range(0, 7))};
        e.action = "pop_forward";
        e.action_args = {Bitvec(9, pick_port(rng))};
        s.config.push_back(entry_op("label_fib", std::move(e)));
    }
    s.spec.tmpl.base = scenario::label_stack_packet(depth);
    // Low byte of the top label sweeps the installed range (labels 100+).
    s.spec.tmpl.mutations.push_back(
        mutation(14 * 8 + 12, 8, FieldMutation::Mode::sweep, 100, 1, 8));
}

void build_stats_monitor(Rng& rng, Scenario& s) {
    ConfigOp op;
    op.kind = ConfigOp::Kind::write_register;
    op.target = "port_pkts";
    op.index = s.spec.inject_port;
    op.value = Bitvec(48, rng.next_range(0, 1u << 20));
    s.config.push_back(std::move(op));
    s.spec.tmpl.base = scenario::ipv4_udp_packet();
    s.spec.tmpl.mutations.push_back(
        mutation(kEthSrcBit, 32, FieldMutation::Mode::random, 0));
}

void build_wide_match(Rng& rng, Scenario& s) {
    const packet::Packet base = scenario::ipv4_udp_packet();
    // flow_wide entries for a couple of the swept destination addresses;
    // non-installed tuples drop at the wide table.
    const std::uint64_t installed = rng.next_range(1, 3);
    for (std::uint64_t i = 0; i < installed; ++i) {
        control::EntrySpec e;
        e.key_values = {mac_bits(scenario::host_mac(2)), mac_bits(scenario::host_mac(1)),
                        Bitvec(32, scenario::host_ip(1)),
                        Bitvec(32, scenario::host_ip(static_cast<int>(2 + i))),
                        Bitvec(8, packet::kIpProtoUdp)};
        e.action = "set_port";
        e.action_args = {Bitvec(9, pick_port(rng))};
        s.config.push_back(entry_op("flow_wide", std::move(e)));
    }
    {  // backup wildcard: survivors of flow_wide keep a port
        control::EntrySpec e;
        e.key_values = {Bitvec(32, 0)};
        e.key_masks = {Bitvec(32, 0)};
        e.priority = 1;
        e.action = "set_port";
        e.action_args = {Bitvec(9, pick_port(rng))};
        s.config.push_back(entry_op("backup", std::move(e)));
    }
    {  // overlapping higher-priority backup entry with its own egress
        control::EntrySpec e;
        e.key_values = {Bitvec(32, scenario::host_ip(2))};
        e.key_masks = {Bitvec(32, 0xffffffffu)};
        e.priority = static_cast<int>(rng.next_range(2, 9));
        e.action = "set_port";
        e.action_args = {Bitvec(9, pick_port(rng))};
        s.config.push_back(entry_op("backup", std::move(e)));
    }
    s.spec.tmpl.base = base;
    s.spec.tmpl.mutations.push_back(
        mutation(scenario::kIpv4DstBit + 24, 8, FieldMutation::Mode::sweep, 2, 1, 4));
}

void build_variant(Rng& rng, Scenario& s) {
    s.spec.tmpl.base =
        scenario::ipv4_udp_packet(64, static_cast<std::uint8_t>(rng.next_range(0, 64)));
    s.spec.tmpl.mutations.push_back(
        mutation(scenario::kIpv4TtlBit, 8, FieldMutation::Mode::increment, 0, 1));
    if (rng.next_bool(0.3)) {
        s.spec.tmpl.mutations.push_back(
            mutation(kEthTypeBit, 16, FieldMutation::Mode::sweep, 0x0800, 6, 2));
    }
}

void build_shift_mangler(Rng& rng, Scenario& s) {
    s.spec.tmpl.base = scenario::ipv4_udp_packet();
    // The program right-shifts etherType and dstAddr; randomized inputs make
    // shift direction observable on nearly every packet.
    s.spec.tmpl.mutations.push_back(
        mutation(kEthDstBit, 48, FieldMutation::Mode::random, 0));
    if (rng.next_bool(0.5)) {
        s.spec.tmpl.mutations.push_back(
            mutation(kEthTypeBit, 16, FieldMutation::Mode::random, 0));
    }
}

void build_metered_policer(Rng& rng, Scenario& s) {
    // Rate-limit the inject port so the 672ns-per-packet timeline outruns
    // the committed bucket partway through the stream: the meter walks
    // green -> yellow -> red within one scenario, and red packets drop.
    ConfigOp op;
    op.kind = ConfigOp::Kind::configure_meter;
    op.target = "port_meter";
    op.index = s.spec.inject_port;
    op.meter.committed_rate_bps = 1e6 * static_cast<double>(rng.next_range(1, 32));
    op.meter.committed_burst = 64 + rng.next_range(0, 3) * 96;
    op.meter.excess_rate_bps = op.meter.committed_rate_bps * 2;
    op.meter.excess_burst = op.meter.committed_burst + rng.next_range(64, 256);
    s.config.push_back(std::move(op));
    s.spec.tmpl.base = scenario::ipv4_udp_packet();
    s.spec.tmpl.mutations.push_back(
        mutation(kEthSrcBit + 32, 16, FieldMutation::Mode::random, 0));
}

void build_meta_echo(Rng& rng, Scenario& s) {
    s.spec.tmpl.base = scenario::ipv4_udp_packet();
    s.spec.tmpl.mutations.push_back(
        mutation(kEthSrcBit, 48,
                 rng.next_bool(0.5) ? FieldMutation::Mode::random
                                    : FieldMutation::Mode::increment,
                 0));
}

// --- stateful network functions ----------------------------------------------
//
// The flow-oriented plans below stretch one scenario across production-style
// flow dynamics: many concurrent flows (sweeping 5-tuple fields), connection
// churn (flows recurring with a fixed period so register buckets are
// revisited, refreshed, and stolen), and state expiry (rate_pps slows the
// virtual clock so inter-visit gaps straddle the programs' aging timeouts of
// 64us / 128us).  kNfFlowRate's 31.25us slot puts a same-flow revisit at
// ~62.5us -- just inside the NAT timeout, so one lost refresh or a +-1us
// clock skew flips the aging decision.

constexpr double kNfFlowRate = 32000.0;  // 31.25us between packets

void build_nat_gateway(Rng& rng, Scenario& s) {
    // A couple of statically-mapped sources bypass the dynamic binding table.
    const std::uint64_t statics = rng.next_range(0, 2);
    for (std::uint64_t i = 0; i < statics; ++i) {
        control::EntrySpec e;
        e.key_values = {Bitvec(32, scenario::host_ip(static_cast<int>(1 + i)))};
        e.action = "static_map";
        e.action_args = {Bitvec(32, 0xc0a800f0u + static_cast<std::uint32_t>(i)),
                         Bitvec(9, pick_port(rng))};
        s.config.push_back(entry_op("nat_static", std::move(e)));
    }
    // `flows` concurrent sources share the 64-bucket binding table; each
    // recurs every `flows` slots, so refreshes race the 64us timeout.
    const std::uint64_t flows = rng.next_range(2, 5);
    s.spec.count = rng.next_range(12, 24);
    s.spec.rate_pps = kNfFlowRate;
    s.spec.tmpl.base = scenario::ipv4_udp_packet();
    s.spec.tmpl.mutations.push_back(mutation(
        kIpv4SrcBit + 24, 8, FieldMutation::Mode::sweep, 1, 1, flows));
    if (rng.next_bool(0.5)) {
        // Vary the destination too: more (src, dst) pairs, more buckets.
        s.spec.tmpl.mutations.push_back(mutation(
            scenario::kIpv4DstBit + 24, 8, FieldMutation::Mode::sweep, 8, 1, 2));
    }
}

void build_flow_firewall(Rng& rng, Scenario& s) {
    {  // host .1 is inside; its outbound packets open pinholes
        control::EntrySpec e;
        e.key_values = {Bitvec(32, scenario::host_ip(1))};
        e.action = "mark_outbound";
        s.config.push_back(entry_op("internal_hosts", std::move(e)));
    }
    if (rng.next_bool(0.4)) {  // occasionally a second inside host
        control::EntrySpec e;
        e.key_values = {Bitvec(32, scenario::host_ip(3))};
        e.action = "mark_outbound";
        s.config.push_back(entry_op("internal_hosts", std::move(e)));
    }
    // Alternate the two directions of one connection: odd packets are the
    // .2 -> .1 reply (dropped until a pinhole exists), even packets are the
    // .1 -> .2 outbound that installs/refreshes it.  The direction-symmetric
    // flow key makes both sides land in one bucket.
    s.spec.count = rng.next_range(12, 24);
    s.spec.rate_pps = kNfFlowRate;
    s.spec.tmpl.base = scenario::ipv4_udp_packet();
    s.spec.tmpl.mutations.push_back(
        mutation(kIpv4SrcBit + 24, 8, FieldMutation::Mode::sweep, 1, 1, 2));
    s.spec.tmpl.mutations.push_back(
        mutation(scenario::kIpv4DstBit + 24, 8, FieldMutation::Mode::sweep, 2, 255, 2));
}

void build_maglev_lb(Rng& rng, Scenario& s) {
    {  // the VIP every client targets
        control::EntrySpec e;
        e.key_values = {Bitvec(32, scenario::host_ip(2))};
        e.action = "vip_select";
        e.action_args = {Bitvec(9, pick_port(rng))};
        s.config.push_back(entry_op("vip", std::move(e)));
    }
    // Populate a subset of the 64 consistent-hash buckets with backend
    // addresses; flows hashing into unpopulated buckets hit the drop path.
    const std::uint64_t populated = rng.next_range(10, 24);
    for (std::uint64_t i = 0; i < populated; ++i) {
        s.config.push_back(register_op(
            "backend_map", rng.next_below(64),
            Bitvec(32, 0x0a000100u +
                           static_cast<std::uint32_t>(rng.next_range(1, 250)))));
    }
    s.spec.count = rng.next_range(8, 16);
    s.spec.tmpl.base = scenario::ipv4_udp_packet();
    // Random source port: each packet is its own 5-tuple, spreading flows
    // across the bucket space.
    s.spec.tmpl.mutations.push_back(
        mutation(kUdpSrcPortBit, 16, FieldMutation::Mode::random, 0));
    if (rng.next_bool(0.3)) {
        s.spec.tmpl.mutations.push_back(
            mutation(kIpv4SrcBit + 24, 8, FieldMutation::Mode::sweep, 1, 1, 3));
    }
}

void build_learning_bridge(Rng& rng, Scenario& s) {
    // Source and destination MACs cycle with co-prime periods, so over the
    // stream every (src, dst) pairing occurs: stations are learned, later
    // addressed (forward on the learned port), and unknown destinations
    // flood.  No control-plane config: the MAC table is pure datapath state.
    const std::uint64_t talkers = rng.next_range(3, 4);
    s.spec.count = rng.next_range(12, 20);
    s.spec.tmpl.base = scenario::ipv4_udp_packet();
    s.spec.tmpl.mutations.push_back(mutation(
        kEthSrcBit + 40, 8, FieldMutation::Mode::sweep, 1, 1, talkers));
    s.spec.tmpl.mutations.push_back(mutation(
        kEthDstBit + 40, 8, FieldMutation::Mode::sweep, 1, 1, talkers + 1));
}

}  // namespace

std::vector<std::string> SpecGenerator::default_programs() {
    // The whole catalogue: ConfigOp::configure_meter gives metered_policer
    // a meaningful rate configuration, so it fuzzes like everything else.
    // New samples join the sweep automatically (programs without a tailored
    // plan get the passthrough-style mutation plan).
    return p4::programs::sample_names();
}

SpecGenerator::SpecGenerator(std::vector<std::string> programs)
    : programs_(programs.empty() ? default_programs() : std::move(programs)) {
    compiled_.reserve(programs_.size());
    for (const auto& name : programs_) {
        const std::string_view source = p4::programs::sample_by_name(name);
        if (source.empty()) {
            throw std::invalid_argument("specgen: unknown catalogue program '" +
                                        name + "'");
        }
        compiled_.push_back(scenario::compile(source, name));
    }
}

std::size_t SpecGenerator::index_of(const std::string& program) const {
    const auto it = std::find(programs_.begin(), programs_.end(), program);
    if (it == programs_.end()) {
        throw std::invalid_argument("specgen: program '" + program +
                                    "' is outside the generator's catalogue");
    }
    return static_cast<std::size_t>(it - programs_.begin());
}

std::size_t SpecGenerator::pick_program(Rng& rng) const {
    return static_cast<std::size_t>(rng.next_below(programs_.size()));
}

Scenario SpecGenerator::make(std::uint64_t seed) const {
    Rng rng(seed);
    const std::size_t which = pick_program(rng);
    return build(rng, which, seed);
}

std::size_t SpecGenerator::program_of(std::uint64_t seed) const {
    Rng rng(seed);
    return pick_program(rng);
}

std::vector<std::uint64_t> SpecGenerator::program_grouped_order(
    std::uint64_t base_seed, std::uint64_t scenarios) const {
    std::vector<std::uint32_t> program(scenarios);
    for (std::uint64_t i = 0; i < scenarios; ++i) {
        program[i] = static_cast<std::uint32_t>(program_of(base_seed + i));
    }
    std::vector<std::uint64_t> order(scenarios);
    std::iota(order.begin(), order.end(), std::uint64_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&program](std::uint64_t a, std::uint64_t b) {
                         return program[a] < program[b];
                     });
    return order;
}

Scenario SpecGenerator::make_for(std::size_t program_index,
                                 std::uint64_t seed) const {
    if (program_index >= programs_.size()) {
        throw std::invalid_argument("specgen: program index out of range");
    }
    Rng rng(seed);
    // One draw replaces the program pick; next_below(1) in a single-program
    // generator also consumes exactly one, so the streams line up and the
    // (program, seed) pair replays identically through make().
    rng.next_u64();
    return build(rng, program_index, seed);
}

Scenario SpecGenerator::build(Rng& rng, std::size_t which,
                              std::uint64_t seed) const {
    Scenario s;
    s.seed = seed;
    s.program = programs_[which];
    s.compiled = compiled_[which];
    s.spec.inject_port = static_cast<std::uint32_t>(rng.next_range(0, 3));
    s.spec.count = rng.next_range(4, 12);
    s.spec.tmpl.seed = rng.next_u64();

    if (s.program == "passthrough") build_passthrough(rng, s);
    else if (s.program == "l2_switch") build_l2_switch(rng, s);
    else if (s.program == "ipv4_router") build_ipv4_router(rng, s);
    else if (s.program == "reject_filter") build_reject_filter(rng, s);
    else if (s.program == "acl_firewall") build_acl_firewall(rng, s);
    else if (s.program == "tunnel") build_tunnel(rng, s);
    else if (s.program == "deep_parser") build_deep_parser(rng, s);
    else if (s.program == "stats_monitor") build_stats_monitor(rng, s);
    else if (s.program == "wide_match") build_wide_match(rng, s);
    else if (s.program == "variant_a" || s.program == "variant_b") build_variant(rng, s);
    else if (s.program == "shift_mangler") build_shift_mangler(rng, s);
    else if (s.program == "metered_policer") build_metered_policer(rng, s);
    else if (s.program == "meta_echo") build_meta_echo(rng, s);
    else if (s.program == "nat_gateway") build_nat_gateway(rng, s);
    else if (s.program == "flow_firewall") build_flow_firewall(rng, s);
    else if (s.program == "maglev_lb") build_maglev_lb(rng, s);
    else if (s.program == "learning_bridge") build_learning_bridge(rng, s);
    else build_passthrough(rng, s);  // catalogue entry without a tailored plan

    return s;
}

}  // namespace ndb::core
