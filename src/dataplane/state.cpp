#include "dataplane/state.h"

#include <stdexcept>

#include "util/strings.h"

namespace ndb::dataplane {

const char* parser_verdict_name(ParserVerdict verdict) {
    switch (verdict) {
        case ParserVerdict::accept: return "accept";
        case ParserVerdict::reject: return "reject";
        case ParserVerdict::error_truncated: return "error.PacketTooShort";
        case ParserVerdict::error_loop: return "error.ParserLoop";
    }
    return "?";
}

PacketState PacketState::initial(const p4::ir::Program& prog,
                                 const packet::PacketMeta& meta,
                                 std::uint32_t packet_len, bool clobber_meta) {
    PacketState st;
    st.ensure_shape(prog);
    st.reset(prog, meta, packet_len, clobber_meta);
    return st;
}

void PacketState::ensure_shape(const p4::ir::Program& prog) {
    if (shaped_for == &prog) return;
    headers.clear();
    headers.reserve(prog.headers.size());
    for (const auto& h : prog.headers) {
        HeaderInstance inst;
        inst.fields.reserve(h.fields.size());
        for (const auto& f : h.fields) inst.fields.emplace_back(f.width);
        headers.push_back(std::move(inst));
    }
    shaped_for = &prog;
}

void PacketState::reset(const p4::ir::Program& prog, const packet::PacketMeta& m,
                        std::uint32_t packet_len, bool clobber_meta) {
    meta = m;
    parser_verdict = ParserVerdict::accept;
    cycles = 0;
    exited = false;
    payload.clear();
    for (std::size_t hi = 0; hi < prog.headers.size(); ++hi) {
        const auto& h = prog.headers[hi];
        auto& inst = headers[hi];
        inst.valid = h.is_metadata;
        const bool clobber =
            clobber_meta && h.is_metadata && h.name != "standard_metadata";
        for (std::size_t fi = 0; fi < h.fields.size(); ++fi) {
            util::Bitvec& v = inst.fields[fi];
            v.zero();
            if (clobber) {
                // Alternate bit pattern models uninitialized device memory.
                for (int i = 0; i < h.fields[fi].width; i += 2) v.set_bit(i, true);
            }
        }
    }
    set(prog.f_ingress_port, util::Bitvec(9, m.ingress_port));
    set(prog.f_packet_length, util::Bitvec(32, packet_len));
    set(prog.f_timestamp, util::Bitvec(48, m.rx_time_ns / 1000));  // usec
}

const util::Bitvec& PacketState::get(p4::ir::FieldRef ref) const {
    return headers.at(static_cast<std::size_t>(ref.header))
        .fields.at(static_cast<std::size_t>(ref.field));
}

void PacketState::set(p4::ir::FieldRef ref, util::Bitvec value) {
    auto& slot = headers.at(static_cast<std::size_t>(ref.header))
                     .fields.at(static_cast<std::size_t>(ref.field));
    if (slot.width() != value.width()) {
        throw std::invalid_argument("PacketState::set: width mismatch");
    }
    slot = std::move(value);
}

bool PacketState::header_valid(int header) const {
    return headers.at(static_cast<std::size_t>(header)).valid;
}

std::uint64_t PacketState::egress_spec(const p4::ir::Program& prog) const {
    return get(prog.f_egress_spec).to_u64();
}

bool PacketState::drop_flagged(const p4::ir::Program& prog) const {
    return egress_spec(prog) == p4::ir::kDropPort;
}

std::string PacketState::summary(const p4::ir::Program& prog) const {
    std::string s = util::format("verdict=%s egress_spec=%llu",
                                 parser_verdict_name(parser_verdict),
                                 static_cast<unsigned long long>(egress_spec(prog)));
    for (std::size_t h = 0; h < headers.size(); ++h) {
        if (!headers[h].valid || prog.headers[h].is_metadata) continue;
        s += " " + prog.headers[h].name;
    }
    return s;
}

}  // namespace ndb::dataplane
