#include "dataplane/deparser.h"

#include <algorithm>

namespace ndb::dataplane {

packet::Packet deparse(const p4::ir::Program& prog, const PacketState& state) {
    std::size_t total_bits = 0;
    for (const int h : prog.deparse_order) {
        if (state.header_valid(h)) {
            total_bits += static_cast<std::size_t>(
                prog.headers[static_cast<std::size_t>(h)].size_bits);
        }
    }
    const std::size_t header_bytes = (total_bits + 7) / 8;
    packet::Packet out = packet::Packet::zeros(header_bytes + state.payload.size());
    const std::span<std::uint8_t> bytes = out.bytes_mut();

    std::size_t cursor = 0;
    for (const int h : prog.deparse_order) {
        if (!state.header_valid(h)) continue;
        state.emit_header(h, bytes.first(header_bytes), cursor);
        cursor += static_cast<std::size_t>(prog.headers[static_cast<std::size_t>(h)].size_bits);
    }
    std::copy(state.payload.begin(), state.payload.end(),
              bytes.begin() + static_cast<long>(header_bytes));
    out.meta = state.meta;
    return out;
}

}  // namespace ndb::dataplane
