#include "core/testspec.h"

#include <algorithm>

#include "util/random.h"

namespace ndb::core {

packet::Packet instantiate(const PacketTemplate& tmpl, std::uint64_t seq) {
    packet::Packet pkt = tmpl.base;
    for (const auto& m : tmpl.mutations) {
        util::Bitvec v(m.width);
        switch (m.mode) {
            case FieldMutation::Mode::fixed:
                v = m.value.resize(m.width);
                break;
            case FieldMutation::Mode::increment:
                v = m.value.resize(m.width)
                        .add(util::Bitvec(m.width, seq * m.step));
                break;
            case FieldMutation::Mode::sweep: {
                const std::uint64_t idx = m.range ? seq % m.range : seq;
                v = m.value.resize(m.width)
                        .add(util::Bitvec(m.width, idx * m.step));
                break;
            }
            case FieldMutation::Mode::random: {
                util::Rng rng(tmpl.seed ^ (seq * 0x9e3779b97f4a7c15ull) ^
                              (m.bit_offset << 16));
                // One draw per 64-bit word, least significant word first.
                for (int i = 0; i < m.width; i += 64) {
                    const int chunk = std::min(64, m.width - i);
                    v.set_slice(i + chunk - 1, i, util::Bitvec(chunk, rng.next_u64()));
                }
                break;
            }
        }
        pkt.deposit_bits(m.bit_offset, v);
    }
    return pkt;
}

}  // namespace ndb::core
