#include "dataplane/parser_engine.h"

#include "coverage/coverage.h"
#include "dataplane/interp.h"

namespace ndb::dataplane {

using p4::ir::kAccept;
using p4::ir::kReject;

ParserVerdict ParserEngine::run(const packet::Packet& pkt, PacketState& state,
                                int* states_visited) {
    std::size_t cursor = 0;  // bit offset into the packet
    const std::size_t total_bits = pkt.size() * 8;
    int visited = 0;
    int extracts = 0;
    Frame empty_frame;
    int current = prog_->start_state;

    const auto finish = [&](ParserVerdict verdict) {
        if (coverage_) {
            // Terminal site: the state the machine stopped in plus the
            // verdict, so depth-limited/truncated exits are distinct edges.
            coverage_->record(coverage::Site::parser_finish,
                              cov_salt_ ^ static_cast<std::uint64_t>(current),
                              static_cast<std::uint64_t>(verdict));
        }
        if (states_visited) *states_visited = visited;
        // Unparsed remainder becomes the payload (from the next whole byte).
        const std::size_t byte_cursor = (cursor + 7) / 8;
        if (byte_cursor < pkt.size()) {
            const auto bytes = pkt.data();
            state.payload.assign(bytes.begin() + static_cast<long>(byte_cursor),
                                 bytes.end());
        }
        if (verdict != ParserVerdict::accept && quirks_.reject_as_accept) {
            // The vendor parser has no reject path: the packet proceeds with
            // whatever was extracted before the reject/error.
            state.parser_verdict = ParserVerdict::accept;
            return ParserVerdict::accept;
        }
        state.parser_verdict = verdict;
        return verdict;
    };

    for (;;) {
        if (current == kAccept) return finish(ParserVerdict::accept);
        if (current == kReject) return finish(ParserVerdict::reject);
        if (++visited > kMaxStates) return finish(ParserVerdict::error_loop);

        const auto& st =
            prog_->parser_states.at(static_cast<std::size_t>(current));
        state.cycles += 1;

        for (const auto& op : st.ops) {
            switch (op.kind) {
                case p4::ir::ParserOp::Kind::extract: {
                    if (quirks_.parser_depth_limit > 0 &&
                        extracts >= quirks_.parser_depth_limit) {
                        // Hardware parser out of stages: silently stop parsing.
                        return finish(ParserVerdict::accept);
                    }
                    const auto& hdr =
                        prog_->headers.at(static_cast<std::size_t>(op.header));
                    if (cursor + static_cast<std::size_t>(hdr.size_bits) > total_bits) {
                        return finish(ParserVerdict::error_truncated);
                    }
                    state.extract_header(op.header, pkt.data(), cursor);
                    cursor += static_cast<std::size_t>(hdr.size_bits);
                    ++extracts;
                    state.cycles += 1;
                    break;
                }
                case p4::ir::ParserOp::Kind::advance:
                    if (cursor + static_cast<std::size_t>(op.bits) > total_bits) {
                        return finish(ParserVerdict::error_truncated);
                    }
                    cursor += static_cast<std::size_t>(op.bits);
                    break;
                case p4::ir::ParserOp::Kind::assign:
                    state.set(op.dst,
                              eval_expr(*prog_, *op.value, state, empty_frame, quirks_)
                                  .resize(prog_->field(op.dst).width));
                    break;
            }
        }

        const auto& t = st.transition;
        if (t.kind == p4::ir::Transition::Kind::direct) {
            if (coverage_) {
                coverage_->record(coverage::Site::parser_edge,
                                  cov_salt_ ^ static_cast<std::uint64_t>(current),
                                  static_cast<std::uint64_t>(t.next_state));
            }
            current = t.next_state;
            continue;
        }
        // Select: evaluate keys once, then first matching case wins.
        std::vector<Bitvec>& keys = keys_scratch_;
        keys.clear();
        for (const auto& k : t.keys) {
            keys.push_back(eval_expr(*prog_, *k, state, empty_frame, quirks_));
        }
        int next = kReject;  // no matching case rejects, per P4-16
        for (const auto& c : t.cases) {
            bool match = true;
            for (std::size_t i = 0; i < c.sets.size() && match; ++i) {
                const auto& ks = c.sets[i];
                if (ks.any) continue;
                match = keys[i].band(ks.mask).eq(ks.value.band(ks.mask));
            }
            if (match) {
                next = c.next_state;
                break;
            }
        }
        if (coverage_) {
            coverage_->record(coverage::Site::parser_edge,
                              cov_salt_ ^ static_cast<std::uint64_t>(current),
                              static_cast<std::uint64_t>(next));
        }
        current = next;
    }
}

}  // namespace ndb::dataplane
