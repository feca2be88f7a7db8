// The dense extern-state digest, kept for tests: a shadow of
// dataplane::StatefulSet that stores every declared cell and folds every
// one of them, byte by byte and in index order, exactly as
// StatefulSet::info() did before it learned to skip untouched cells.  The
// mutators apply the same semantics as StatefulSet's (out-of-range writes
// dropped, register values resized to the element width), so after any
// sequence of operations the shadow's info() is what the sparse fold must
// produce, bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "dataplane/stateful.h"
#include "p4/ir.h"
#include "util/bitvec.h"

namespace ndb::testutil {

class DenseStatefulReference {
public:
    using Info = dataplane::StatefulSet::Info;

    explicit DenseStatefulReference(const p4::ir::Program& prog) {
        externs_.resize(prog.externs.size());
        for (const auto& e : prog.externs) {
            auto& slot = externs_[static_cast<std::size_t>(e.id)];
            slot.kind = e.kind;
            slot.name = e.name;
            slot.elem_width = e.elem_width;
            const auto n = static_cast<std::size_t>(e.array_size);
            switch (e.kind) {
                case p4::ir::ExternDecl::Kind::reg:
                    slot.cells.assign(n, util::Bitvec(e.elem_width));
                    break;
                case p4::ir::ExternDecl::Kind::counter:
                    slot.packets.assign(n, 0);
                    slot.bytes.assign(n, 0);
                    break;
                case p4::ir::ExternDecl::Kind::meter:
                    slot.meters.assign(n, dataplane::MeterCell{});
                    break;
            }
        }
    }

    void register_write(int extern_id, std::uint64_t index,
                        const util::Bitvec& value) {
        auto& s = externs_.at(static_cast<std::size_t>(extern_id));
        if (index >= s.cells.size()) return;
        s.cells[index] = value.resize(s.elem_width);
    }

    void counter_count(int extern_id, std::uint64_t index, std::uint64_t bytes) {
        auto& s = externs_.at(static_cast<std::size_t>(extern_id));
        if (index >= s.packets.size()) return;
        ++s.packets[index];
        s.bytes[index] += bytes;
    }

    void meter_configure(int extern_id, std::uint64_t index, double committed_rate,
                         std::uint64_t committed_burst, double excess_rate,
                         std::uint64_t excess_burst) {
        auto& s = externs_.at(static_cast<std::size_t>(extern_id));
        if (index >= s.meters.size()) return;
        s.meters[index].configure(committed_rate, committed_burst, excess_rate,
                                  excess_burst);
    }

    dataplane::MeterColor meter_execute(int extern_id, std::uint64_t index,
                                        std::uint64_t now_ns, std::uint64_t bytes) {
        auto& s = externs_.at(static_cast<std::size_t>(extern_id));
        if (index >= s.meters.size()) return dataplane::MeterColor::red;
        return s.meters[index].execute(now_ns, bytes);
    }

    // Every cell back to its power-on value, all of them.
    void reset_state() {
        for (auto& s : externs_) {
            for (auto& c : s.cells) c = util::Bitvec(s.elem_width);
            std::fill(s.packets.begin(), s.packets.end(), 0);
            std::fill(s.bytes.begin(), s.bytes.end(), 0);
            for (auto& m : s.meters) m = dataplane::MeterCell{};
        }
    }

    // The dense fold: every declared cell, in index order.
    std::vector<Info> info() const {
        std::vector<Info> out;
        out.reserve(externs_.size());
        for (const auto& s : externs_) {
            Info inf;
            inf.name = s.name;
            std::uint64_t h = kFnvOffset;
            switch (s.kind) {
                case p4::ir::ExternDecl::Kind::reg:
                    inf.kind = "register";
                    inf.cells = s.cells.size();
                    for (const auto& cell : s.cells) {
                        for (const std::uint64_t w : cell.word_span()) h = fnv(h, w);
                    }
                    break;
                case p4::ir::ExternDecl::Kind::counter:
                    inf.kind = "counter";
                    inf.cells = s.packets.size();
                    for (std::size_t i = 0; i < s.packets.size(); ++i) {
                        h = fnv(h, s.packets[i]);
                        h = fnv(h, s.bytes[i]);
                    }
                    break;
                case p4::ir::ExternDecl::Kind::meter:
                    inf.kind = "meter";
                    inf.cells = s.meters.size();
                    for (const auto& m : s.meters) {
                        h = m.fold_config(h);
                        if (!m.configured()) ++inf.unconfigured_meters;
                    }
                    break;
            }
            inf.state_hash = h;
            out.push_back(std::move(inf));
        }
        return out;
    }

private:
    static constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
    static constexpr std::uint64_t kFnvPrime = 1099511628211ull;

    static std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= kFnvPrime;
        }
        return h;
    }

    struct ExternState {
        p4::ir::ExternDecl::Kind kind = p4::ir::ExternDecl::Kind::reg;
        std::string name;
        int elem_width = 0;
        std::vector<util::Bitvec> cells;
        std::vector<std::uint64_t> packets;
        std::vector<std::uint64_t> bytes;
        std::vector<dataplane::MeterCell> meters;
    };

    std::vector<ExternState> externs_;
};

}  // namespace ndb::testutil
