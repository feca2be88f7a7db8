#include "dataplane/interp.h"

#include <stdexcept>

#include "coverage/coverage.h"
#include "obs/metrics.h"
#include "packet/checksum.h"

namespace ndb::dataplane {

using p4::ir::Expr;
using p4::ir::Program;
using p4::ir::Stmt;

Bitvec eval_expr(const Program& prog, const Expr& e, const PacketState& state,
                 const Frame& frame, const Quirks& quirks) {
    switch (e.kind) {
        case Expr::Kind::constant:
            return e.cvalue;
        case Expr::Kind::field:
            return state.get(e.fref);
        case Expr::Kind::param:
            return frame.params.at(static_cast<std::size_t>(e.index));
        case Expr::Kind::local:
            return frame.locals.at(static_cast<std::size_t>(e.index));
        case Expr::Kind::is_valid:
            return Bitvec(1, state.header_valid(e.fref.header) ? 1 : 0);
        case Expr::Kind::unary: {
            const Bitvec a = eval_expr(prog, *e.a, state, frame, quirks);
            switch (e.un) {
                case p4::ast::UnOp::neg: return a.neg();
                case p4::ast::UnOp::bnot: return a.bnot();
                case p4::ast::UnOp::lnot: return Bitvec(1, a.is_zero() ? 1 : 0);
            }
            break;
        }
        case Expr::Kind::binary: {
            using p4::ast::BinOp;
            // Short-circuit the logical operators.
            if (e.bin == BinOp::land) {
                const Bitvec a = eval_expr(prog, *e.a, state, frame, quirks);
                if (a.is_zero()) return Bitvec(1, 0);
                return eval_expr(prog, *e.b, state, frame, quirks).is_zero()
                           ? Bitvec(1, 0)
                           : Bitvec(1, 1);
            }
            if (e.bin == BinOp::lor) {
                const Bitvec a = eval_expr(prog, *e.a, state, frame, quirks);
                if (!a.is_zero()) return Bitvec(1, 1);
                return eval_expr(prog, *e.b, state, frame, quirks).is_zero()
                           ? Bitvec(1, 0)
                           : Bitvec(1, 1);
            }
            const Bitvec a = eval_expr(prog, *e.a, state, frame, quirks);
            const Bitvec b = eval_expr(prog, *e.b, state, frame, quirks);
            switch (e.bin) {
                case BinOp::add: return a.add(b);
                case BinOp::sub: return a.sub(b);
                case BinOp::mul: return a.mul(b);
                case BinOp::band: return a.band(b);
                case BinOp::bor: return a.bor(b);
                case BinOp::bxor: return a.bxor(b);
                case BinOp::shl:
                    return a.shl(static_cast<int>(std::min<std::uint64_t>(
                        b.to_u64(), static_cast<std::uint64_t>(a.width()))));
                case BinOp::shr: {
                    const int amount = static_cast<int>(std::min<std::uint64_t>(
                        b.to_u64(), static_cast<std::uint64_t>(a.width())));
                    // Vendor bug: the backend emits a left shift instead.
                    return quirks.shift_miscompile ? a.shl(amount) : a.lshr(amount);
                }
                case BinOp::eq: return Bitvec(1, a.eq(b) ? 1 : 0);
                case BinOp::ne: return Bitvec(1, a.eq(b) ? 0 : 1);
                case BinOp::lt: return Bitvec(1, a.ult(b) ? 1 : 0);
                case BinOp::le: return Bitvec(1, a.ule(b) ? 1 : 0);
                case BinOp::gt: return Bitvec(1, a.ugt(b) ? 1 : 0);
                case BinOp::ge: return Bitvec(1, a.uge(b) ? 1 : 0);
                case BinOp::concat: return Bitvec::concat(a, b);
                case BinOp::land:
                case BinOp::lor: break;  // handled above
            }
            break;
        }
        case Expr::Kind::ternary: {
            const Bitvec c = eval_expr(prog, *e.c, state, frame, quirks);
            return c.is_zero() ? eval_expr(prog, *e.b, state, frame, quirks)
                               : eval_expr(prog, *e.a, state, frame, quirks);
        }
        case Expr::Kind::slice: {
            const Bitvec a = eval_expr(prog, *e.a, state, frame, quirks);
            return a.slice(e.hi, e.lo);
        }
        case Expr::Kind::cast: {
            const Bitvec a = eval_expr(prog, *e.a, state, frame, quirks);
            return a.resize(e.width);
        }
    }
    throw std::logic_error("eval_expr: unreachable");
}

namespace {

// Re-initializes a pooled frame's local slots to zeroes of the declared
// widths, reusing storage when the widths already line up.
void reset_frame_locals(Frame& frame, std::span<const int> widths) {
    frame.locals.resize(widths.size());
    for (std::size_t i = 0; i < widths.size(); ++i) {
        if (frame.locals[i].width() == widths[i]) {
            frame.locals[i].zero();
        } else {
            frame.locals[i] = Bitvec(widths[i]);
        }
    }
}

// IPv4-style checksum recompute: RFC 1071 sum of `header`'s wire image with
// the checksum field's bits cleared (the image is copied into
// `bytes_scratch` to clear them), stored into the checksum field.
void checksum_update_field(const Program& prog, PacketState& state, int header,
                           int checksum_field,
                           std::vector<std::uint8_t>& bytes_scratch) {
    const auto& hdr = prog.headers.at(static_cast<std::size_t>(header));
    const auto& field = hdr.fields.at(static_cast<std::size_t>(checksum_field));
    const std::span<const std::uint8_t> image = state.header_bytes(header);
    bytes_scratch.assign(image.begin(), image.end());
    for (int b = field.offset; b < field.offset + field.width; ++b) {
        bytes_scratch[static_cast<std::size_t>(b / 8)] &=
            static_cast<std::uint8_t>(~(0x80u >> (b % 8)));
    }
    const std::uint16_t csum = packet::internet_checksum(bytes_scratch);
    state.set({header, checksum_field}, Bitvec(16, csum).resize(field.width));
}

}  // namespace

Interpreter::Interpreter(TableSet& tables, StatefulSet& stateful, Quirks quirks)
    : tables_(tables), stateful_(stateful), quirks_(quirks) {}

void Interpreter::load(const Program& prog) {
    prog_ = &prog;
    cov_salt_ = prog.coverage_salt ^ device_salt_;
}

void Interpreter::set_coverage(coverage::CoverageMap* map, std::uint64_t salt) {
    coverage_ = map;
    device_salt_ = salt;
    if (prog_) cov_salt_ = prog_->coverage_salt ^ salt;
}

Frame& Interpreter::push_frame() {
    if (depth_ >= frames_.size()) frames_.emplace_back();
    return frames_[depth_++];
}

// Restores the frame depth on scope exit so a throw out of exec_body (e.g.
// an IR-level width error) cannot permanently leak pool depth on the
// long-lived interpreter.
struct Interpreter::FrameScope {
    Interpreter& interp;
    ~FrameScope() { interp.pop_frame(); }
};

void Interpreter::run_control(const p4::ir::Control& control, PacketState& state) {
    Frame& frame = push_frame();
    const FrameScope scope{*this};
    frame.params.clear();
    reset_frame_locals(frame, control.local_widths);
    exec_body(control.body, state, frame);
}

void Interpreter::run_action(int action_id, std::span<const Bitvec> args,
                             PacketState& state) {
    const auto& action = prog_->actions.at(static_cast<std::size_t>(action_id));
    if (coverage_) {
        coverage_->record(coverage::Site::action,
                          cov_salt_ ^ static_cast<std::uint64_t>(action_id));
    }
    Frame& frame = push_frame();
    const FrameScope scope{*this};
    frame.params.assign(args.begin(), args.end());
    reset_frame_locals(frame, action.local_widths);
    exec_body(action.body, state, frame);
}

void Interpreter::exec_body(const std::vector<p4::ir::StmtPtr>& body,
                            PacketState& state, Frame& frame) {
    for (const auto& s : body) {
        if (state.exited) return;
        exec(*s, state, frame);
    }
}

void Interpreter::exec(const Stmt& s, PacketState& state, Frame& frame) {
    ++state.cycles;
    switch (s.kind) {
        case Stmt::Kind::assign_field:
            state.set(s.dst, eval_expr(*prog_, *s.value, state, frame, quirks_));
            return;
        case Stmt::Kind::assign_local:
            frame.locals.at(static_cast<std::size_t>(s.local_index)) =
                eval_expr(*prog_, *s.value, state, frame, quirks_);
            return;
        case Stmt::Kind::assign_slice: {
            Bitvec cur = state.get(s.dst);
            const Bitvec v = eval_expr(*prog_, *s.value, state, frame, quirks_);
            if (v.width() < s.hi - s.lo + 1) {
                // set_slice zero-fills missing bits; a too-narrow RHS here is
                // an IR bug and must surface, not silently clear field bits.
                throw std::out_of_range("assign_slice: value narrower than slice");
            }
            cur.set_slice(s.hi, s.lo, v);
            state.set(s.dst, std::move(cur));
            return;
        }
        case Stmt::Kind::if_stmt: {
            const Bitvec c = eval_expr(*prog_, *s.cond, state, frame, quirks_);
            const bool taken = !c.is_zero();
            if (coverage_) {
                coverage_->record(coverage::Site::branch, cov_salt_ ^ s.branch,
                                  taken ? 1 : 0);
            }
            exec_body(taken ? s.then_body : s.else_body, state, frame);
            return;
        }
        case Stmt::Kind::apply_table: {
            state.cycles += 1;  // match stage costs an extra cycle
            const auto& table = prog_->tables.at(static_cast<std::size_t>(s.table));
            // The scratch is free for reuse as soon as lookup() returns, so
            // nested applies inside the resulting action are fine.
            keys_scratch_.clear();
            keys_scratch_.reserve(table.keys.size());
            for (const auto& k : table.keys) {
                keys_scratch_.push_back(eval_expr(*prog_, *k.expr, state, frame, quirks_));
            }
            bool hit = false;
            // A view into the table; run_action copies the arguments into its
            // frame before the action body runs.
            const ActionRef entry = tables_.lookup(s.table, keys_scratch_, hit);
            if (coverage_) {
                coverage_->record(coverage::Site::table,
                                  cov_salt_ ^ static_cast<std::uint64_t>(s.table),
                                  hit ? 1 : 0);
            }
            run_action(entry.action_id, entry.args, state);
            return;
        }
        case Stmt::Kind::call_action: {
            // Like keys_scratch_: run_action copies the args into its frame
            // before executing, so the scratch may be clobbered by nested calls.
            args_scratch_.clear();
            args_scratch_.reserve(s.action_args.size());
            for (const auto& a : s.action_args) {
                args_scratch_.push_back(eval_expr(*prog_, *a, state, frame, quirks_));
            }
            run_action(s.action, args_scratch_, state);
            return;
        }
        case Stmt::Kind::set_valid:
            state.set_header_valid(s.dst.header, s.make_valid);
            return;
        case Stmt::Kind::extern_op:
            exec_extern(s, state, frame);
            return;
        case Stmt::Kind::exit_pipeline:
            state.exited = true;
            return;
    }
}

void Interpreter::exec_extern(const Stmt& s, PacketState& state, Frame& frame) {
    const auto index_of = [&](const p4::ir::ExprPtr& e) -> std::uint64_t {
        return e ? eval_expr(*prog_, *e, state, frame, quirks_).to_u64() : 0;
    };
    // Only the counter and meter ops bill the packet's length.
    const auto pkt_bytes = [&] { return state.get(prog_->f_packet_length).to_u64(); };

    switch (s.ext) {
        case p4::ir::ExternKind::mark_to_drop:
            state.set(prog_->f_egress_spec, Bitvec(9, p4::ir::kDropPort));
            return;
        case p4::ir::ExternKind::register_read: {
            const Bitvec v = stateful_.register_read(s.extern_id, index_of(s.index_expr));
            state.set(s.ext_dst, v.resize(prog_->field(s.ext_dst).width));
            return;
        }
        case p4::ir::ExternKind::register_write: {
            const std::uint64_t index = index_of(s.index_expr);
            // stale_entry quirk: the faulty datapath never refreshes a cell
            // that already holds state, so the first write to a bucket wins
            // forever (control-plane writes are unaffected: they go through
            // the runtime API, not this executor).
            if (quirks_.stale_entry &&
                !stateful_.register_read(s.extern_id, index).is_zero()) {
                return;
            }
            const Bitvec value = eval_expr(*prog_, *s.value, state, frame, quirks_);
            if (obs::metrics_on()) {
                // Occupancy telemetry: a write that replaces live state (an
                // evicted or rebound flow entry), not one that fills a cell.
                const Bitvec old = stateful_.register_read(s.extern_id, index);
                if (!old.is_zero() && old != value.resize(old.width())) {
                    obs::count(obs::Counter::register_overwrites);
                }
            }
            stateful_.register_write(s.extern_id, index, value);
            return;
        }
        case p4::ir::ExternKind::counter_count:
            stateful_.counter_count(s.extern_id, index_of(s.index_expr), pkt_bytes());
            return;
        case p4::ir::ExternKind::meter_execute: {
            const MeterColor color = stateful_.meter_execute(
                s.extern_id, index_of(s.index_expr), state.meta.rx_time_ns, pkt_bytes());
            state.set(s.ext_dst, Bitvec(prog_->field(s.ext_dst).width,
                                        static_cast<std::uint64_t>(color)));
            return;
        }
        case p4::ir::ExternKind::hash: {
            bytes_scratch_.clear();
            for (const auto& input : s.hash_inputs) {
                const Bitvec v = eval_expr(*prog_, *input, state, frame, quirks_);
                const std::size_t old = bytes_scratch_.size();
                bytes_scratch_.resize(old + static_cast<std::size_t>((v.width() + 7) / 8));
                v.write_bytes(std::span<std::uint8_t>(bytes_scratch_).subspan(old));
            }
            std::uint32_t h = packet::crc32(bytes_scratch_);
            // hash_collision_misdirect quirk: the hash unit only produces N
            // low-order bits, collapsing the bucket space.
            if (quirks_.hash_collision_misdirect > 0 &&
                quirks_.hash_collision_misdirect < 32) {
                h &= (1u << quirks_.hash_collision_misdirect) - 1u;
            }
            state.set(s.ext_dst,
                      Bitvec(32, h).resize(prog_->field(s.ext_dst).width));
            return;
        }
        case p4::ir::ExternKind::checksum_update:
            if (!quirks_.skip_checksum_update) {
                checksum_update_field(*prog_, state, s.hash_header, s.checksum_field,
                                      bytes_scratch_);
            }
            return;
        case p4::ir::ExternKind::none:
            return;
    }
}

}  // namespace ndb::dataplane
