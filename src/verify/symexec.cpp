#include "verify/symexec.h"

#include <stdexcept>

#include "util/strings.h"

namespace ndb::verify {

using p4::ir::Expr;
using p4::ir::FieldRef;
using p4::ir::Program;
using p4::ir::Stmt;

const char* path_end_name(PathEnd end) {
    switch (end) {
        case PathEnd::forwarded: return "forwarded";
        case PathEnd::dropped: return "dropped";
        case PathEnd::parser_reject: return "parser_reject";
    }
    return "?";
}

SymExec::SymExec(const Program& prog, VarPool& pool, SymExecOptions options)
    : prog_(prog), pool_(pool), options_(options) {}

SymPath SymExec::finish_path(State&& st, SExpr condition, PathEnd end) {
    SymPath path;
    path.condition = std::move(condition);
    path.headers = std::move(st.headers);
    path.end = end;
    path.egress_assigned = st.egress_assigned;
    path.table_choices = std::move(st.table_choices);
    path.warnings = std::move(st.warnings);
    path.parser_edges = std::move(st.parser_edges);
    path.final_parser_state = st.final_parser_state;
    path.branches = std::move(st.branches);
    path.actions_run = std::move(st.actions_run);
    path.wire = std::move(st.wire);
    path.table_args = std::move(st.table_args);
    return path;
}

SExpr SymExec::input_var(const std::string& name, int width) {
    return pool_.get(name, width);
}

SymExec::State SymExec::initial_state() {
    State st;
    st.condition = sv_bool(true);
    st.headers.resize(prog_.headers.size());
    for (std::size_t h = 0; h < prog_.headers.size(); ++h) {
        const auto& hdr = prog_.headers[h];
        st.headers[h].valid = hdr.is_metadata;
        st.headers[h].fields.reserve(hdr.fields.size());
        for (const auto& f : hdr.fields) {
            st.headers[h].fields.push_back(sv_const(Bitvec(f.width)));
        }
    }
    // Environment inputs are symbolic: any port, any length, any time.
    st.headers[static_cast<std::size_t>(prog_.f_ingress_port.header)]
        .fields[static_cast<std::size_t>(prog_.f_ingress_port.field)] =
        input_var("std.ingress_port", 9);
    st.headers[static_cast<std::size_t>(prog_.f_packet_length.header)]
        .fields[static_cast<std::size_t>(prog_.f_packet_length.field)] =
        input_var("std.packet_length", 32);
    st.headers[static_cast<std::size_t>(prog_.f_timestamp.header)]
        .fields[static_cast<std::size_t>(prog_.f_timestamp.field)] =
        input_var("std.timestamp", 48);
    return st;
}

SExpr SymExec::eval(const Expr& e, State& state) {
    switch (e.kind) {
        case Expr::Kind::constant:
            return sv_const(e.cvalue);
        case Expr::Kind::field: {
            const auto& hdr = prog_.headers[static_cast<std::size_t>(e.fref.header)];
            if (options_.track_invalid_reads && !hdr.is_metadata &&
                !state.headers[static_cast<std::size_t>(e.fref.header)].valid) {
                state.warnings.push_back("read of field " + prog_.field_name(e.fref) +
                                         " while header may be invalid");
            }
            return state.headers[static_cast<std::size_t>(e.fref.header)]
                .fields[static_cast<std::size_t>(e.fref.field)];
        }
        case Expr::Kind::param:
            return state.params.at(static_cast<std::size_t>(e.index));
        case Expr::Kind::local:
            return state.locals.at(static_cast<std::size_t>(e.index));
        case Expr::Kind::is_valid:
            return sv_bool(state.headers[static_cast<std::size_t>(e.fref.header)].valid);
        case Expr::Kind::unary: {
            SExpr a = eval(*e.a, state);
            switch (e.un) {
                case p4::ast::UnOp::neg: return sv_neg(std::move(a));
                case p4::ast::UnOp::bnot: return sv_not(std::move(a));
                case p4::ast::UnOp::lnot: return sv_lnot(std::move(a));
            }
            break;
        }
        case Expr::Kind::binary: {
            using p4::ast::BinOp;
            SExpr a = eval(*e.a, state);
            SExpr b = eval(*e.b, state);
            switch (e.bin) {
                case BinOp::add: return sv_add(a, b);
                case BinOp::sub: return sv_sub(a, b);
                case BinOp::mul: return sv_mul(a, b);
                case BinOp::band: return sv_and(a, b);
                case BinOp::bor: return sv_or(a, b);
                case BinOp::bxor: return sv_xor(a, b);
                case BinOp::shl: return sv_shl(a, sv_resize(b, a->width));
                case BinOp::shr: return sv_lshr(a, sv_resize(b, a->width));
                case BinOp::eq: return sv_eq(a, b);
                case BinOp::ne: return sv_ne(a, b);
                case BinOp::lt: return sv_ult(a, b);
                case BinOp::le: return sv_ule(a, b);
                case BinOp::gt: return sv_ult(b, a);
                case BinOp::ge: return sv_ule(b, a);
                case BinOp::land: return sv_land(a, b);
                case BinOp::lor: return sv_lor(a, b);
                case BinOp::concat: return sv_concat(a, b);
            }
            break;
        }
        case Expr::Kind::ternary:
            return sv_ite(eval(*e.c, state), eval(*e.a, state), eval(*e.b, state));
        case Expr::Kind::slice:
            return sv_slice(eval(*e.a, state), e.hi, e.lo);
        case Expr::Kind::cast:
            return sv_resize(eval(*e.a, state), e.width);
    }
    throw std::logic_error("SymExec::eval: unreachable");
}

SExpr SymExec::checksum_expr(const State& state, int header, int checksum_field) const {
    const auto& hdr = prog_.headers[static_cast<std::size_t>(header)];
    // Header image with the checksum field zeroed.
    SExpr image = sv_const(Bitvec(0));
    for (std::size_t f = 0; f < hdr.fields.size(); ++f) {
        const SExpr v = static_cast<int>(f) == checksum_field
                            ? sv_const(Bitvec(hdr.fields[f].width))
                            : state.headers[static_cast<std::size_t>(header)].fields[f];
        image = sv_concat(image, v);
    }
    // Pad to a 16-bit boundary on the right (low bits), like byte padding.
    const int pad = (16 - image->width % 16) % 16;
    if (pad) image = sv_concat(image, sv_const(Bitvec(pad)));
    // Sum the 16-bit words in a 32-bit accumulator; MSB-first words.
    SExpr sum = sv_const(Bitvec(32));
    for (int off = 0; off < image->width; off += 16) {
        const int hi = image->width - 1 - off;
        sum = sv_add(sum, sv_resize(sv_slice(image, hi, hi - 15), 32));
    }
    // Three folds bring any 32-bit ones-complement sum into 16 bits.
    for (int i = 0; i < 3; ++i) {
        sum = sv_add(sv_resize(sv_slice(sum, 15, 0), 32),
                     sv_resize(sv_slice(sum, 31, 16), 32));
    }
    return sv_not(sv_slice(sum, 15, 0));
}

void SymExec::run_parser(State state, int state_id, int depth,
                         std::vector<State>& accepted,
                         std::vector<SymPath>& finished) {
    if (state_id == p4::ir::kAccept) {
        accepted.push_back(std::move(state));
        return;
    }
    if (state_id == p4::ir::kReject || depth > 64) {
        state.final_parser_state = p4::ir::kReject;
        SExpr cond = state.condition;
        finished.push_back(
            finish_path(std::move(state), std::move(cond), PathEnd::parser_reject));
        return;
    }
    const auto& ps = prog_.parser_states[static_cast<std::size_t>(state_id)];
    for (const auto& op : ps.ops) {
        switch (op.kind) {
            case p4::ir::ParserOp::Kind::extract: {
                auto& inst = state.headers[static_cast<std::size_t>(op.header)];
                const auto& hdr = prog_.headers[static_cast<std::size_t>(op.header)];
                inst.valid = true;
                for (std::size_t f = 0; f < hdr.fields.size(); ++f) {
                    // Packet content is unconstrained: every extracted field
                    // is an input variable named after the header instance.
                    inst.fields[f] = input_var(hdr.name + "." + hdr.fields[f].name,
                                               hdr.fields[f].width);
                }
                state.wire.push_back({op.header, hdr.size_bits});
                break;
            }
            case p4::ir::ParserOp::Kind::advance:
                // No symbolic effect, but the bytes occupy wire positions.
                state.wire.push_back({-1, op.bits});
                break;
            case p4::ir::ParserOp::Kind::assign: {
                const SExpr v = eval(*op.value, state);
                state.headers[static_cast<std::size_t>(op.dst.header)]
                    .fields[static_cast<std::size_t>(op.dst.field)] =
                    sv_resize(v, prog_.field(op.dst).width);
                break;
            }
        }
    }
    const auto& t = ps.transition;
    if (t.kind == p4::ir::Transition::Kind::direct) {
        state.parser_edges.emplace_back(state_id, t.next_state);
        run_parser(std::move(state), t.next_state, depth + 1, accepted, finished);
        return;
    }
    // Select: evaluate keys once against the current state.
    std::vector<SExpr> keys;
    keys.reserve(t.keys.size());
    for (const auto& k : t.keys) keys.push_back(eval(*k, state));

    SExpr none_before = sv_bool(true);  // no earlier case matched
    bool first_case = true;             // the first live case rides for free
    for (const auto& c : t.cases) {
        SExpr match = sv_bool(true);
        for (std::size_t i = 0; i < c.sets.size(); ++i) {
            const auto& ks = c.sets[i];
            if (ks.any) continue;
            match = sv_land(match, sv_eq(sv_and(keys[i], sv_const(ks.mask)),
                                         sv_const(ks.value.band(ks.mask))));
        }
        const SExpr taken = sv_land(state.condition, sv_land(none_before, match));
        if (!sv_is_false(taken) && (first_case || fork_budget())) {
            first_case = false;
            State branch = state;
            branch.condition = taken;
            branch.parser_edges.emplace_back(state_id, c.next_state);
            run_parser(std::move(branch), c.next_state, depth + 1, accepted, finished);
        }
        none_before = sv_land(none_before, sv_lnot(match));
        if (sv_is_false(none_before)) return;  // later cases unreachable
    }
    // No case matched: implicit reject.
    const SExpr fallthrough = sv_land(state.condition, none_before);
    if (!sv_is_false(fallthrough) && (first_case || fork_budget())) {
        State branch = std::move(state);
        branch.condition = fallthrough;
        branch.parser_edges.emplace_back(state_id, p4::ir::kReject);
        run_parser(std::move(branch), p4::ir::kReject, depth + 1, accepted, finished);
    }
}

void SymExec::exec_body(const std::vector<p4::ir::StmtPtr>& body, std::size_t from,
                        State state, std::vector<State>& out) {
    for (std::size_t i = from; i < body.size(); ++i) {
        if (state.exited) break;
        const Stmt& s = *body[i];
        switch (s.kind) {
            case Stmt::Kind::assign_field: {
                const SExpr v = eval(*s.value, state);
                if (s.dst == prog_.f_egress_spec) state.egress_assigned = true;
                state.headers[static_cast<std::size_t>(s.dst.header)]
                    .fields[static_cast<std::size_t>(s.dst.field)] =
                    sv_resize(v, prog_.field(s.dst).width);
                continue;
            }
            case Stmt::Kind::assign_local:
                state.locals.at(static_cast<std::size_t>(s.local_index)) =
                    eval(*s.value, state);
                continue;
            case Stmt::Kind::assign_slice: {
                const SExpr v = eval(*s.value, state);
                auto& slot = state.headers[static_cast<std::size_t>(s.dst.header)]
                                 .fields[static_cast<std::size_t>(s.dst.field)];
                const int w = slot->width;
                SExpr result = v;
                if (s.hi + 1 < w) {
                    result = sv_concat(sv_slice(slot, w - 1, s.hi + 1), result);
                }
                if (s.lo > 0) {
                    result = sv_concat(result, sv_slice(slot, s.lo - 1, 0));
                }
                slot = result;
                continue;
            }
            case Stmt::Kind::if_stmt: {
                const SExpr cond = eval(*s.cond, state);
                const bool then_viable = !sv_is_false(cond);
                // Fork; each branch finishes the remainder of this body.
                if (then_viable) {
                    State then_state = state;
                    then_state.condition = sv_land(then_state.condition, cond);
                    then_state.branches.emplace_back(&s, true);
                    if (!sv_is_false(then_state.condition)) {
                        std::vector<State> after_then;
                        exec_body(s.then_body, 0, std::move(then_state), after_then);
                        for (auto& st : after_then) {
                            exec_body(body, i + 1, std::move(st), out);
                        }
                    }
                }
                const SExpr ncond = sv_lnot(cond);
                // The second live branch is a genuine fork and consumes
                // exploration budget; the first continuation is free.
                if (!sv_is_false(ncond) && (!then_viable || fork_budget())) {
                    State else_state = std::move(state);
                    else_state.condition = sv_land(else_state.condition, ncond);
                    else_state.branches.emplace_back(&s, false);
                    if (!sv_is_false(else_state.condition)) {
                        std::vector<State> after_else;
                        exec_body(s.else_body, 0, std::move(else_state), after_else);
                        for (auto& st : after_else) {
                            exec_body(body, i + 1, std::move(st), out);
                        }
                    }
                }
                return;  // both branches continued the body themselves
            }
            case Stmt::Kind::apply_table: {
                const auto& table = prog_.tables[static_cast<std::size_t>(s.table)];
                // The control plane is unconstrained: any allowed action (or
                // the default) may run, with arbitrary action data.  Fork per
                // action -- the sound over-approximation p4v uses absent
                // control-plane assumptions.
                bool first_action = true;
                for (const int action_id : table.actions) {
                    // Every action beyond the first is a fork.
                    if (!first_action && !fork_budget()) break;
                    first_action = false;
                    const auto& action =
                        prog_.actions[static_cast<std::size_t>(action_id)];
                    State branch = state;
                    branch.table_choices.emplace_back(s.table, action_id);
                    branch.actions_run.push_back(action_id);
                    // Fresh unconstrained action data per (table, action).
                    std::vector<SExpr> saved_params = branch.params;
                    std::vector<SExpr> saved_locals = branch.locals;
                    branch.params.clear();
                    for (std::size_t p = 0; p < action.param_widths.size(); ++p) {
                        branch.params.push_back(pool_.fresh(
                            action.param_widths[p],
                            util::format("%s.%s.arg%zu#%d", table.name.c_str(),
                                         action.name.c_str(), p, fresh_counter_++)));
                    }
                    branch.table_args.push_back(branch.params);
                    branch.locals.assign(action.local_widths.size(), nullptr);
                    for (std::size_t l = 0; l < action.local_widths.size(); ++l) {
                        branch.locals[l] = sv_const(Bitvec(action.local_widths[l]));
                    }
                    std::vector<State> after_action;
                    exec_body(action.body, 0, std::move(branch), after_action);
                    for (auto& st : after_action) {
                        st.params = saved_params;
                        st.locals = saved_locals;
                        st.exited = false;
                        exec_body(body, i + 1, std::move(st), out);
                    }
                }
                return;
            }
            case Stmt::Kind::call_action: {
                const auto& action = prog_.actions[static_cast<std::size_t>(s.action)];
                State branch = std::move(state);
                branch.actions_run.push_back(s.action);
                std::vector<SExpr> saved_params = branch.params;
                std::vector<SExpr> saved_locals = branch.locals;
                std::vector<SExpr> args;
                for (const auto& a : s.action_args) args.push_back(eval(*a, branch));
                branch.params = std::move(args);
                branch.locals.clear();
                for (const int w : action.local_widths) {
                    branch.locals.push_back(sv_const(Bitvec(w)));
                }
                std::vector<State> after_action;
                exec_body(action.body, 0, std::move(branch), after_action);
                for (auto& st : after_action) {
                    st.params = saved_params;
                    st.locals = saved_locals;
                    st.exited = false;
                    exec_body(body, i + 1, std::move(st), out);
                }
                return;
            }
            case Stmt::Kind::set_valid:
                state.headers[static_cast<std::size_t>(s.dst.header)].valid =
                    s.make_valid;
                continue;
            case Stmt::Kind::extern_op: {
                switch (s.ext) {
                    case p4::ir::ExternKind::mark_to_drop:
                        state.headers[static_cast<std::size_t>(
                                          prog_.f_egress_spec.header)]
                            .fields[static_cast<std::size_t>(
                                prog_.f_egress_spec.field)] =
                            sv_const_u(9, p4::ir::kDropPort);
                        state.egress_assigned = true;
                        continue;
                    case p4::ir::ExternKind::register_read: {
                        // Device state is unconstrained at verification time.
                        const int w = prog_.field(s.ext_dst).width;
                        state.headers[static_cast<std::size_t>(s.ext_dst.header)]
                            .fields[static_cast<std::size_t>(s.ext_dst.field)] =
                            pool_.fresh(w, util::format("reg#%d", fresh_counter_++));
                        continue;
                    }
                    case p4::ir::ExternKind::register_write:
                    case p4::ir::ExternKind::counter_count:
                        continue;  // no observable effect on this packet
                    case p4::ir::ExternKind::meter_execute: {
                        const int w = prog_.field(s.ext_dst).width;
                        const SExpr color =
                            pool_.fresh(w, util::format("meter#%d", fresh_counter_++));
                        // Colors are 0..2.
                        state.condition = sv_land(
                            state.condition, sv_ule(color, sv_const_u(w, 2)));
                        state.headers[static_cast<std::size_t>(s.ext_dst.header)]
                            .fields[static_cast<std::size_t>(s.ext_dst.field)] = color;
                        continue;
                    }
                    case p4::ir::ExternKind::hash: {
                        // Hashes are modeled as uninterpreted values.
                        const int w = prog_.field(s.ext_dst).width;
                        state.headers[static_cast<std::size_t>(s.ext_dst.header)]
                            .fields[static_cast<std::size_t>(s.ext_dst.field)] =
                            pool_.fresh(w, util::format("hash#%d", fresh_counter_++));
                        continue;
                    }
                    case p4::ir::ExternKind::checksum_update: {
                        const SExpr csum =
                            checksum_expr(state, s.hash_header, s.checksum_field);
                        const int w =
                            prog_.headers[static_cast<std::size_t>(s.hash_header)]
                                .fields[static_cast<std::size_t>(s.checksum_field)]
                                .width;
                        state.headers[static_cast<std::size_t>(s.hash_header)]
                            .fields[static_cast<std::size_t>(s.checksum_field)] =
                            sv_resize(csum, w);
                        continue;
                    }
                    case p4::ir::ExternKind::none:
                        continue;
                }
                continue;
            }
            case Stmt::Kind::exit_pipeline:
                state.exited = true;
                continue;
        }
    }
    out.push_back(std::move(state));
}

SymExecResult SymExec::explore() {
    std::vector<SymPath> finished;
    std::vector<State> accepted;
    run_parser(initial_state(), prog_.start_state, 0, accepted, finished);

    const SExpr drop_spec = sv_const_u(9, p4::ir::kDropPort);
    const auto egress_spec_of = [&](const State& st) {
        return st.headers[static_cast<std::size_t>(prog_.f_egress_spec.header)]
            .fields[static_cast<std::size_t>(prog_.f_egress_spec.field)];
    };
    for (auto& st : accepted) {
        st.locals.clear();
        for (const int w : prog_.ingress.local_widths) {
            st.locals.push_back(sv_const(Bitvec(w)));
        }
        std::vector<State> after_ingress;
        exec_body(prog_.ingress.body, 0, std::move(st), after_ingress);

        for (auto& ing : after_ingress) {
            const SExpr spec = egress_spec_of(ing);
            const SExpr is_drop = sv_eq(spec, drop_spec);
            // Drop branch.
            const SExpr drop_cond = sv_land(ing.condition, is_drop);
            if (!sv_is_false(drop_cond)) {
                finished.push_back(
                    finish_path(State(ing), drop_cond, PathEnd::dropped));
            }
            // Forward branch: run egress if present.
            const SExpr fwd_cond = sv_land(ing.condition, sv_lnot(is_drop));
            if (sv_is_false(fwd_cond)) continue;
            State fwd = std::move(ing);
            fwd.condition = fwd_cond;
            // egress_port := egress_spec
            fwd.headers[static_cast<std::size_t>(prog_.f_egress_port.header)]
                .fields[static_cast<std::size_t>(prog_.f_egress_port.field)] = spec;
            std::vector<State> after_egress;
            if (prog_.egress) {
                fwd.exited = false;
                fwd.locals.clear();
                for (const int w : prog_.egress->local_widths) {
                    fwd.locals.push_back(sv_const(Bitvec(w)));
                }
                exec_body(prog_.egress->body, 0, std::move(fwd), after_egress);
            } else {
                after_egress.push_back(std::move(fwd));
            }
            for (auto& eg : after_egress) {
                const SExpr spec2 = egress_spec_of(eg);
                const SExpr drop2 = sv_eq(spec2, drop_spec);
                const SExpr cond_drop2 = sv_land(eg.condition, drop2);
                if (!sv_is_false(cond_drop2)) {
                    finished.push_back(
                        finish_path(State(eg), cond_drop2, PathEnd::dropped));
                }
                const SExpr cond_fwd2 = sv_land(eg.condition, sv_lnot(drop2));
                if (sv_is_false(cond_fwd2)) continue;
                finished.push_back(
                    finish_path(std::move(eg), cond_fwd2, PathEnd::forwarded));
            }
        }
    }
    SymExecResult result;
    result.paths = std::move(finished);
    result.paths_exhausted = truncated_ > 0;
    return result;
}

SExpr SymExec::field(const SymPath& path, FieldRef ref) const {
    return path.headers.at(static_cast<std::size_t>(ref.header))
        .fields.at(static_cast<std::size_t>(ref.field));
}

SExpr SymExec::egress_spec(const SymPath& path) const {
    return path.headers[static_cast<std::size_t>(prog_.f_egress_spec.header)]
        .fields[static_cast<std::size_t>(prog_.f_egress_spec.field)];
}

}  // namespace ndb::verify
