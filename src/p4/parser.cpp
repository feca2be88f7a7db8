#include "p4/parser.h"

#include "p4/lexer.h"

namespace ndb::p4 {

namespace {

ast::ExprPtr make_expr(ast::Expr::Kind kind, util::SourceLoc loc) {
    auto e = std::make_unique<ast::Expr>();
    e->kind = kind;
    e->loc = loc;
    return e;
}

ast::StmtPtr make_stmt(ast::Stmt::Kind kind, util::SourceLoc loc) {
    auto s = std::make_unique<ast::Stmt>();
    s->kind = kind;
    s->loc = loc;
    return s;
}

// Binary operator precedence; higher binds tighter.
int precedence(TokKind kind) {
    switch (kind) {
        case TokKind::pipe_pipe: return 1;
        case TokKind::amp_amp: return 2;
        case TokKind::eq_eq:
        case TokKind::bang_eq: return 3;
        case TokKind::l_angle:
        case TokKind::r_angle:
        case TokKind::le:
        case TokKind::ge: return 4;
        case TokKind::pipe: return 5;
        case TokKind::caret: return 6;
        case TokKind::amp: return 7;
        case TokKind::shl:
        case TokKind::shr: return 8;
        case TokKind::plus_plus: return 9;
        case TokKind::plus:
        case TokKind::minus: return 10;
        case TokKind::star: return 11;
        default: return -1;
    }
}

ast::BinOp bin_op_for(TokKind kind) {
    switch (kind) {
        case TokKind::pipe_pipe: return ast::BinOp::lor;
        case TokKind::amp_amp: return ast::BinOp::land;
        case TokKind::eq_eq: return ast::BinOp::eq;
        case TokKind::bang_eq: return ast::BinOp::ne;
        case TokKind::l_angle: return ast::BinOp::lt;
        case TokKind::r_angle: return ast::BinOp::gt;
        case TokKind::le: return ast::BinOp::le;
        case TokKind::ge: return ast::BinOp::ge;
        case TokKind::pipe: return ast::BinOp::bor;
        case TokKind::caret: return ast::BinOp::bxor;
        case TokKind::amp: return ast::BinOp::band;
        case TokKind::shl: return ast::BinOp::shl;
        case TokKind::shr: return ast::BinOp::shr;
        case TokKind::plus_plus: return ast::BinOp::concat;
        case TokKind::plus: return ast::BinOp::add;
        case TokKind::minus: return ast::BinOp::sub;
        case TokKind::star: return ast::BinOp::mul;
        default: return ast::BinOp::add;
    }
}

}  // namespace

P4Parser::P4Parser(std::vector<Token> tokens, util::DiagEngine& diags)
    : tokens_(std::move(tokens)), diags_(diags) {}

const Token& P4Parser::peek(int ahead) const {
    const std::size_t i = pos_ + static_cast<std::size_t>(ahead);
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
}

const Token& P4Parser::advance() {
    const Token& t = peek();
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
}

bool P4Parser::accept(TokKind kind) {
    if (!check(kind)) return false;
    advance();
    return true;
}

const Token& P4Parser::expect(TokKind kind, const char* what) {
    if (!check(kind)) {
        diags_.error(peek().loc, std::string("expected ") + tok_kind_name(kind) +
                                     " " + what + ", found " +
                                     tok_kind_name(peek().kind));
        throw Bail{};
    }
    return advance();
}

void P4Parser::expect_close_angle(const char* what) {
    if (check(TokKind::r_angle)) {
        advance();
        return;
    }
    if (check(TokKind::shr)) {
        // Split '>>' in place: consume one '>', leave one behind.
        tokens_[pos_].kind = TokKind::r_angle;
        return;
    }
    diags_.error(peek().loc, std::string("expected '>' ") + what + ", found " +
                                 tok_kind_name(peek().kind));
    throw Bail{};
}

void P4Parser::fail(const char* message) {
    diags_.error(peek().loc, message);
    throw Bail{};
}

void P4Parser::sync_to_decl() {
    // Skip tokens until a plausible declaration start at brace depth zero.
    int depth = 0;
    while (!check(TokKind::end_of_file)) {
        switch (peek().kind) {
            case TokKind::l_brace:
                ++depth;
                advance();
                break;
            case TokKind::r_brace:
                if (depth == 0) {
                    advance();
                    return;
                }
                --depth;
                advance();
                break;
            case TokKind::semicolon:
                advance();
                if (depth == 0) return;
                break;
            default:
                advance();
                break;
        }
    }
}

ast::Program P4Parser::parse_program() {
    ast::Program prog;
    while (!check(TokKind::end_of_file)) {
        try {
            switch (peek().kind) {
                case TokKind::kw_header: parse_header(prog); break;
                case TokKind::kw_struct: parse_struct(prog); break;
                case TokKind::kw_typedef: parse_typedef(prog); break;
                case TokKind::kw_const: parse_const(prog); break;
                case TokKind::kw_parser: parse_parser_decl(prog); break;
                case TokKind::kw_control: parse_control_decl(prog); break;
                case TokKind::identifier: parse_package_inst(prog); break;
                default:
                    fail("expected a declaration");
            }
        } catch (const Bail&) {
            sync_to_decl();
        }
    }
    return prog;
}

ast::TypeRef P4Parser::parse_type() {
    ast::TypeRef t;
    t.loc = peek().loc;
    if (accept(TokKind::kw_bit)) {
        t.kind = ast::TypeRef::Kind::bits;
        expect(TokKind::l_angle, "after 'bit'");
        const Token& n = expect(TokKind::number, "as bit width");
        // Range-check the full literal before narrowing it to int.
        const std::uint64_t width = n.value.fits_u64() ? n.value.to_u64() : 0;
        if (width == 0 || width > 4096) {
            diags_.error(n.loc, "bit width must be in [1, 4096]");
            t.width = 1;
        } else {
            t.width = static_cast<int>(width);
        }
        expect_close_angle("after bit width");
    } else if (accept(TokKind::kw_bool)) {
        t.kind = ast::TypeRef::Kind::boolean;
    } else {
        const Token& id = expect(TokKind::identifier, "as type name");
        t.kind = ast::TypeRef::Kind::named;
        t.name = id.text;
    }
    return t;
}

ast::FieldDecl P4Parser::parse_field() {
    ast::FieldDecl f;
    f.loc = peek().loc;
    f.type = parse_type();
    f.name = expect(TokKind::identifier, "as field name").text;
    expect(TokKind::semicolon, "after field");
    return f;
}

void P4Parser::parse_header(ast::Program& prog) {
    ast::HeaderDecl h;
    h.loc = peek().loc;
    expect(TokKind::kw_header, "");
    h.name = expect(TokKind::identifier, "as header name").text;
    expect(TokKind::l_brace, "to open header");
    while (!accept(TokKind::r_brace)) {
        h.fields.push_back(parse_field());
    }
    prog.headers.push_back(std::move(h));
}

void P4Parser::parse_struct(ast::Program& prog) {
    ast::StructDecl s;
    s.loc = peek().loc;
    expect(TokKind::kw_struct, "");
    s.name = expect(TokKind::identifier, "as struct name").text;
    expect(TokKind::l_brace, "to open struct");
    while (!accept(TokKind::r_brace)) {
        s.fields.push_back(parse_field());
    }
    prog.structs.push_back(std::move(s));
}

void P4Parser::parse_typedef(ast::Program& prog) {
    ast::TypedefDecl t;
    t.loc = peek().loc;
    expect(TokKind::kw_typedef, "");
    t.type = parse_type();
    t.name = expect(TokKind::identifier, "as typedef name").text;
    expect(TokKind::semicolon, "after typedef");
    prog.typedefs.push_back(std::move(t));
}

void P4Parser::parse_const(ast::Program& prog) {
    ast::ConstDecl c;
    c.loc = peek().loc;
    expect(TokKind::kw_const, "");
    c.type = parse_type();
    c.name = expect(TokKind::identifier, "as constant name").text;
    expect(TokKind::assign, "in constant definition");
    c.value = parse_expr();
    expect(TokKind::semicolon, "after constant");
    prog.consts.push_back(std::move(c));
}

std::vector<ast::Param> P4Parser::parse_params() {
    std::vector<ast::Param> params;
    expect(TokKind::l_paren, "to open parameter list");
    if (!check(TokKind::r_paren)) {
        do {
            ast::Param p;
            p.loc = peek().loc;
            if (accept(TokKind::kw_in)) {
                p.dir = ast::ParamDir::in;
            } else if (accept(TokKind::kw_out)) {
                p.dir = ast::ParamDir::out;
            } else if (accept(TokKind::kw_inout)) {
                p.dir = ast::ParamDir::inout;
            }
            p.type = parse_type();
            p.name = expect(TokKind::identifier, "as parameter name").text;
            params.push_back(std::move(p));
        } while (accept(TokKind::comma));
    }
    expect(TokKind::r_paren, "to close parameter list");
    return params;
}

void P4Parser::parse_parser_decl(ast::Program& prog) {
    ast::ParserDecl p;
    p.loc = peek().loc;
    expect(TokKind::kw_parser, "");
    p.name = expect(TokKind::identifier, "as parser name").text;
    p.params = parse_params();
    expect(TokKind::l_brace, "to open parser body");
    while (!accept(TokKind::r_brace)) {
        p.states.push_back(parse_parser_state());
    }
    prog.parsers.push_back(std::move(p));
}

ast::Keyset P4Parser::parse_keyset() {
    ast::Keyset k;
    k.loc = peek().loc;
    if (accept(TokKind::kw_default) || accept(TokKind::underscore)) {
        k.kind = ast::Keyset::Kind::any;
        return k;
    }
    k.value = parse_expr();
    if (accept(TokKind::amp_amp_amp)) {
        k.kind = ast::Keyset::Kind::masked;
        k.mask = parse_expr();
    } else {
        k.kind = ast::Keyset::Kind::value;
    }
    return k;
}

ast::ParserState P4Parser::parse_parser_state() {
    ast::ParserState st;
    st.loc = peek().loc;
    expect(TokKind::kw_state, "to begin parser state");
    st.name = expect(TokKind::identifier, "as state name").text;
    expect(TokKind::l_brace, "to open state");
    bool have_transition = false;
    while (!accept(TokKind::r_brace)) {
        if (accept(TokKind::kw_transition)) {
            have_transition = true;
            if (accept(TokKind::kw_select)) {
                st.tkind = ast::ParserState::TransitionKind::select;
                expect(TokKind::l_paren, "after 'select'");
                do {
                    st.select_exprs.push_back(parse_expr());
                } while (accept(TokKind::comma));
                expect(TokKind::r_paren, "to close select keys");
                expect(TokKind::l_brace, "to open select cases");
                while (!accept(TokKind::r_brace)) {
                    ast::SelectCase c;
                    c.loc = peek().loc;
                    if (accept(TokKind::l_paren)) {
                        do {
                            c.keys.push_back(parse_keyset());
                        } while (accept(TokKind::comma));
                        expect(TokKind::r_paren, "to close keyset tuple");
                    } else {
                        c.keys.push_back(parse_keyset());
                    }
                    expect(TokKind::colon, "before select target");
                    c.next_state = expect(TokKind::identifier, "as next state").text;
                    expect(TokKind::semicolon, "after select case");
                    st.cases.push_back(std::move(c));
                }
            } else {
                st.tkind = ast::ParserState::TransitionKind::direct;
                st.next_state = expect(TokKind::identifier, "as next state").text;
                expect(TokKind::semicolon, "after transition");
            }
            // transition must be last in the state
            expect(TokKind::r_brace, "after transition");
            return st;
        }
        st.stmts.push_back(parse_statement());
    }
    if (!have_transition) {
        // P4 allows a state without transition: implicit reject.
        st.tkind = ast::ParserState::TransitionKind::direct;
        st.next_state = "reject";
    }
    return st;
}

ast::ExternInstance P4Parser::parse_extern_instance() {
    ast::ExternInstance e;
    e.loc = peek().loc;
    if (accept(TokKind::kw_register)) {
        e.kind = ast::ExternInstance::Kind::reg;
        expect(TokKind::l_angle, "after 'register'");
        e.elem_type = parse_type();
        expect_close_angle("after register element type");
    } else if (accept(TokKind::kw_counter)) {
        e.kind = ast::ExternInstance::Kind::counter;
    } else {
        expect(TokKind::kw_meter, "for extern instance");
        e.kind = ast::ExternInstance::Kind::meter;
    }
    expect(TokKind::l_paren, "to open extern arguments");
    const Token& n = expect(TokKind::number, "as extern array size");
    e.array_size = static_cast<std::int64_t>(n.value.to_u64());
    expect(TokKind::r_paren, "to close extern arguments");
    e.name = expect(TokKind::identifier, "as extern instance name").text;
    expect(TokKind::semicolon, "after extern instance");
    return e;
}

ast::ActionDecl P4Parser::parse_action() {
    ast::ActionDecl a;
    a.loc = peek().loc;
    expect(TokKind::kw_action, "");
    a.name = expect(TokKind::identifier, "as action name").text;
    a.params = parse_params();
    expect(TokKind::l_brace, "to open action body");
    while (!check(TokKind::r_brace)) {
        a.body.push_back(parse_statement());
    }
    expect(TokKind::r_brace, "to close action body");
    return a;
}

ast::TableDecl P4Parser::parse_table() {
    ast::TableDecl t;
    t.loc = peek().loc;
    expect(TokKind::kw_table, "");
    t.name = expect(TokKind::identifier, "as table name").text;
    expect(TokKind::l_brace, "to open table");
    while (!accept(TokKind::r_brace)) {
        if (accept(TokKind::kw_key)) {
            expect(TokKind::assign, "after 'key'");
            expect(TokKind::l_brace, "to open key list");
            while (!accept(TokKind::r_brace)) {
                ast::KeyElement k;
                k.loc = peek().loc;
                k.expr = parse_expr();
                expect(TokKind::colon, "before match kind");
                k.match_kind = expect(TokKind::identifier, "as match kind").text;
                expect(TokKind::semicolon, "after key element");
                t.keys.push_back(std::move(k));
            }
        } else if (accept(TokKind::kw_actions)) {
            expect(TokKind::assign, "after 'actions'");
            expect(TokKind::l_brace, "to open action list");
            while (!accept(TokKind::r_brace)) {
                ast::ActionRef r;
                r.loc = peek().loc;
                r.name = expect(TokKind::identifier, "as action name").text;
                expect(TokKind::semicolon, "after action reference");
                t.actions.push_back(std::move(r));
            }
        } else if (accept(TokKind::kw_default_action)) {
            expect(TokKind::assign, "after 'default_action'");
            ast::ActionRef r;
            r.loc = peek().loc;
            r.name = expect(TokKind::identifier, "as default action").text;
            if (accept(TokKind::l_paren)) {
                if (!check(TokKind::r_paren)) {
                    do {
                        r.args.push_back(parse_expr());
                    } while (accept(TokKind::comma));
                }
                expect(TokKind::r_paren, "to close default action arguments");
            }
            expect(TokKind::semicolon, "after default_action");
            t.default_action = std::move(r);
        } else if (accept(TokKind::kw_size)) {
            expect(TokKind::assign, "after 'size'");
            const Token& n = expect(TokKind::number, "as table size");
            t.size = static_cast<std::int64_t>(n.value.to_u64());
            expect(TokKind::semicolon, "after size");
        } else {
            fail("expected a table property (key/actions/default_action/size)");
        }
    }
    return t;
}

void P4Parser::parse_control_decl(ast::Program& prog) {
    ast::ControlDecl c;
    c.loc = peek().loc;
    expect(TokKind::kw_control, "");
    c.name = expect(TokKind::identifier, "as control name").text;
    c.params = parse_params();
    expect(TokKind::l_brace, "to open control body");
    while (!check(TokKind::kw_apply)) {
        switch (peek().kind) {
            case TokKind::kw_action:
                c.actions.push_back(parse_action());
                break;
            case TokKind::kw_table:
                c.tables.push_back(parse_table());
                break;
            case TokKind::kw_register:
            case TokKind::kw_counter:
            case TokKind::kw_meter:
                c.externs.push_back(parse_extern_instance());
                break;
            default:
                fail("expected action/table/extern declaration or 'apply'");
        }
    }
    expect(TokKind::kw_apply, "");
    expect(TokKind::l_brace, "to open apply block");
    while (!check(TokKind::r_brace)) {
        c.apply_body.push_back(parse_statement());
    }
    expect(TokKind::r_brace, "to close apply block");
    expect(TokKind::r_brace, "to close control");
    prog.controls.push_back(std::move(c));
}

void P4Parser::parse_package_inst(ast::Program& prog) {
    ast::PackageInst pkg;
    pkg.loc = peek().loc;
    pkg.package_name = expect(TokKind::identifier, "as package name").text;
    expect(TokKind::l_paren, "to open package arguments");
    if (!check(TokKind::r_paren)) {
        do {
            pkg.args.push_back(expect(TokKind::identifier, "as package argument").text);
            expect(TokKind::l_paren, "after package argument");
            expect(TokKind::r_paren, "after package argument");
        } while (accept(TokKind::comma));
    }
    expect(TokKind::r_paren, "to close package arguments");
    expect(TokKind::kw_main, "as package instance name");
    expect(TokKind::semicolon, "after package instantiation");
    if (prog.package) {
        diags_.error(pkg.loc, "duplicate package instantiation");
    }
    prog.package = std::move(pkg);
}

// --- statements ---------------------------------------------------------------

ast::StmtPtr P4Parser::parse_block() {
    auto s = make_stmt(ast::Stmt::Kind::block, peek().loc);
    expect(TokKind::l_brace, "to open block");
    while (!check(TokKind::r_brace)) {
        s->body.push_back(parse_statement());
    }
    expect(TokKind::r_brace, "to close block");
    return s;
}

ast::StmtPtr P4Parser::parse_statement() {
    const util::SourceLoc loc = peek().loc;
    switch (peek().kind) {
        case TokKind::l_brace:
            return parse_block();
        case TokKind::kw_if: {
            advance();
            auto s = make_stmt(ast::Stmt::Kind::if_stmt, loc);
            expect(TokKind::l_paren, "after 'if'");
            s->cond = parse_expr();
            expect(TokKind::r_paren, "to close if condition");
            s->then_branch = parse_statement();
            if (accept(TokKind::kw_else)) {
                s->else_branch = parse_statement();
            }
            return s;
        }
        case TokKind::kw_exit: {
            advance();
            expect(TokKind::semicolon, "after 'exit'");
            return make_stmt(ast::Stmt::Kind::exit, loc);
        }
        case TokKind::kw_return: {
            advance();
            expect(TokKind::semicolon, "after 'return'");
            return make_stmt(ast::Stmt::Kind::ret, loc);
        }
        case TokKind::kw_bit:
        case TokKind::kw_bool: {
            auto s = make_stmt(ast::Stmt::Kind::var_decl, loc);
            s->var_type = parse_type();
            s->var_name = expect(TokKind::identifier, "as variable name").text;
            if (accept(TokKind::assign)) {
                s->var_init = parse_expr();
            }
            expect(TokKind::semicolon, "after variable declaration");
            return s;
        }
        default:
            break;
    }
    // Named-type variable declaration: `TypeName varName [= expr];`
    if (check(TokKind::identifier) && peek(1).kind == TokKind::identifier) {
        auto s = make_stmt(ast::Stmt::Kind::var_decl, loc);
        s->var_type = parse_type();
        s->var_name = expect(TokKind::identifier, "as variable name").text;
        if (accept(TokKind::assign)) {
            s->var_init = parse_expr();
        }
        expect(TokKind::semicolon, "after variable declaration");
        return s;
    }
    // Assignment or call statement.
    auto e = parse_postfix();
    if (accept(TokKind::assign)) {
        auto s = make_stmt(ast::Stmt::Kind::assign, loc);
        s->lhs = std::move(e);
        s->rhs = parse_expr();
        expect(TokKind::semicolon, "after assignment");
        return s;
    }
    if (e->kind != ast::Expr::Kind::call) {
        diags_.error(loc, "expected assignment or call statement");
        throw Bail{};
    }
    auto s = make_stmt(ast::Stmt::Kind::call, loc);
    s->call = std::move(e);
    expect(TokKind::semicolon, "after call");
    return s;
}

// --- expressions ----------------------------------------------------------------

ast::ExprPtr P4Parser::parse_expr() { return parse_ternary(); }

ast::ExprPtr P4Parser::parse_ternary() {
    auto cond = parse_binary(0);
    if (!accept(TokKind::question)) return cond;
    auto e = make_expr(ast::Expr::Kind::ternary, cond->loc);
    e->cond = std::move(cond);
    e->lhs = parse_expr();
    expect(TokKind::colon, "in conditional expression");
    e->rhs = parse_expr();
    return e;
}

ast::ExprPtr P4Parser::parse_binary(int min_prec) {
    auto lhs = parse_unary();
    for (;;) {
        const int prec = precedence(peek().kind);
        if (prec < 0 || prec < min_prec) return lhs;
        const TokKind op = advance().kind;
        auto rhs = parse_binary(prec + 1);
        auto e = make_expr(ast::Expr::Kind::binary, lhs->loc);
        e->bin = bin_op_for(op);
        e->lhs = std::move(lhs);
        e->rhs = std::move(rhs);
        lhs = std::move(e);
    }
}

ast::ExprPtr P4Parser::parse_unary() {
    const util::SourceLoc loc = peek().loc;
    if (accept(TokKind::minus)) {
        auto e = make_expr(ast::Expr::Kind::unary, loc);
        e->un = ast::UnOp::neg;
        e->lhs = parse_unary();
        return e;
    }
    if (accept(TokKind::tilde)) {
        auto e = make_expr(ast::Expr::Kind::unary, loc);
        e->un = ast::UnOp::bnot;
        e->lhs = parse_unary();
        return e;
    }
    if (accept(TokKind::bang)) {
        auto e = make_expr(ast::Expr::Kind::unary, loc);
        e->un = ast::UnOp::lnot;
        e->lhs = parse_unary();
        return e;
    }
    // Cast: '(' (bit<N> | bool | TypeName ')' followed by a unary expression.
    if (check(TokKind::l_paren) &&
        (peek(1).kind == TokKind::kw_bit || peek(1).kind == TokKind::kw_bool)) {
        advance();
        auto e = make_expr(ast::Expr::Kind::cast, loc);
        e->cast_type = parse_type();
        expect(TokKind::r_paren, "to close cast");
        e->lhs = parse_unary();
        return e;
    }
    return parse_postfix();
}

ast::ExprPtr P4Parser::parse_postfix() {
    auto e = parse_primary();
    for (;;) {
        if (accept(TokKind::dot)) {
            auto m = make_expr(ast::Expr::Kind::member, e->loc);
            // Allow `apply` as a member name: `t.apply()`.
            if (check(TokKind::kw_apply)) {
                advance();
                m->name = "apply";
            } else {
                m->name = expect(TokKind::identifier, "as member name").text;
            }
            m->base = std::move(e);
            e = std::move(m);
        } else if (accept(TokKind::l_bracket)) {
            auto s = make_expr(ast::Expr::Kind::slice, e->loc);
            s->base = std::move(e);
            s->hi = parse_expr();
            expect(TokKind::colon, "in slice");
            s->lo = parse_expr();
            expect(TokKind::r_bracket, "to close slice");
            e = std::move(s);
        } else if (check(TokKind::l_paren)) {
            advance();
            auto c = make_expr(ast::Expr::Kind::call, e->loc);
            c->callee = std::move(e);
            if (!check(TokKind::r_paren)) {
                do {
                    c->args.push_back(parse_expr());
                } while (accept(TokKind::comma));
            }
            expect(TokKind::r_paren, "to close call");
            e = std::move(c);
        } else {
            return e;
        }
    }
}

ast::ExprPtr P4Parser::parse_primary() {
    const util::SourceLoc loc = peek().loc;
    if (check(TokKind::number)) {
        const Token& t = advance();
        auto e = make_expr(ast::Expr::Kind::number, loc);
        e->value = t.value;
        e->declared_width = t.width;
        return e;
    }
    if (accept(TokKind::kw_true)) {
        auto e = make_expr(ast::Expr::Kind::boolean, loc);
        e->bvalue = true;
        return e;
    }
    if (accept(TokKind::kw_false)) {
        auto e = make_expr(ast::Expr::Kind::boolean, loc);
        e->bvalue = false;
        return e;
    }
    if (check(TokKind::identifier)) {
        auto e = make_expr(ast::Expr::Kind::name, loc);
        e->name = advance().text;
        return e;
    }
    if (accept(TokKind::l_paren)) {
        auto e = parse_expr();
        expect(TokKind::r_paren, "to close parenthesized expression");
        return e;
    }
    fail("expected an expression");
}

ast::Program parse_source(std::string_view source, util::DiagEngine& diags) {
    Lexer lexer(source, diags);
    P4Parser parser(lexer.run(), diags);
    return parser.parse_program();
}

}  // namespace ndb::p4
