#include "p4/lexer.h"

#include <algorithm>
#include <cctype>
#include <unordered_map>

namespace ndb::p4 {

const char* tok_kind_name(TokKind kind) {
    switch (kind) {
        case TokKind::end_of_file: return "<eof>";
        case TokKind::identifier: return "identifier";
        case TokKind::number: return "number";
        case TokKind::kw_header: return "'header'";
        case TokKind::kw_struct: return "'struct'";
        case TokKind::kw_typedef: return "'typedef'";
        case TokKind::kw_const: return "'const'";
        case TokKind::kw_parser: return "'parser'";
        case TokKind::kw_control: return "'control'";
        case TokKind::kw_state: return "'state'";
        case TokKind::kw_transition: return "'transition'";
        case TokKind::kw_select: return "'select'";
        case TokKind::kw_default: return "'default'";
        case TokKind::kw_action: return "'action'";
        case TokKind::kw_table: return "'table'";
        case TokKind::kw_key: return "'key'";
        case TokKind::kw_actions: return "'actions'";
        case TokKind::kw_size: return "'size'";
        case TokKind::kw_default_action: return "'default_action'";
        case TokKind::kw_apply: return "'apply'";
        case TokKind::kw_if: return "'if'";
        case TokKind::kw_else: return "'else'";
        case TokKind::kw_exit: return "'exit'";
        case TokKind::kw_return: return "'return'";
        case TokKind::kw_bit: return "'bit'";
        case TokKind::kw_bool: return "'bool'";
        case TokKind::kw_true: return "'true'";
        case TokKind::kw_false: return "'false'";
        case TokKind::kw_in: return "'in'";
        case TokKind::kw_out: return "'out'";
        case TokKind::kw_inout: return "'inout'";
        case TokKind::kw_register: return "'register'";
        case TokKind::kw_counter: return "'counter'";
        case TokKind::kw_meter: return "'meter'";
        case TokKind::kw_main: return "'main'";
        case TokKind::l_brace: return "'{'";
        case TokKind::r_brace: return "'}'";
        case TokKind::l_paren: return "'('";
        case TokKind::r_paren: return "')'";
        case TokKind::l_bracket: return "'['";
        case TokKind::r_bracket: return "']'";
        case TokKind::l_angle: return "'<'";
        case TokKind::r_angle: return "'>'";
        case TokKind::semicolon: return "';'";
        case TokKind::colon: return "':'";
        case TokKind::comma: return "','";
        case TokKind::dot: return "'.'";
        case TokKind::assign: return "'='";
        case TokKind::plus: return "'+'";
        case TokKind::minus: return "'-'";
        case TokKind::star: return "'*'";
        case TokKind::slash: return "'/'";
        case TokKind::percent: return "'%'";
        case TokKind::amp: return "'&'";
        case TokKind::pipe: return "'|'";
        case TokKind::caret: return "'^'";
        case TokKind::tilde: return "'~'";
        case TokKind::bang: return "'!'";
        case TokKind::amp_amp: return "'&&'";
        case TokKind::pipe_pipe: return "'||'";
        case TokKind::eq_eq: return "'=='";
        case TokKind::bang_eq: return "'!='";
        case TokKind::le: return "'<='";
        case TokKind::ge: return "'>='";
        case TokKind::shl: return "'<<'";
        case TokKind::shr: return "'>>'";
        case TokKind::plus_plus: return "'++'";
        case TokKind::amp_amp_amp: return "'&&&'";
        case TokKind::underscore: return "'_'";
        case TokKind::question: return "'?'";
    }
    return "?";
}

namespace {
const std::unordered_map<std::string_view, TokKind> kKeywords = {
    {"header", TokKind::kw_header},       {"struct", TokKind::kw_struct},
    {"typedef", TokKind::kw_typedef},     {"const", TokKind::kw_const},
    {"parser", TokKind::kw_parser},       {"control", TokKind::kw_control},
    {"state", TokKind::kw_state},         {"transition", TokKind::kw_transition},
    {"select", TokKind::kw_select},       {"default", TokKind::kw_default},
    {"action", TokKind::kw_action},       {"table", TokKind::kw_table},
    {"key", TokKind::kw_key},             {"actions", TokKind::kw_actions},
    {"size", TokKind::kw_size},           {"default_action", TokKind::kw_default_action},
    {"apply", TokKind::kw_apply},         {"if", TokKind::kw_if},
    {"else", TokKind::kw_else},           {"exit", TokKind::kw_exit},
    {"return", TokKind::kw_return},       {"bit", TokKind::kw_bit},
    {"bool", TokKind::kw_bool},           {"true", TokKind::kw_true},
    {"false", TokKind::kw_false},         {"in", TokKind::kw_in},
    {"out", TokKind::kw_out},             {"inout", TokKind::kw_inout},
    {"register", TokKind::kw_register},   {"counter", TokKind::kw_counter},
    {"meter", TokKind::kw_meter},         {"main", TokKind::kw_main},
};
}  // namespace

Lexer::Lexer(std::string_view source, util::DiagEngine& diags)
    : src_(source), diags_(diags) {}

std::vector<Token> Lexer::run() {
    std::vector<Token> tokens;
    for (;;) {
        Token t = next();
        const bool done = t.kind == TokKind::end_of_file;
        tokens.push_back(std::move(t));
        if (done) break;
    }
    return tokens;
}

char Lexer::peek(int ahead) const {
    const std::size_t i = pos_ + static_cast<std::size_t>(ahead);
    return i < src_.size() ? src_[i] : '\0';
}

char Lexer::advance() {
    const char c = peek();
    ++pos_;
    if (c == '\n') {
        ++line_;
        col_ = 1;
    } else {
        ++col_;
    }
    return c;
}

bool Lexer::match(char c) {
    if (peek() != c) return false;
    advance();
    return true;
}

void Lexer::skip_trivia() {
    for (;;) {
        const char c = peek();
        if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
            advance();
        } else if (c == '/' && peek(1) == '/') {
            while (peek() != '\n' && peek() != '\0') advance();
        } else if (c == '/' && peek(1) == '*') {
            advance();
            advance();
            while (!(peek() == '*' && peek(1) == '/')) {
                if (peek() == '\0') {
                    diags_.error(loc(), "unterminated block comment");
                    return;
                }
                advance();
            }
            advance();
            advance();
        } else {
            return;
        }
    }
}

Token Lexer::make(TokKind kind) {
    Token t;
    t.kind = kind;
    t.loc = tok_start_;
    return t;
}

Token Lexer::lex_identifier() {
    std::string text;
    while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_') {
        text.push_back(advance());
    }
    if (text == "_") return make(TokKind::underscore);
    const auto it = kKeywords.find(text);
    if (it != kKeywords.end()) return make(it->second);
    Token t = make(TokKind::identifier);
    t.text = std::move(text);
    return t;
}

Token Lexer::lex_number() {
    // Grammar: [INT 'w'] (0x HEX | 0b BIN | DEC); underscores allowed inside.
    std::string digits;
    int width = -1;
    int base = 10;

    const auto try_base_prefix = [&] {
        if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
            advance();
            advance();
            base = 16;
        } else if (peek() == '0' && (peek(1) == 'b' || peek(1) == 'B')) {
            advance();
            advance();
            base = 2;
        }
    };
    const auto read_digits = [&] {
        const auto is_digit = [&](char c) {
            return base == 16 ? std::isxdigit(static_cast<unsigned char>(c)) != 0
                              : std::isdigit(static_cast<unsigned char>(c)) != 0;
        };
        while (is_digit(peek()) || peek() == '_') {
            if (peek() == '_') {
                advance();
                continue;
            }
            digits.push_back(advance());
        }
    };

    try_base_prefix();
    read_digits();
    // A decimal run followed by 'w' is a width prefix: 8w255, 16w0xFFFF.
    if (base == 10 && peek() == 'w' && !digits.empty()) {
        advance();
        // Saturate instead of overflowing: any prefix past 4096 is rejected
        // below, however many digits it has.
        width = 0;
        for (const char c : digits) width = std::min(width * 10 + (c - '0'), 4097);
        digits.clear();
        if (width <= 0 || width > 4096) {
            diags_.error(tok_start_, "bad width prefix in literal");
            width = 32;
        }
        try_base_prefix();
        read_digits();
    }
    if (digits.empty()) {
        diags_.error(tok_start_, "malformed number literal");
        digits.assign(1, '0');  // `= "0"` draws a false GCC 12 -Wrestrict
    }

    // Accumulate into a wide bitvec so 128-bit literals (IPv6) work.
    const int value_width = width > 0 ? width : 256;
    util::Bitvec value(value_width);
    const util::Bitvec vbase(value_width, static_cast<std::uint64_t>(base));
    bool overflow = false;
    for (const char c : digits) {
        int d = 0;
        if (c >= '0' && c <= '9') {
            d = c - '0';
        } else if (c >= 'a' && c <= 'f') {
            d = c - 'a' + 10;
        } else {
            d = c - 'A' + 10;
        }
        const auto scaled = value.mul(vbase);
        // Detect wrap for sized literals: scaled/base must give value back.
        const auto next = scaled.add(util::Bitvec(value_width, static_cast<std::uint64_t>(d)));
        if (width > 0 && !value.is_zero() && scaled.ult(value)) overflow = true;
        value = next;
    }
    if (overflow) diags_.error(tok_start_, "literal does not fit in declared width");

    Token t = make(TokKind::number);
    t.width = width;
    if (width > 0) {
        t.value = value;
    } else {
        // Unsized literal: keep a canonical 64-bit value; typechecker resizes.
        t.value = value.resize(64);
        if (!value.resize(64).resize(value_width).eq(value)) {
            diags_.error(tok_start_, "unsized literal exceeds 64 bits; add a width prefix");
        }
    }
    t.text = digits;
    return t;
}

Token Lexer::next() {
    skip_trivia();
    tok_start_ = loc();
    const char c = peek();
    if (c == '\0') return make(TokKind::end_of_file);
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') return lex_identifier();
    if (std::isdigit(static_cast<unsigned char>(c))) return lex_number();

    advance();
    switch (c) {
        case '{': return make(TokKind::l_brace);
        case '}': return make(TokKind::r_brace);
        case '(': return make(TokKind::l_paren);
        case ')': return make(TokKind::r_paren);
        case '[': return make(TokKind::l_bracket);
        case ']': return make(TokKind::r_bracket);
        case ';': return make(TokKind::semicolon);
        case ':': return make(TokKind::colon);
        case ',': return make(TokKind::comma);
        case '.': return make(TokKind::dot);
        case '?': return make(TokKind::question);
        case '~': return make(TokKind::tilde);
        case '*': return make(TokKind::star);
        case '/': return make(TokKind::slash);
        case '%': return make(TokKind::percent);
        case '^': return make(TokKind::caret);
        case '+': return match('+') ? make(TokKind::plus_plus) : make(TokKind::plus);
        case '-': return make(TokKind::minus);
        case '=': return match('=') ? make(TokKind::eq_eq) : make(TokKind::assign);
        case '!': return match('=') ? make(TokKind::bang_eq) : make(TokKind::bang);
        case '&':
            if (match('&')) {
                return match('&') ? make(TokKind::amp_amp_amp) : make(TokKind::amp_amp);
            }
            return make(TokKind::amp);
        case '|': return match('|') ? make(TokKind::pipe_pipe) : make(TokKind::pipe);
        case '<':
            if (match('<')) return make(TokKind::shl);
            if (match('=')) return make(TokKind::le);
            return make(TokKind::l_angle);
        case '>':
            if (match('>')) return make(TokKind::shr);
            if (match('=')) return make(TokKind::ge);
            return make(TokKind::r_angle);
        default:
            diags_.error(tok_start_, std::string("unexpected character '") + c + "'");
            return next();
    }
}

}  // namespace ndb::p4
