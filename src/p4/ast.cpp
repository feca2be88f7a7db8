#include "p4/ast.h"

#include "util/strings.h"

namespace ndb::p4::ast {

const char* un_op_name(UnOp op) {
    switch (op) {
        case UnOp::neg: return "-";
        case UnOp::bnot: return "~";
        case UnOp::lnot: return "!";
    }
    return "?";
}

const char* bin_op_name(BinOp op) {
    switch (op) {
        case BinOp::add: return "+";
        case BinOp::sub: return "-";
        case BinOp::mul: return "*";
        case BinOp::band: return "&";
        case BinOp::bor: return "|";
        case BinOp::bxor: return "^";
        case BinOp::shl: return "<<";
        case BinOp::shr: return ">>";
        case BinOp::eq: return "==";
        case BinOp::ne: return "!=";
        case BinOp::lt: return "<";
        case BinOp::le: return "<=";
        case BinOp::gt: return ">";
        case BinOp::ge: return ">=";
        case BinOp::land: return "&&";
        case BinOp::lor: return "||";
        case BinOp::concat: return "++";
    }
    return "?";
}

std::string TypeRef::to_string() const {
    switch (kind) {
        case Kind::bits: return "bit<" + std::to_string(width) + ">";
        case Kind::boolean: return "bool";
        case Kind::named: return name;
    }
    return "?";
}

std::string Expr::to_string() const {
    switch (kind) {
        case Kind::number:
            if (declared_width > 0) {
                return std::to_string(declared_width) + "w" + value.to_hex();
            }
            return std::to_string(value.to_u64());
        case Kind::boolean:
            return bvalue ? "true" : "false";
        case Kind::name:
            return name;
        case Kind::member:
            return base->to_string() + "." + name;
        case Kind::slice:
            return base->to_string() + "[" + hi->to_string() + ":" + lo->to_string() + "]";
        case Kind::unary:
            return std::string(un_op_name(un)) + "(" + lhs->to_string() + ")";
        case Kind::binary:
            return util::format("(%s %s %s)", lhs->to_string().c_str(), bin_op_name(bin),
                                rhs->to_string().c_str());
        case Kind::ternary:
            return util::format("(%s ? %s : %s)", cond->to_string().c_str(),
                                lhs->to_string().c_str(), rhs->to_string().c_str());
        case Kind::call: {
            std::string s = callee->to_string() + "(";
            for (std::size_t i = 0; i < args.size(); ++i) {
                if (i) s += ", ";
                s += args[i]->to_string();
            }
            return s + ")";
        }
        case Kind::cast:
            return util::format("(%s)(%s)", cast_type.to_string().c_str(),
                                lhs->to_string().c_str());
    }
    return "?";
}

namespace {
std::string spaces(int n) { return std::string(static_cast<std::size_t>(n), ' '); }
}  // namespace

std::string Stmt::to_string(int indent) const {
    const std::string pad = spaces(indent);
    switch (kind) {
        case Kind::assign:
            return pad + lhs->to_string() + " = " + rhs->to_string() + ";\n";
        case Kind::if_stmt: {
            std::string s = pad + "if (" + cond->to_string() + ")\n";
            s += then_branch->to_string(indent + 2);
            if (else_branch) {
                s += pad + "else\n" + else_branch->to_string(indent + 2);
            }
            return s;
        }
        case Kind::block: {
            std::string s = pad + "{\n";
            for (const auto& st : body) s += st->to_string(indent + 2);
            return s + pad + "}\n";
        }
        case Kind::call:
            return pad + call->to_string() + ";\n";
        case Kind::exit:
            return pad + "exit;\n";
        case Kind::ret:
            return pad + "return;\n";
        case Kind::var_decl: {
            std::string s = pad + var_type.to_string() + " " + var_name;
            if (var_init) s += " = " + var_init->to_string();
            return s + ";\n";
        }
    }
    return pad + "?;\n";
}

std::string Program::to_string() const {
    std::string s;
    for (const auto& t : typedefs) {
        s += "typedef " + t.type.to_string() + " " + t.name + ";\n";
    }
    for (const auto& c : consts) {
        s += "const " + c.type.to_string() + " " + c.name + " = " +
             c.value->to_string() + ";\n";
    }
    for (const auto& h : headers) {
        s += "header " + h.name + " {\n";
        for (const auto& f : h.fields) {
            s += "  " + f.type.to_string() + " " + f.name + ";\n";
        }
        s += "}\n";
    }
    for (const auto& st : structs) {
        s += "struct " + st.name + " {\n";
        for (const auto& f : st.fields) {
            s += "  " + f.type.to_string() + " " + f.name + ";\n";
        }
        s += "}\n";
    }
    for (const auto& p : parsers) {
        s += "parser " + p.name + " { " + std::to_string(p.states.size()) + " states }\n";
    }
    for (const auto& c : controls) {
        s += "control " + c.name + " { " + std::to_string(c.tables.size()) +
             " tables, " + std::to_string(c.actions.size()) + " actions }\n";
    }
    if (package) {
        s += package->package_name + "(...) main;\n";
    }
    return s;
}

}  // namespace ndb::p4::ast
