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

}  // namespace ndb::p4::ast
