// Abstract syntax tree for the P4-16 subset.
//
// The tree is produced by P4Parser and consumed by the compiler
// (semantic analysis + lowering to IR).  Nodes are plain structs owned
// through unique_ptr; the printer in ast.cpp regenerates source-like text
// for golden tests.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/bitvec.h"
#include "util/diag.h"

namespace ndb::p4::ast {

// --- types (syntactic) ------------------------------------------------------

struct TypeRef {
    enum class Kind { bits, boolean, named };
    Kind kind = Kind::bits;
    int width = 0;      // bits
    std::string name;   // named
    util::SourceLoc loc;

    std::string to_string() const;
};

// --- expressions ------------------------------------------------------------

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class UnOp { neg, bnot, lnot };
enum class BinOp {
    add, sub, mul, band, bor, bxor, shl, shr,
    eq, ne, lt, le, gt, ge, land, lor, concat,
};

const char* un_op_name(UnOp op);
const char* bin_op_name(BinOp op);

struct Expr {
    enum class Kind {
        number,    // value/declared_width
        boolean,   // bvalue
        name,      // name
        member,    // base.name
        slice,     // base[hi:lo]
        unary,     // un, lhs
        binary,    // bin, lhs, rhs
        ternary,   // cond ? lhs : rhs
        call,      // callee(args)  -- callee is a name or member expr
        cast,      // (type) lhs
    };

    Kind kind = Kind::number;
    util::SourceLoc loc;

    util::Bitvec value;        // number
    int declared_width = -1;   // number: explicit "8w" width, -1 if unsized
    bool bvalue = false;       // boolean
    std::string name;          // name / member field name
    ExprPtr base;              // member, slice
    ExprPtr hi;                // slice bounds (constant expressions)
    ExprPtr lo;
    UnOp un = UnOp::neg;
    BinOp bin = BinOp::add;
    ExprPtr lhs;
    ExprPtr rhs;
    ExprPtr cond;              // ternary
    ExprPtr callee;            // call
    std::vector<ExprPtr> args;
    TypeRef cast_type;         // cast

    std::string to_string() const;
};

// --- statements ---------------------------------------------------------------

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
    enum class Kind { assign, if_stmt, block, call, exit, ret, var_decl };

    Kind kind = Kind::block;
    util::SourceLoc loc;

    ExprPtr lhs;                 // assign target
    ExprPtr rhs;                 // assign value
    ExprPtr cond;                // if
    StmtPtr then_branch;         // if
    StmtPtr else_branch;         // if (may be null)
    std::vector<StmtPtr> body;   // block
    ExprPtr call;                // call statement
    TypeRef var_type;            // var_decl
    std::string var_name;
    ExprPtr var_init;            // may be null
};

// --- declarations -------------------------------------------------------------

struct FieldDecl {
    TypeRef type;
    std::string name;
    util::SourceLoc loc;
};

struct HeaderDecl {
    std::string name;
    std::vector<FieldDecl> fields;
    util::SourceLoc loc;
};

struct StructDecl {
    std::string name;
    std::vector<FieldDecl> fields;
    util::SourceLoc loc;
};

struct TypedefDecl {
    TypeRef type;
    std::string name;
    util::SourceLoc loc;
};

struct ConstDecl {
    TypeRef type;
    std::string name;
    ExprPtr value;
    util::SourceLoc loc;
};

enum class ParamDir { none, in, out, inout };

struct Param {
    ParamDir dir = ParamDir::none;
    TypeRef type;   // named types include packet_in / packet_out
    std::string name;
    util::SourceLoc loc;
};

// Keyset entry in a select case: value, value &&& mask, or wildcard.
struct Keyset {
    enum class Kind { value, masked, any };
    Kind kind = Kind::value;
    ExprPtr value;
    ExprPtr mask;
    util::SourceLoc loc;
};

struct SelectCase {
    std::vector<Keyset> keys;   // one per select expression
    std::string next_state;
    util::SourceLoc loc;
};

struct ParserState {
    std::string name;
    std::vector<StmtPtr> stmts;

    enum class TransitionKind { direct, select };
    TransitionKind tkind = TransitionKind::direct;
    std::string next_state;               // direct (includes accept/reject)
    std::vector<ExprPtr> select_exprs;    // select
    std::vector<SelectCase> cases;
    util::SourceLoc loc;
};

struct ParserDecl {
    std::string name;
    std::vector<Param> params;
    std::vector<ParserState> states;
    util::SourceLoc loc;
};

struct ActionDecl {
    std::string name;
    std::vector<Param> params;   // action data (directionless)
    std::vector<StmtPtr> body;
    util::SourceLoc loc;
};

struct KeyElement {
    ExprPtr expr;
    std::string match_kind;   // "exact" | "lpm" | "ternary"
    util::SourceLoc loc;
};

struct ActionRef {
    std::string name;
    std::vector<ExprPtr> args;
    util::SourceLoc loc;
};

struct TableDecl {
    std::string name;
    std::vector<KeyElement> keys;
    std::vector<ActionRef> actions;
    std::optional<ActionRef> default_action;
    std::int64_t size = 1024;
    util::SourceLoc loc;
};

struct ExternInstance {
    enum class Kind { reg, counter, meter };
    Kind kind = Kind::reg;
    TypeRef elem_type;     // register<T>: element type; unused otherwise
    std::int64_t array_size = 0;
    std::string name;
    util::SourceLoc loc;
};

struct ControlDecl {
    std::string name;
    std::vector<Param> params;
    std::vector<ActionDecl> actions;
    std::vector<TableDecl> tables;
    std::vector<ExternInstance> externs;
    std::vector<StmtPtr> apply_body;
    util::SourceLoc loc;
};

// NdpSwitch(MyParser(), MyIngress(), MyEgress(), MyDeparser()) main;
struct PackageInst {
    std::string package_name;
    std::vector<std::string> args;
    util::SourceLoc loc;
};

struct Program {
    std::vector<HeaderDecl> headers;
    std::vector<StructDecl> structs;
    std::vector<TypedefDecl> typedefs;
    std::vector<ConstDecl> consts;
    std::vector<ParserDecl> parsers;
    std::vector<ControlDecl> controls;
    std::optional<PackageInst> package;
};

}  // namespace ndb::p4::ast
