// Intermediate representation produced by the compiler.
//
// The IR is the contract between the P4 frontend and every backend in the
// repository: the reference interpreter executes it, the vendor backend
// lowers (and possibly mis-lowers) it to a device image, the symbolic
// executor analyses it, and the resource model costs it.  All names and
// widths are resolved; expressions are typed; header instances are flat.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "p4/ast.h"
#include "util/bitvec.h"

namespace ndb::p4::ir {

using util::Bitvec;

// --- headers & fields -------------------------------------------------------

struct Field {
    std::string name;
    int width = 0;    // bits
    int offset = 0;   // bit offset from the start of the header
};

struct Header {
    std::string name;        // instance name as seen by the program (e.g. "ethernet")
    std::string type_name;   // declared header type
    std::vector<Field> fields;
    int size_bits = 0;
    bool is_metadata = false;  // metadata is always valid and never deparsed

    int field_index(std::string_view field_name) const;
};

// (header index, field index) pair; (-1,-1) means "none".
struct FieldRef {
    int header = -1;
    int field = -1;

    bool valid() const { return header >= 0 && field >= 0; }
    friend bool operator==(const FieldRef&, const FieldRef&) = default;
};

// --- expressions --------------------------------------------------------------

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
    enum class Kind {
        constant,   // cvalue
        field,      // fref
        param,      // index: action parameter slot
        local,      // index: local variable slot in the enclosing body
        is_valid,   // fref.header
        unary,      // un, a
        binary,     // bin, a, b
        ternary,    // c ? a : b
        slice,      // a[hi:lo]
        cast,       // (bit<width>) a   (zero-extend or truncate)
    };

    Kind kind = Kind::constant;
    int width = 0;         // result width in bits (bool is width 1 + is_bool)
    bool is_bool = false;

    Bitvec cvalue;
    FieldRef fref;
    int index = 0;
    ast::UnOp un = ast::UnOp::neg;
    ast::BinOp bin = ast::BinOp::add;
    ExprPtr a;
    ExprPtr b;
    ExprPtr c;
    int hi = 0;
    int lo = 0;

    ExprPtr clone() const;
};

ExprPtr make_const(const Bitvec& value);

// --- statements -----------------------------------------------------------------

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

enum class ExternKind {
    none,
    register_read,     // ext_dst = externs[extern_id][index_expr]
    register_write,    // externs[extern_id][index_expr] = value
    counter_count,     // bump counter cell index_expr
    meter_execute,     // ext_dst = color of meter cell index_expr
    mark_to_drop,      // egress_spec = drop port
    hash,              // ext_dst = crc32(inputs) truncated
    checksum_update,   // recompute IPv4-style checksum of header `hash_header`
};

struct Stmt {
    enum class Kind {
        assign_field,   // dst = value
        assign_local,   // locals[local_index] = value
        assign_slice,   // dst[hi:lo] = value
        if_stmt,        // cond ? then_body : else_body
        apply_table,    // tables[table]
        call_action,    // actions[action](action_args)
        set_valid,      // dst.header.setValid()/setInvalid() per make_valid
        extern_op,      // see ExternKind
        exit_pipeline,  // exit;
    };

    Kind kind = Kind::exit_pipeline;

    FieldRef dst;
    int local_index = 0;
    int hi = 0;
    int lo = 0;
    ExprPtr value;
    ExprPtr cond;
    std::vector<StmtPtr> then_body;
    std::vector<StmtPtr> else_body;
    int table = -1;
    int action = -1;
    std::vector<ExprPtr> action_args;
    bool make_valid = true;

    ExternKind ext = ExternKind::none;
    int extern_id = -1;
    ExprPtr index_expr;
    FieldRef ext_dst;
    std::vector<ExprPtr> hash_inputs;
    int hash_header = -1;        // checksum_update target header
    int checksum_field = -1;     // field index of the checksum within that header

    // if_stmt: the branch's stable ordinal, assigned by finalize().
    std::uint32_t branch = 0;

    StmtPtr clone() const;
};

std::vector<StmtPtr> clone_body(const std::vector<StmtPtr>& body);

// --- parser ----------------------------------------------------------------------

// Distinguished pseudo-states for parser transitions.
inline constexpr int kAccept = -1;
inline constexpr int kReject = -2;

struct ParserOp {
    enum class Kind { extract, advance, assign };
    Kind kind = Kind::extract;
    int header = -1;   // extract target
    int bits = 0;      // advance amount
    FieldRef dst;      // assign
    ExprPtr value;

    ParserOp clone() const;
};

struct Keyset {
    bool any = false;
    Bitvec value;   // compared as (key & mask) == (value & mask)
    Bitvec mask;
};

struct Transition {
    enum class Kind { direct, select };
    Kind kind = Kind::direct;
    int next_state = kReject;         // direct
    std::vector<ExprPtr> keys;        // select
    struct Case {
        std::vector<Keyset> sets;     // one per key
        int next_state = kReject;
    };
    std::vector<Case> cases;          // evaluated in order; no match => reject

    Transition clone() const;
};

struct ParserState {
    std::string name;
    std::vector<ParserOp> ops;
    Transition transition;

    ParserState clone() const;
};

// --- tables, actions, externs ------------------------------------------------------

enum class MatchKind { exact, lpm, ternary };

struct TableKey {
    ExprPtr expr;
    MatchKind kind = MatchKind::exact;
    int width = 0;
    std::string name;   // source text, for control-plane display
};

struct Table {
    std::string name;
    int id = -1;
    std::vector<TableKey> keys;
    std::vector<int> actions;          // action ids permitted on this table
    int default_action = -1;
    std::vector<Bitvec> default_args;
    std::int64_t size = 1024;

    int total_key_width() const;
    bool has_lpm() const;
    bool has_ternary() const;
};

struct Action {
    std::string name;
    int id = -1;
    std::vector<int> param_widths;
    std::vector<int> local_widths;
    std::vector<StmtPtr> body;
};

struct ExternDecl {
    enum class Kind { reg, counter, meter };
    Kind kind = Kind::reg;
    std::string name;
    int id = -1;
    int elem_width = 0;        // registers
    std::int64_t array_size = 0;
};

struct Control {
    std::string name;
    std::vector<int> local_widths;
    std::vector<StmtPtr> body;
};

// --- packed state layout ---------------------------------------------------------------

// Where a packet's parsed state lives in dataplane::PacketState: one buffer
// of 64-bit words holding every header instance's wire image (network bit
// order: bit 0 is the MSB of byte 0) at a word-aligned offset, followed by
// one zero word so 8-byte field accesses never leave the buffer.  A pure
// function of the headers, built once per image by finalize() and shared
// read-only by every packet state of every device that loads the image.
struct StateLayout {
    struct Field {
        std::size_t bit = 0;  // wire bit offset into the whole buffer
        int width = 0;
    };
    struct Header {
        std::size_t word = 0;   // first word of the image
        std::size_t bits = 0;   // size_bits: the wire length
        std::size_t first_field = 0;
        std::size_t field_count = 0;
    };
    // What a stage digest folds for one header: its image padded to whole
    // words, always for a metadata header, else only while valid.
    struct DigestRun {
        std::uint32_t word = 0;   // first word of the image
        std::uint32_t words = 0;  // padded length in words
        bool metadata = false;
    };
    std::vector<Header> headers;
    std::vector<Field> fields;
    std::vector<DigestRun> digest;  // parallel to headers
    // The initial image under the metadata_clobber quirk, trailing zero
    // word included, so its size is the image's: user metadata holds the
    // alternating pattern (value bits 0, 2, 4, ...) of uninitialized memory.
    std::vector<std::uint64_t> clobber_image;
    std::vector<std::uint64_t> initial_valid;  // metadata headers set
    // The standard metadata every packet's reset writes.
    Field ingress_port, packet_length, timestamp;
};

// --- whole program -------------------------------------------------------------------

struct Program {
    std::string name;

    std::vector<Header> headers;
    int stdmeta = -1;    // index of the standard_metadata pseudo-header
    int usermeta = -1;   // index of the flattened user metadata (-1 if none)

    std::vector<ParserState> parser_states;
    int start_state = 0;

    std::vector<Action> actions;
    std::vector<Table> tables;
    std::vector<ExternDecl> externs;

    Control ingress;
    std::optional<Control> egress;
    std::vector<int> deparse_order;   // header indices emitted when valid

    // Well-known standard_metadata fields.
    FieldRef f_ingress_port;
    FieldRef f_egress_spec;
    FieldRef f_egress_port;
    FieldRef f_packet_length;
    FieldRef f_timestamp;

    int header_index(std::string_view instance_name) const;
    const Field& field(FieldRef ref) const;
    std::string field_name(FieldRef ref) const;   // "hdr.field" for messages
    const Table* table_by_name(std::string_view name) const;
    const Action* action_by_name(std::string_view name) const;
    const ExternDecl* extern_by_name(std::string_view name) const;

    // What every device derives from the program alone, written once by
    // finalize() and carried by clone(): each device and thread that loads
    // the image reads these, and a program switch recomputes none of them.
    std::shared_ptr<const StateLayout> layout;
    // fnv1a_64(name), folded into every coverage slot the program's
    // execution lights: program A's table #0 and program B's table #0 are
    // different behaviour and must light different slots.
    std::uint64_t coverage_salt = 0;
    // Some expression reads f_timestamp (the expiry_off_by_one quirk only
    // perturbs programs that age state off the clock).
    bool reads_timestamp = false;
    // if_stmt count; their `branch` ordinals are 0 .. branch_count - 1.
    std::uint32_t branch_count = 0;

    // Deep copy: how target::Device::load(const Program&) makes a shared
    // image that outlives the caller's program.  The derived data above is
    // copied, not recomputed (the layout is shared).
    Program clone() const;
};

// Value of egress_spec that marks a packet for drop.
inline constexpr std::uint64_t kDropPort = 511;

// Fills in the program's derived data: the state layout, the coverage
// salt, the timestamp flag and the branch ordinals.  Ordinals follow one
// stable pre-order walk of the if_stmts -- ingress, then egress, then
// actions by id -- so the interpreter's runtime branch-coverage slots,
// coverage::EdgeIndex's static site list and the concolic synthesizer all
// read the same numbers.  The compiler calls it last.
void finalize(Program& prog);

}  // namespace ndb::p4::ir
