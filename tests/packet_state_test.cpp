// Differential test of the packed PacketState against a per-field model.
//
// PacketState keeps parsed headers as wire bytes: extract and deparse are
// bit copies, fields are shifts and masks over 8-byte loads, and digests
// fold the buffer a word at a time.  The model below keeps what the bytes
// mean -- a validity flag and one Bitvec per field -- and does every
// operation field by field through Packet::extract_bits/deposit_bits.  The
// two must agree on get/set, reset (with and without metadata_clobber),
// extraction at every bit alignment, deparsed bytes and digests.
//
// Catalogue programs alone would not reach the interesting paths: no
// catalogue field is wider than 48 bits and every catalogue header is a
// whole number of bytes.  So the test also compiles a program with a
// 70-bit field in 75-bit headers, extracted back to back at unaligned
// cursors after an odd advance.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dataplane/deparser.h"
#include "dataplane/digest.h"
#include "dataplane/state.h"
#include "digest_reference.h"
#include "p4/compiler.h"
#include "p4/programs.h"
#include "target/device.h"
#include "util/random.h"

namespace {

using namespace ndb;
using dataplane::PacketState;
using p4::ir::FieldRef;
using p4::ir::Program;
using util::Bitvec;
using util::Rng;

// --- the per-field model ------------------------------------------------------

struct FieldModel {
    std::vector<bool> valid;
    std::vector<std::vector<Bitvec>> fields;
    std::vector<std::uint8_t> payload;
};

FieldModel model_reset(const Program& prog, const packet::PacketMeta& m,
                       std::uint32_t packet_len, bool clobber_meta) {
    FieldModel model;
    for (const auto& h : prog.headers) {
        model.valid.push_back(h.is_metadata);
        const bool clobber =
            clobber_meta && h.is_metadata && h.name != "standard_metadata";
        std::vector<Bitvec> values;
        for (const auto& f : h.fields) {
            Bitvec v(f.width);
            if (clobber) {
                for (int i = 0; i < f.width; i += 2) v.set_bit(i, true);
            }
            values.push_back(std::move(v));
        }
        model.fields.push_back(std::move(values));
    }
    const auto put = [&](FieldRef ref, Bitvec v) {
        model.fields[static_cast<std::size_t>(ref.header)]
                    [static_cast<std::size_t>(ref.field)] = std::move(v);
    };
    put(prog.f_ingress_port, Bitvec(9, m.ingress_port));
    put(prog.f_packet_length, Bitvec(32, packet_len));
    put(prog.f_timestamp, Bitvec(48, m.rx_time_ns / 1000));
    return model;
}

void model_extract(const Program& prog, FieldModel& model, int header,
                   const packet::Packet& pkt, std::size_t bit) {
    const auto& hdr = prog.headers[static_cast<std::size_t>(header)];
    for (std::size_t f = 0; f < hdr.fields.size(); ++f) {
        model.fields[static_cast<std::size_t>(header)][f] = pkt.extract_bits(
            bit + static_cast<std::size_t>(hdr.fields[f].offset), hdr.fields[f].width);
    }
    model.valid[static_cast<std::size_t>(header)] = true;
}

packet::Packet model_deparse(const Program& prog, const FieldModel& model) {
    std::size_t total_bits = 0;
    for (const int h : prog.deparse_order) {
        if (model.valid[static_cast<std::size_t>(h)]) {
            total_bits += static_cast<std::size_t>(
                prog.headers[static_cast<std::size_t>(h)].size_bits);
        }
    }
    const std::size_t header_bytes = (total_bits + 7) / 8;
    packet::Packet out = packet::Packet::zeros(header_bytes + model.payload.size());
    std::size_t cursor = 0;
    for (const int h : prog.deparse_order) {
        if (!model.valid[static_cast<std::size_t>(h)]) continue;
        const auto& hdr = prog.headers[static_cast<std::size_t>(h)];
        for (std::size_t f = 0; f < hdr.fields.size(); ++f) {
            out.deposit_bits(cursor + static_cast<std::size_t>(hdr.fields[f].offset),
                             model.fields[static_cast<std::size_t>(h)][f]);
        }
        cursor += static_cast<std::size_t>(hdr.size_bits);
    }
    for (std::size_t i = 0; i < model.payload.size(); ++i) {
        out.set_byte(header_bytes + i, model.payload[i]);
    }
    return out;
}

std::uint64_t model_digest(const Program& prog, const FieldModel& model) {
    return testutil::reference_digest(
        prog, [&](int h) { return bool(model.valid[static_cast<std::size_t>(h)]); },
        [&](int h, int f) {
            return model.fields[static_cast<std::size_t>(h)][static_cast<std::size_t>(f)];
        });
}

// --- helpers ------------------------------------------------------------------

Bitvec random_value(Rng& rng, int width) {
    Bitvec v(width);
    for (int lo = 0; lo < width; lo += 64) {
        const int chunk = std::min(64, width - lo);
        v.set_slice(lo + chunk - 1, lo, Bitvec(chunk, rng.next_u64()));
    }
    return v;
}

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
    std::vector<std::uint8_t> out(n);
    for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
    return out;
}

// Every header's validity and every field's value, packed vs model.
void expect_agree(const Program& prog, const PacketState& st, const FieldModel& model,
                  const std::string& where) {
    for (std::size_t h = 0; h < prog.headers.size(); ++h) {
        const auto& hdr = prog.headers[h];
        ASSERT_EQ(st.header_valid(static_cast<int>(h)), model.valid[h])
            << where << ": validity of " << hdr.name;
        for (std::size_t f = 0; f < hdr.fields.size(); ++f) {
            const Bitvec got = st.get({static_cast<int>(h), static_cast<int>(f)});
            ASSERT_EQ(got, model.fields[h][f])
                << where << ": " << hdr.name << "." << hdr.fields[f].name << " = "
                << got.to_hex() << ", model " << model.fields[h][f].to_hex();
        }
    }
}

// Digests agree with the model's, and stop agreeing as soon as one hashed
// field (a valid or metadata header's) stops agreeing.
void expect_digests_track_agreement(const Program& prog, PacketState& st,
                                    const FieldModel& model, const std::string& where) {
    const std::uint64_t want = model_digest(prog, model);
    ASSERT_EQ(dataplane::hash_packet_state(st), want) << where;
    for (std::size_t h = 0; h < prog.headers.size(); ++h) {
        const auto& hdr = prog.headers[h];
        if (!model.valid[h] && !hdr.is_metadata) continue;
        for (std::size_t f = 0; f < hdr.fields.size(); ++f) {
            const FieldRef ref{static_cast<int>(h), static_cast<int>(f)};
            const Bitvec v = st.get(ref);
            for (const int bit : {0, v.width() - 1}) {
                Bitvec flipped = v;
                flipped.set_bit(bit, !v.bit(bit));
                st.set(ref, flipped);
                EXPECT_NE(dataplane::hash_packet_state(st), want)
                    << where << ": flipping bit " << bit << " of " << hdr.name << "."
                    << hdr.fields[f].name;
                st.set(ref, v);
            }
        }
        // Validity is part of the digest too.
        st.set_header_valid(static_cast<int>(h), !model.valid[h]);
        EXPECT_NE(dataplane::hash_packet_state(st), want)
            << where << ": toggling validity of " << hdr.name;
        st.set_header_valid(static_cast<int>(h), model.valid[h]);
    }
    ASSERT_EQ(dataplane::hash_packet_state(st), want) << where;
}

// Drives one reused PacketState and the model through `rounds` packets:
// reset (alternating metadata_clobber), extraction of a random subset of
// headers back to back from a random start bit, random field writes and
// validity toggles, then the digest and deparse comparisons.
void exercise(const Program& prog, Rng& rng, int rounds) {
    PacketState st;
    std::size_t all_bits = 0;
    for (const auto& h : prog.headers) {
        if (!h.is_metadata) all_bits += static_cast<std::size_t>(h.size_bits);
    }
    for (int round = 0; round < rounds; ++round) {
        const std::string where = prog.name + " round " + std::to_string(round);
        const bool clobber = round % 2 == 1;
        packet::PacketMeta meta;
        meta.ingress_port = static_cast<std::uint32_t>(rng.next_below(4));
        meta.rx_time_ns = rng.next_u64() >> 8;
        const auto len = static_cast<std::uint32_t>(rng.next_u64());

        st.reset(prog, meta, len, clobber);
        FieldModel model = model_reset(prog, meta, len, clobber);
        expect_agree(prog, st, model, where + " after reset");
        if (::testing::Test::HasFatalFailure()) return;

        // Back-to-back extraction from any bit alignment.
        const std::size_t start = rng.next_below(8);
        const packet::Packet pkt(random_bytes(rng, (start + all_bits + 7) / 8 + 3));
        std::size_t cursor = start;
        for (std::size_t h = 0; h < prog.headers.size(); ++h) {
            if (prog.headers[h].is_metadata || rng.next_below(4) == 0) continue;
            st.extract_header(static_cast<int>(h), pkt.data(), cursor);
            model_extract(prog, model, static_cast<int>(h), pkt, cursor);
            cursor += static_cast<std::size_t>(prog.headers[h].size_bits);
        }
        expect_agree(prog, st, model, where + " after extract at bit " +
                                          std::to_string(start));
        if (::testing::Test::HasFatalFailure()) return;

        // Field writes anywhere, validity flips on packet headers.
        for (int k = 0; k < 16; ++k) {
            const std::size_t h = rng.next_below(prog.headers.size());
            const auto& hdr = prog.headers[h];
            if (hdr.fields.empty()) continue;
            const std::size_t f = rng.next_below(hdr.fields.size());
            const Bitvec v = random_value(rng, hdr.fields[f].width);
            st.set({static_cast<int>(h), static_cast<int>(f)}, v);
            model.fields[h][f] = v;
            if (!hdr.is_metadata && rng.next_below(3) == 0) {
                const bool valid = !model.valid[h];
                st.set_header_valid(static_cast<int>(h), valid);
                model.valid[h] = valid;
            }
        }
        expect_agree(prog, st, model, where + " after writes");
        if (::testing::Test::HasFatalFailure()) return;
        expect_digests_track_agreement(prog, st, model, where);
        if (::testing::Test::HasFatalFailure()) return;

        st.payload = random_bytes(rng, rng.next_below(9));
        model.payload = st.payload;
        EXPECT_TRUE(dataplane::deparse(prog, st).same_bytes(model_deparse(prog, model)))
            << where << ": deparsed bytes";
    }
}

std::shared_ptr<const Program> compile(std::string_view source, const std::string& name) {
    return std::shared_ptr<const Program>(p4::compile_source(source, name));
}

// Two 75-bit headers, each holding a 70-bit field, extracted back to back
// after an odd advance (wire bits 3 and 78), emitted back to back (bits 0
// and 75), with user metadata as wide as the field.
constexpr const char* kWideSource = R"P4(
header wide_t {
    bit<3>  tag;
    bit<70> wide;
    bit<2>  flags;
}

struct headers { wide_t first; wide_t second; }
struct metadata { bit<70> copy; bit<5> odd; }

parser MyParser(packet_in pkt, out headers hdr, inout metadata meta,
                inout standard_metadata_t smeta) {
    state start {
        pkt.advance(3);
        pkt.extract(hdr.first);
        pkt.extract(hdr.second);
        transition accept;
    }
}

control MyIngress(inout headers hdr, inout metadata meta,
                  inout standard_metadata_t smeta) {
    apply {
        meta.copy = hdr.first.wide;
        hdr.second.wide = hdr.first.wide + hdr.second.wide;
        hdr.first.flags = hdr.second.flags;
        smeta.egress_spec = 9w1;
    }
}

control MyDeparser(packet_out pkt, in headers hdr) {
    apply {
        pkt.emit(hdr.first);
        pkt.emit(hdr.second);
    }
}

NdpSwitch(MyParser(), MyIngress(), MyDeparser()) main;
)P4";

TEST(PackedState, MatchesPerFieldModelOnTheCatalogue) {
    Rng rng(16);
    for (const auto& sample : p4::programs::all_samples()) {
        SCOPED_TRACE(sample.name);
        const auto prog = compile(sample.source, sample.name);
        exercise(*prog, rng, 24);
        if (HasFatalFailure()) return;
    }
}

TEST(PackedState, MatchesPerFieldModelOnWideUnalignedHeaders) {
    const auto prog = compile(kWideSource, "wide_unaligned");
    ASSERT_EQ(prog->headers[static_cast<std::size_t>(prog->header_index("first"))].size_bits,
              75);
    Rng rng(70);
    exercise(*prog, rng, 96);
}

// Runs `sent` through the reference device's real parser, interpreter and
// deparser on kWideSource, and checks every stage against the model's
// reading of the same packets.
void expect_wide_pipeline_matches_model(std::vector<packet::Packet> sent) {
    const auto prog = compile(kWideSource, "wide_unaligned");
    const int first = prog->header_index("first");
    const int second = prog->header_index("second");
    const int meta = prog->usermeta;
    auto dev = target::make_device("reference");
    ASSERT_NE(dev, nullptr);
    ASSERT_TRUE(dev->load(prog));
    dev->set_digests_enabled(true);

    std::vector<dataplane::PipelineResult> traced;
    std::vector<dataplane::StageTaps> taps;
    for (std::size_t i = 0; i < sent.size(); ++i) {
        sent[i].meta.ingress_port = 0;
        sent[i].meta.rx_time_ns = 1'000'000 + i * 672;
        traced.push_back(dev->trace(sent[i]));
        taps.push_back(dev->taps());
    }
    ASSERT_EQ(dev->digest_records().size(), sent.size());
    const std::vector<packet::Packet> out = dev->drain_port(1);
    ASSERT_EQ(out.size(), sent.size());

    for (std::size_t i = 0; i < sent.size(); ++i) {
        const std::string where =
            "packet " + std::to_string(i) + " (" + std::to_string(sent[i].size()) + "B)";
        const packet::Packet& pkt = sent[i];
        const dataplane::PipelineResult& r = traced[i];
        const dataplane::StageTaps& t = taps[i];
        const auto& d = dev->digest_records()[i];
        ASSERT_EQ(r.disposition, dataplane::Disposition::forwarded) << where;

        FieldModel model = model_reset(*prog, pkt.meta,
                                       static_cast<std::uint32_t>(pkt.size()), false);
        model_extract(*prog, model, first, pkt, 3);
        model_extract(*prog, model, second, pkt, 78);
        model.payload.assign(pkt.data().begin() + 20, pkt.data().end());
        ASSERT_TRUE(t.has(dataplane::Stage::parser));
        expect_agree(*prog, t.at(dataplane::Stage::parser), model, where + " after parser");
        EXPECT_EQ(d.stage_hash[0], model_digest(*prog, model)) << where;

        // Ingress, field by field.
        auto& f = model.fields;
        const auto fi = [](int h) { return static_cast<std::size_t>(h); };
        f[fi(meta)][0] = f[fi(first)][1];
        f[fi(second)][1] = f[fi(first)][1].add(f[fi(second)][1]);
        f[fi(first)][2] = f[fi(second)][2];
        f[fi(prog->f_egress_spec.header)][fi(prog->f_egress_spec.field)] = Bitvec(9, 1);
        ASSERT_TRUE(t.has(dataplane::Stage::ingress));
        expect_agree(*prog, t.at(dataplane::Stage::ingress), model,
                     where + " after ingress");
        EXPECT_EQ(d.stage_hash[1], model_digest(*prog, model)) << where;

        // The traced output and the drained one are the same packet.
        const packet::Packet want = model_deparse(*prog, model);
        EXPECT_TRUE(r.output.same_bytes(want)) << where << ": deparsed bytes";
        EXPECT_TRUE(out[i].same_bytes(want)) << where << ": drained bytes";
    }
}

TEST(PackedState, PipelineOnWideUnalignedHeadersMatchesTheModel) {
    Rng rng(75);
    std::vector<packet::Packet> sent;
    for (int i = 0; i < 64; ++i) {
        sent.emplace_back(random_bytes(rng, 20 + rng.next_below(6)));
    }
    expect_wide_pipeline_matches_model(std::move(sent));
}

TEST(PackedState, PipelineOnPacketsPastTheInlineBytesMatchesTheModel) {
    // Stimuli on both sides of Packet::kInlineBytes.  The deparsed output
    // is one byte shorter than its stimulus (150 header bits re-emitted as
    // 19 bytes after a 20-byte parse), so the set crosses the line both
    // ways: inline in and out, heap in and inline out, heap in and out.
    constexpr std::size_t kInline = packet::Packet::kInlineBytes;
    Rng rng(128);
    std::vector<packet::Packet> sent;
    for (const std::size_t n : {kInline - 1, kInline, kInline + 1, kInline + 2,
                                std::size_t{1500}}) {
        sent.emplace_back(random_bytes(rng, n));
    }
    expect_wide_pipeline_matches_model(std::move(sent));
}

TEST(PackedState, BadReferencesAndWidthsThrow) {
    const auto prog = compile(kWideSource, "wide_unaligned");
    PacketState st = PacketState::initial(*prog, {}, 64);
    const int first = prog->header_index("first");
    EXPECT_THROW(st.get({first, 3}), std::out_of_range);
    EXPECT_THROW(st.get({static_cast<int>(prog->headers.size()), 0}), std::out_of_range);
    EXPECT_THROW(st.header_valid(-1), std::out_of_range);
    EXPECT_THROW(st.set({first, 1}, Bitvec(69)), std::invalid_argument);
    const std::vector<std::uint8_t> short_pkt(9, 0xff);  // 72 bits < 75
    EXPECT_THROW(st.extract_header(first, short_pkt, 0), std::out_of_range);
    EXPECT_FALSE(st.header_valid(first));
    EXPECT_THROW(PacketState{}.get({0, 0}), std::out_of_range);

    // The inline <= 64-bit get/set keep every check: a narrow field set at
    // the wrong width throws and leaves the field as it was, and bad
    // references throw through both.
    const FieldRef tag{first, 0};  // bit<3>
    st.set(tag, Bitvec(3, 5));
    EXPECT_THROW(st.set(tag, Bitvec(4, 5)), std::invalid_argument);
    EXPECT_THROW(st.set(tag, Bitvec(64, 5)), std::invalid_argument);
    EXPECT_THROW(st.set(tag, Bitvec(2, 1)), std::invalid_argument);
    EXPECT_EQ(st.get(tag), Bitvec(3, 5));
    EXPECT_THROW(st.set({first, 2}, Bitvec(3)), std::invalid_argument);  // bit<2>
    for (const FieldRef bad : {FieldRef{first, -1}, FieldRef{first, 3}, FieldRef{-1, 0},
                               FieldRef{static_cast<int>(prog->headers.size()), 0}}) {
        SCOPED_TRACE(std::to_string(bad.header) + "." + std::to_string(bad.field));
        EXPECT_THROW(st.get(bad), std::out_of_range);
        EXPECT_THROW(st.set(bad, Bitvec(3)), std::out_of_range);
    }
    PacketState unshaped;
    EXPECT_THROW(unshaped.set({0, 0}, Bitvec(1)), std::out_of_range);
    EXPECT_THROW(dataplane::hash_packet_state(unshaped), std::out_of_range);
}

}  // namespace
