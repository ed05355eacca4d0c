#include "sim/pipeline.hpp"

#include <gtest/gtest.h>

#include "apps/reference.hpp"
#include "compiler/compiler.hpp"
#include "ir/elaborate.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace p4all::sim {
namespace {

const char* kCms = R"(
symbolic int rows;
symbolic int cols;
assume rows >= 1 && rows <= 4;
assume cols >= 64;
packet { bit<32> flow_id; }
metadata {
    bit<32>[rows] index;
    bit<32>[rows] count;
    bit<32> min_val;
}
register<bit<32>>[cols][rows] cms;
action init_min() { set(meta.min_val, 4294967295); }
action incr()[int i] {
    hash(meta.index[i], i, pkt.flow_id, cms[i]);
    reg_add(cms[i], meta.index[i], 1, meta.count[i]);
}
action take_min()[int i] { min(meta.min_val, meta.count[i]); }
control hash_inc { apply { init_min(); for (i < rows) { incr()[i]; } } }
control find_min { apply { for (i < rows) { take_min()[i]; } } }
control ingress { apply { hash_inc.apply(); find_min.apply(); } }
optimize rows * cols;
)";

compiler::CompileResult compile_cms(const target::TargetSpec& t) {
    compiler::CompileOptions opts;
    opts.target = t;
    return compiler::compile_source(kCms, opts, "cms");
}

TEST(Pipeline, CmsMatchesReferenceExactly) {
    const compiler::CompileResult r = compile_cms(target::tofino_like());
    Pipeline pipe(r.program, r.layout);
    const auto rows = static_cast<int>(r.layout.binding(r.program.find_symbol("rows")));
    const std::int64_t cols = r.layout.binding(r.program.find_symbol("cols"));
    apps::CountMinSketch reference(rows, cols, /*seed_base=*/0);

    support::Xoshiro256 rng(7);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t key = rng.next_below(500);
        pipe.process({key});
        reference.update(key);
        ASSERT_EQ(pipe.meta("min_val"), reference.estimate(key)) << "packet " << i;
    }
}

TEST(Pipeline, CmsNeverUndercounts) {
    const compiler::CompileResult r = compile_cms(target::running_example());
    Pipeline pipe(r.program, r.layout);
    std::map<std::uint64_t, std::uint64_t> truth;
    support::Xoshiro256 rng(11);
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t key = rng.next_below(64);
        pipe.process({key});
        ++truth[key];
        ASSERT_GE(pipe.meta("min_val"), truth[key]);
    }
}

TEST(Pipeline, RegisterStatePersistsAcrossPackets) {
    const compiler::CompileResult r = compile_cms(target::running_example());
    Pipeline pipe(r.program, r.layout);
    pipe.process({42});
    pipe.process({42});
    pipe.process({42});
    EXPECT_EQ(pipe.meta("min_val"), 3u);
    pipe.clear_registers();
    pipe.process({42});
    EXPECT_EQ(pipe.meta("min_val"), 1u);
}

TEST(Pipeline, RegReadWriteRoundTrip) {
    const compiler::CompileResult r = compile_cms(target::running_example());
    Pipeline pipe(r.program, r.layout);
    EXPECT_GT(pipe.reg_size("cms", 0), 0);
    pipe.reg_write("cms", 0, 5, 99);
    EXPECT_EQ(pipe.reg_read("cms", 0, 5), 99u);
    EXPECT_EQ(pipe.reg_read("cms", 0, 6), 0u);
}

TEST(Pipeline, GuardsGateExecution) {
    const char* src = R"(
packet { bit<32> x; }
metadata { bit<32> big; bit<32> small; }
action mark_big() { set(meta.big, 1); }
action mark_small() { set(meta.small, 1); }
control ingress {
    apply {
        if (pkt.x > 100) { mark_big(); } else { mark_small(); }
    }
}
)";
    compiler::CompileOptions opts;
    opts.target = target::small_test();
    const compiler::CompileResult r = compiler::compile_source(src, opts, "guards");
    Pipeline pipe(r.program, r.layout);
    pipe.process({200});
    EXPECT_EQ(pipe.meta("big"), 1u);
    EXPECT_EQ(pipe.meta("small"), 0u);
    pipe.process({5});
    EXPECT_EQ(pipe.meta("big"), 0u);
    EXPECT_EQ(pipe.meta("small"), 1u);
}

TEST(Pipeline, StageReadsSeePreStageState) {
    // writer runs in a later stage than reader (reader gets stale value in
    // the same pass) — the WAR ordering the compiler allows.
    const char* src = R"(
packet { bit<32> x; }
metadata { bit<32> a; bit<32> b; }
action reader() { set(meta.b, meta.a); }
action writer() { set(meta.a, pkt.x); }
control ingress { apply { reader(); writer(); } }
)";
    compiler::CompileOptions opts;
    opts.target = target::small_test();
    const compiler::CompileResult r = compiler::compile_source(src, opts, "war");
    Pipeline pipe(r.program, r.layout);
    pipe.process({77});
    EXPECT_EQ(pipe.meta("a"), 77u);
    EXPECT_EQ(pipe.meta("b"), 0u);  // read the pre-write value
}

TEST(Pipeline, SameStageInstancesReadPreStageStateAndLastWriterWins) {
    // Hand-placed: every call shares one stage, which the compiler would
    // never emit for these conflicts. It pins the stage barrier itself.
    const ir::Program prog = ir::elaborate_source(R"(
packet { bit<32> x; }
metadata { bit<32> a; bit<32> seen; bit<32> gated; bit<32> twice; bit<32> fwd; bit<32> shared; }
action writer() { set(meta.a, pkt.x); }
action reader() { set(meta.seen, meta.a); }
action gate() { set(meta.gated, 1); }
action twice() { set(meta.twice, pkt.x); add(meta.fwd, meta.twice, 1); set(meta.twice, 5); }
action first() { set(meta.shared, 1); }
action second() { set(meta.shared, 2); }
control ingress {
    apply { writer(); reader(); if (meta.a == 0) { gate(); } twice(); first(); second(); }
}
)");
    ASSERT_EQ(prog.flow.size(), 6u);
    const auto one_stage = [](std::vector<int> calls) {
        compiler::Layout layout;
        layout.stages.resize(1);
        for (const int call : calls) layout.stages[0].actions.push_back({call, 0});
        return layout;
    };

    const compiler::Layout forward = one_stage({0, 1, 2, 3, 4, 5});
    Pipeline pipe(prog, forward);
    pipe.process({40});
    EXPECT_EQ(pipe.meta("a"), 40u);
    EXPECT_EQ(pipe.meta("seen"), 0u);   // the reader saw the pre-stage value
    EXPECT_EQ(pipe.meta("gated"), 1u);  // so did the guard
    EXPECT_EQ(pipe.meta("fwd"), 41u);   // the instance's own later op saw its first write
    EXPECT_EQ(pipe.meta("twice"), 5u);  // the stage-out value is its second write
    EXPECT_EQ(pipe.meta("shared"), 2u); // the later instance wins
    pipe.process({7});                  // nothing leaks from the previous packet
    EXPECT_EQ(pipe.meta("seen"), 0u);
    EXPECT_EQ(pipe.meta("fwd"), 8u);

    const compiler::Layout swapped = one_stage({0, 1, 2, 3, 5, 4});
    Pipeline reversed(prog, swapped);
    reversed.process({40});
    EXPECT_EQ(reversed.meta("shared"), 1u);
}

TEST(Pipeline, IntraActionForwarding) {
    // hash result feeds the register access within the same action.
    const char* src = R"(
packet { bit<32> x; }
metadata { bit<32> idx; bit<32> out; }
register<bit<32>>[128] tab;
action touch() {
    hash(meta.idx, 3, pkt.x, tab);
    reg_add(tab, meta.idx, 1, meta.out);
}
control ingress { apply { touch(); } }
)";
    compiler::CompileOptions opts;
    opts.target = target::small_test();
    const compiler::CompileResult r = compiler::compile_source(src, opts, "fwd");
    Pipeline pipe(r.program, r.layout);
    pipe.process({9});
    const std::uint64_t idx = pipe.meta("idx");
    EXPECT_EQ(idx, support::hash_word(9, 3) % 128);
    EXPECT_EQ(pipe.meta("out"), 1u);
    EXPECT_EQ(pipe.reg_read("tab", 0, static_cast<std::int64_t>(idx)), 1u);
}

TEST(Pipeline, WidthMasking) {
    const char* src = R"(
packet { bit<32> x; }
metadata { bit<8> narrow; }
action acc() { add(meta.narrow, meta.narrow, pkt.x); }
control ingress { apply { acc(); } }
)";
    compiler::CompileOptions opts;
    opts.target = target::small_test();
    const compiler::CompileResult r = compiler::compile_source(src, opts, "mask");
    Pipeline pipe(r.program, r.layout);
    pipe.process({300});
    EXPECT_EQ(pipe.meta("narrow"), 300u & 0xFF);
}

TEST(Pipeline, RejectsWrongPacketArity) {
    const compiler::CompileResult r = compile_cms(target::running_example());
    Pipeline pipe(r.program, r.layout);
    EXPECT_THROW(pipe.process({1, 2, 3}), support::CompileError);
}

// --- External-input validation (the P4ALL-04xx contract): every malformed
// controller/packet input yields a structured, located error — never an
// out-of-bounds access.

template <typename Fn>
support::Errc catch_code(Fn&& fn) {
    try {
        fn();
    } catch (const support::Error& e) {
        return e.code();
    }
    return support::Errc::None;
}

TEST(PipelineValidation, WrongPacketShapeIsStructured) {
    const compiler::CompileResult r = compile_cms(target::running_example());
    Pipeline pipe(r.program, r.layout);
    EXPECT_EQ(catch_code([&] { pipe.process({1, 2, 3}); }), support::Errc::SimPacketShape);
    EXPECT_EQ(catch_code([&] { pipe.process({}); }), support::Errc::SimPacketShape);
}

TEST(PipelineValidation, UnknownMetaFieldThrows) {
    const compiler::CompileResult r = compile_cms(target::running_example());
    Pipeline pipe(r.program, r.layout);
    pipe.process({1});
    EXPECT_EQ(catch_code([&] { (void)pipe.meta("no_such_field"); }),
              support::Errc::SimUnknownName);
}

TEST(PipelineValidation, MetaIndexOutOfRangeCarriesDeclLocation) {
    const compiler::CompileResult r = compile_cms(target::running_example());
    Pipeline pipe(r.program, r.layout);
    pipe.process({1});
    try {
        (void)pipe.meta("index", 1000);
        FAIL() << "expected Error";
    } catch (const support::Error& e) {
        EXPECT_EQ(e.code(), support::Errc::SimOutOfRange);
        EXPECT_TRUE(e.loc().known());  // points at the metadata declaration
    }
}

TEST(PipelineValidation, UnknownRegisterThrows) {
    const compiler::CompileResult r = compile_cms(target::running_example());
    Pipeline pipe(r.program, r.layout);
    EXPECT_EQ(catch_code([&] { (void)pipe.reg_read("nope", 0, 0); }),
              support::Errc::SimUnknownName);
    EXPECT_EQ(catch_code([&] { pipe.reg_write("nope", 0, 0, 1); }),
              support::Errc::SimUnknownName);
    EXPECT_EQ(catch_code([&] { (void)pipe.reg_size("nope", 0); }),
              support::Errc::SimUnknownName);
}

TEST(PipelineValidation, RegisterInstanceAndIndexBounds) {
    const compiler::CompileResult r = compile_cms(target::running_example());
    Pipeline pipe(r.program, r.layout);
    EXPECT_EQ(catch_code([&] { (void)pipe.reg_read("cms", 99, 0); }),
              support::Errc::SimOutOfRange);
    EXPECT_EQ(catch_code([&] { (void)pipe.reg_read("cms", 0, 1'000'000'000); }),
              support::Errc::SimOutOfRange);
    EXPECT_EQ(catch_code([&] { (void)pipe.reg_read("cms", 0, -1); }),
              support::Errc::SimOutOfRange);
    EXPECT_EQ(catch_code([&] { pipe.reg_write("cms", 0, 1'000'000'000, 5); }),
              support::Errc::SimOutOfRange);
}

TEST(PipelineValidation, AbsentInstanceRegSizeStaysZero) {
    // The way-probing idiom (`while (reg_size(name, w) > 0) ++w;`) relies on
    // absent instances reporting 0, not throwing.
    const compiler::CompileResult r = compile_cms(target::running_example());
    Pipeline pipe(r.program, r.layout);
    EXPECT_EQ(pipe.reg_size("cms", 99), 0);
}

TEST(PipelineValidation, RowEnumerationMatchesRegSize) {
    const compiler::CompileResult r = compile_cms(target::running_example());
    Pipeline pipe(r.program, r.layout);
    const std::vector<RegRowInfo> rows = pipe.reg_rows();
    ASSERT_FALSE(rows.empty());
    for (const RegRowInfo& row : rows) {
        EXPECT_EQ(row.elems, pipe.reg_size(r.program.reg(row.reg).name, row.instance));
        EXPECT_EQ(static_cast<std::int64_t>(pipe.reg_row_data(row.reg, row.instance).size()),
                  row.elems);
    }
}

TEST(PipelineValidation, RowAssignValidatesShape) {
    const compiler::CompileResult r = compile_cms(target::running_example());
    Pipeline pipe(r.program, r.layout);
    const RegRowInfo row = pipe.reg_rows().front();
    std::vector<std::uint64_t> wrong(static_cast<std::size_t>(row.elems) + 1, 0);
    EXPECT_EQ(catch_code([&] { pipe.reg_row_assign(row.reg, row.instance, wrong); }),
              support::Errc::SimOutOfRange);
    EXPECT_EQ(catch_code([&] {
                  pipe.reg_row_assign(row.reg, row.instance + 1000,
                                      std::vector<std::uint64_t>{});
              }),
              support::Errc::SimOutOfRange);
}

TEST(Pipeline, PacketCounter) {
    const compiler::CompileResult r = compile_cms(target::running_example());
    Pipeline pipe(r.program, r.layout);
    EXPECT_EQ(pipe.packets_processed(), 0u);
    pipe.process({1});
    pipe.process({2});
    EXPECT_EQ(pipe.packets_processed(), 2u);
}

}  // namespace
}  // namespace p4all::sim
