// Property tests over randomly generated elastic programs: every program
// the generator emits either compiles to a layout that passes the full
// audit (resources, dependencies, assumes) on both backends, or is
// rejected with a diagnostic — never a bad layout, never a crash.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "compiler/compiler.hpp"
#include "compiler/greedy.hpp"
#include "compiler/ilpgen.hpp"
#include "analysis/unroll.hpp"
#include "ir/elaborate.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "verify/verify.hpp"

namespace p4all::compiler {
namespace {

/// Generates a random but well-formed elastic program: 1–3 sketch-like
/// structures with random row caps, column minimums, widths, and optional
/// fold chains, plus random utility weights and sometimes an inelastic
/// action. With `twins`, every structure also updates a twin register of
/// the same geometry in the same action, and structures of the first
/// structure's width are tied to its column count by `assume` — the shapes
/// the ILP generator's equal-size and pigeonhole rows are derived from. The
/// flag draws nothing from `rng`.
std::string random_program(support::Xoshiro256& rng, bool twins = false) {
    const int structures = 1 + static_cast<int>(rng.next_below(3));
    std::string decls = "packet { bit<32> key; }\n";
    std::string apply;
    std::string utility;
    int first_width = 0;
    for (int s = 0; s < structures; ++s) {
        const std::string p = "st" + std::to_string(s);
        const int max_rows = 1 + static_cast<int>(rng.next_below(4));
        const std::int64_t min_cols = 16 << rng.next_below(4);
        const int width = rng.next_below(2) == 0 ? 32 : 16;
        const bool with_fold = rng.next_below(2) == 0;
        decls += "symbolic int " + p + "_rows;\nsymbolic int " + p + "_cols;\n";
        decls += "assume " + p + "_rows >= 1 && " + p + "_rows <= " +
                 std::to_string(max_rows) + ";\n";
        decls += "assume " + p + "_cols >= " + std::to_string(min_cols) + ";\n";
        decls += "metadata { bit<32>[" + p + "_rows] " + p + "_idx; bit<32>[" + p +
                 "_rows] " + p + "_cnt; bit<32> " + p + "_min; }\n";
        decls += "register<bit<" + std::to_string(width) + ">>[" + p + "_cols][" + p +
                 "_rows] " + p + "_tab;\n";
        std::string twin_update;
        if (twins) {
            decls += "register<bit<" + std::to_string(width) + ">>[" + p + "_cols][" + p +
                     "_rows] " + p + "_twin;\nmetadata { bit<32>[" + p + "_rows] " + p +
                     "_tw; }\n";
            twin_update = "    reg_add(" + p + "_twin[i], meta." + p + "_idx[i], 1, meta." + p +
                          "_tw[i]);\n";
            if (s == 0) first_width = width;
            if (s > 0 && width == first_width) {
                decls += "assume st0_cols == " + p + "_cols;\n";
            }
        }
        decls += "action " + p + "_up()[int i] {\n    hash(meta." + p + "_idx[i], " +
                 std::to_string(s * 16) + " + i, pkt.key, " + p + "_tab[i]);\n    reg_add(" +
                 p + "_tab[i], meta." + p + "_idx[i], 1, meta." + p + "_cnt[i]);\n" +
                 twin_update + "}\n";
        decls += "control " + p + "_c { apply { for (i < " + p + "_rows) { " + p +
                 "_up()[i]; } } }\n";
        apply += p + "_c.apply();\n";
        if (with_fold) {
            decls += "action " + p + "_fold()[int i] { min(meta." + p + "_min, meta." + p +
                     "_cnt[i]); }\n";
            decls += "control " + p + "_f { apply { for (i < " + p + "_rows) { " + p +
                     "_fold()[i]; } } }\n";
            apply += p + "_f.apply();\n";
        }
        const double w = 0.1 + 0.1 * static_cast<double>(rng.next_below(9));
        utility += (s == 0 ? "" : " + ") + std::to_string(w) + " * (" + p + "_rows * " + p +
                   "_cols)";
    }
    if (rng.next_below(2) == 0) {
        decls += "metadata { bit<32> egress; }\naction route() { set(meta.egress, pkt.key); }\n";
        apply += "route();\n";
    }
    std::string src = decls + "control ingress { apply {\n" + apply + "} }\n";
    src += "optimize " + utility + ";\n";
    return src;
}

target::TargetSpec random_target(support::Xoshiro256& rng) {
    target::TargetSpec t = target::small_test();
    t.stages = 3 + static_cast<int>(rng.next_below(8));
    t.memory_bits = 1 << (13 + rng.next_below(6));
    t.stateful_alus = 2 + static_cast<int>(rng.next_below(3));
    t.stateless_alus = 8 + static_cast<int>(rng.next_below(16));
    t.phv_bits = 512 << rng.next_below(3);
    t.hash_units = 2 + static_cast<int>(rng.next_below(4));
    return t;
}

class RandomPrograms : public ::testing::TestWithParam<int> {};

TEST_P(RandomPrograms, CompileAuditsCleanOrRejectsWithDiagnostic) {
    support::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 101);
    const std::string src = random_program(rng);
    const target::TargetSpec t = random_target(rng);

    CompileOptions opts;
    opts.target = t;
    opts.solve.time_limit_seconds = 20;
    try {
        const CompileResult r = compile_source(src, opts, "random");
        const auto violations = audit_layout(r.program, t, r.layout);
        EXPECT_TRUE(violations.empty())
            << src << "\nviolations:\n" << support::join(violations, "\n");
        // The generator never emits out-of-bounds indices: verification
        // must not report errors either.
        const auto issues = verify::verify_program(r.program);
        EXPECT_FALSE(verify::has_errors(issues)) << src << verify::render(issues);
    } catch (const support::CompileError& e) {
        // Rejection is acceptable (tiny targets); crash or bad layout is not.
        EXPECT_NE(std::string(e.what()).find("error"), std::string::npos);
    }
}

TEST_P(RandomPrograms, GreedyNeverBeatsIlp) {
    support::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 7879 + 33);
    const std::string src = random_program(rng);
    const target::TargetSpec t = random_target(rng);

    const ir::Program prog = ir::elaborate_source(src);
    const auto bounds = analysis::unroll_bounds_all(prog, t);
    const auto greedy = greedy_place(prog, t, bounds);
    if (!greedy) return;  // nothing fits; nothing to compare

    CompileOptions opts;
    opts.target = t;
    opts.solve.time_limit_seconds = 20;
    try {
        const CompileResult exact = compile_source(src, opts, "random");
        EXPECT_GE(exact.utility + 1e-4 + 1e-6 * std::abs(exact.utility), greedy->utility)
            << src;
    } catch (const support::CompileError&) {
        // The ILP proving infeasibility while greedy found a layout would be
        // a bug — but compile_source can also throw on solver limits, so
        // only a greedy layout that passes the audit contradicts rejection.
        ADD_FAILURE() << "ILP rejected a program greedy could place:\n" << src;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms, ::testing::Range(0, 25));

TEST(RandomProgramRows, GreedyWarmStartSatisfiesEveryDerivedRow) {
    // The equal-size and pigeonhole rows claim validity for every integer
    // layout; the greedy layout is one, so its warm start must satisfy them.
    int eqsize = 0;
    int pigeon = 0;
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        support::Xoshiro256 rng(seed * 4093 + 7);
        const std::string src = random_program(rng, /*twins=*/true);
        const target::TargetSpec t = random_target(rng);
        const ir::Program prog = ir::elaborate_source(src);
        const auto bounds = analysis::unroll_bounds_all(prog, t);
        const auto greedy = greedy_place(prog, t, bounds);
        if (!greedy) continue;
        const GeneratedIlp gen = generate_ilp(prog, t, bounds);
        const std::vector<double> values = warm_start_values(prog, gen, greedy->layout);
        for (const ilp::Constraint& c : gen.model.constraints()) {
            if (c.name.rfind("eqsize_", 0) == 0) {
                ++eqsize;
            } else if (c.name.rfind("pigeon_", 0) == 0) {
                ++pigeon;
            } else {
                continue;
            }
            const double lhs = c.expr.evaluate(values);
            const double tol = 1e-6 * (1.0 + std::abs(c.rhs));
            if (c.sense == ilp::CmpSense::Eq) {
                EXPECT_NEAR(lhs, c.rhs, tol) << c.name << "\n" << src;
            } else {
                EXPECT_LE(lhs, c.rhs + tol) << c.name << "\n" << src;
            }
        }
    }
    // The generator does reach both derived families.
    EXPECT_GT(eqsize, 0);
    EXPECT_GT(pigeon, 0);
}

}  // namespace
}  // namespace p4all::compiler
