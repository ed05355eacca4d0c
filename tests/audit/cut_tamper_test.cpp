// Tamper suite for the ilp-cut-validity audit pass (src/audit/cuts.cpp).
//
// The solver emits cutting planes with exact-rational validity certificates;
// the audit re-derives each aggregation independently and must reject every
// way a certificate can lie: a misrounded right-hand side, an inflated
// coefficient, a wrong-signed multiplier, a forged (empty) certificate, and
// cover sets that do not actually cover. Companion to tests/ilp/cuts_test.cpp,
// which proves the untampered cuts valid by exhaustive enumeration.
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/modules.hpp"
#include "audit/audit.hpp"
#include "audit/cuts.hpp"
#include "compiler/compiler.hpp"
#include "ilp/cuts.hpp"
#include "ilp/model.hpp"
#include "ilp/solver.hpp"
#include "support/rational.hpp"
#include "verify/lint.hpp"

namespace p4all::audit {
namespace {

using compiler::CompileArtifacts;
using compiler::CompileResult;
using support::Rat;

/// The classic CG-gap knapsack: max Σx s.t. 2x1+2x2+2x3 ≤ 3 over binaries.
/// The sparse solver closes the root gap with a Gomory cut, giving the suite
/// a genuine solver-emitted certificate to tamper with.
struct GomoryFixture {
    ilp::Model model;
    std::vector<ilp::CertifiedCut> cuts;
};

const GomoryFixture& gomory_fixture() {
    static const GomoryFixture fx = [] {
        GomoryFixture out;
        const ilp::Var x1 = out.model.add_binary("x1");
        const ilp::Var x2 = out.model.add_binary("x2");
        const ilp::Var x3 = out.model.add_binary("x3");
        out.model.add_le(
            ilp::LinExpr().add(x1, 2).add(x2, 2).add(x3, 2), 3, "knap");
        out.model.set_objective(ilp::LinExpr().add(x1, 1).add(x2, 1).add(x3, 1));
        ilp::SolveOptions o;
        out.cuts = ilp::solve_milp(out.model, o).cuts;
        return out;
    }();
    return fx;
}

/// First solver-emitted Gomory cut of the fixture, verified untampered.
ilp::CertifiedCut pristine_gomory() {
    const GomoryFixture& fx = gomory_fixture();
    for (const ilp::CertifiedCut& cut : fx.cuts) {
        if (cut.cert.kind == ilp::CutCertificate::Kind::Gomory) {
            EXPECT_EQ(verify_cut(fx.model, {}, cut), std::nullopt);
            return cut;
        }
    }
    ADD_FAILURE() << "fixture produced no Gomory cut";
    return {};
}

TEST(CutTamper, RejectsMisroundedRightHandSide) {
    // Rounding one unit too far: the claimed g0 drops below ⌊D0⌋, cutting
    // off integer-feasible points the aggregation never excluded.
    const GomoryFixture& fx = gomory_fixture();
    ilp::CertifiedCut bad = pristine_gomory();
    bad.rhs -= 1.0;
    const auto why = verify_cut(fx.model, {}, bad);
    ASSERT_TRUE(why.has_value());
    EXPECT_NE(why->find("below the rounded aggregate"), std::string::npos) << *why;
}

TEST(CutTamper, RejectsRaisedCoefficient) {
    // Inflating a left-hand coefficient past the re-derived aggregate makes
    // the inequality stronger than the certificate proves.
    const GomoryFixture& fx = gomory_fixture();
    ilp::CertifiedCut bad = pristine_gomory();
    ASSERT_FALSE(bad.expr.terms().empty());
    const auto [var, coef] = bad.expr.terms().front();
    ilp::LinExpr raised;
    raised.add(ilp::Var{var}, coef + 1.0);
    for (std::size_t t = 1; t < bad.expr.terms().size(); ++t) {
        const auto& [id, a] = bad.expr.terms()[t];
        raised.add(ilp::Var{id}, a);
    }
    bad.expr = raised;
    const auto why = verify_cut(fx.model, {}, bad);
    ASSERT_TRUE(why.has_value());
    EXPECT_NE(why->find("exceeds the re-derived aggregate"), std::string::npos) << *why;
}

TEST(CutTamper, RejectsWrongSignedMultiplier) {
    // A negative multiplier on a Le row flips the inequality direction; the
    // sign rules are load-bearing and the audit must enforce them.
    const GomoryFixture& fx = gomory_fixture();
    ilp::CertifiedCut bad = pristine_gomory();
    ASSERT_FALSE(bad.cert.row_mult.empty());
    bad.cert.row_mult.front().second = -bad.cert.row_mult.front().second;
    const auto why = verify_cut(fx.model, {}, bad);
    ASSERT_TRUE(why.has_value());
}

TEST(CutTamper, RejectsForgedEmptyCertificate) {
    // A cut with no multipliers proves nothing, however plausible the
    // inequality looks.
    const GomoryFixture& fx = gomory_fixture();
    ilp::CertifiedCut forged = pristine_gomory();
    forged.cert.row_mult.clear();
    forged.cert.bound_mult.clear();
    const auto why = verify_cut(fx.model, {}, forged);
    ASSERT_TRUE(why.has_value());
    EXPECT_NE(why->find("no row multipliers"), std::string::npos) << *why;
}

/// Cover fixture: 3x1 + 4x2 + 5x3 ≤ 6 over binaries; {x1, x2} is a cover.
struct CoverFixture {
    ilp::Model model;
    ilp::CertifiedCut cut;
};

CoverFixture cover_fixture() {
    CoverFixture fx;
    const ilp::Var x1 = fx.model.add_binary("x1");
    const ilp::Var x2 = fx.model.add_binary("x2");
    const ilp::Var x3 = fx.model.add_binary("x3");
    fx.model.add_le(ilp::LinExpr().add(x1, 3).add(x2, 4).add(x3, 5), 6, "knap");
    fx.model.set_objective(ilp::LinExpr().add(x1, 3).add(x2, 4).add(x3, 5));
    const auto cut = ilp::build_cover_cut(fx.model, {}, 0, {1.0, 0.75, 0.0}, 1e-4);
    EXPECT_TRUE(cut.has_value());
    if (cut) fx.cut = *cut;
    EXPECT_EQ(verify_cut(fx.model, {}, fx.cut), std::nullopt);
    return fx;
}

TEST(CutTamper, RejectsNonCoveringCoverSet) {
    // Dropping a variable from the certified set leaves a coefficient sum
    // that no longer exceeds the rhs — the all-ones point is feasible and
    // the "cover" excludes nothing.
    CoverFixture fx = cover_fixture();
    ilp::CertifiedCut bad = fx.cut;
    ASSERT_GE(bad.cert.cover_vars.size(), 2u);
    bad.cert.cover_vars.pop_back();
    const auto why = verify_cut(fx.model, {}, bad);
    ASSERT_TRUE(why.has_value());
}

TEST(CutTamper, RejectsLoweredCoverRhs) {
    // Σ_C x ≤ |C| − 2 is strictly stronger than what the cover argument
    // proves; the audit requires the rhs to be exactly |C| − 1.
    CoverFixture fx = cover_fixture();
    ilp::CertifiedCut bad = fx.cut;
    bad.rhs -= 1.0;
    const auto why = verify_cut(fx.model, {}, bad);
    ASSERT_TRUE(why.has_value());
    EXPECT_NE(why->find("|C|"), std::string::npos) << *why;
}

// ---------------------------------------------------------------------------
// Pass level: the tampered certificate is caught inside the full artifact
// audit, not just by the unit-level verifier.
// ---------------------------------------------------------------------------

const CompileResult& compiled_cms() {
    static const CompileResult result = [] {
        apps::Application app("cms_cut_audit");
        app.packet_field("key", 64);
        app.add(apps::cms_module("cms", "pkt.key"), 1.0);
        return compiler::compile_source(app.source(), {}, "cms_cut_audit");
    }();
    return result;
}

verify::LintResult run_check(const ir::Program& prog, const CompileArtifacts& art,
                             const char* check) {
    register_audit_passes(verify::PassRegistry::global());
    ArtifactsPayload payload;
    payload.artifacts = &art;
    verify::LintOptions options;
    options.checks = {check};
    options.target = art.target;
    options.payload = &payload;
    return verify::run_lint(prog, options);
}

TEST(CutTamper, PassRejectsInjectedForgedCut) {
    const CompileResult& r = compiled_cms();
    ASSERT_NE(r.artifacts, nullptr);
    ASSERT_TRUE(r.artifacts->has_ilp);
    CompileArtifacts bad = *r.artifacts;
    // Forge a plausible-looking inequality over the compile's own model with
    // an empty certificate and smuggle it into the shipped cut pool.
    ilp::CertifiedCut forged;
    forged.name = "forged";
    forged.expr.add(ilp::Var{0}, 1.0);
    forged.rhs = 0.0;
    bad.solution.cuts.push_back(forged);
    const verify::LintResult lint = run_check(r.program, bad, "ilp-cut-validity");
    EXPECT_TRUE(lint.has_errors()) << lint.render();
    bool named = false;
    for (const verify::Finding& f : lint.findings) {
        if (f.message.find("forged") != std::string::npos &&
            f.message.find("fails independent certificate re-derivation") != std::string::npos) {
            named = true;
        }
    }
    EXPECT_TRUE(named) << lint.render();
}

TEST(CutTamper, PassAcceptsUntamperedCuts) {
    // Control: the same pass over the untampered artifacts — and over the
    // solver-emitted fixture cuts verified in sequence — reports no errors.
    const CompileResult& r = compiled_cms();
    ASSERT_NE(r.artifacts, nullptr);
    const verify::LintResult lint = run_check(r.program, *r.artifacts, "ilp-cut-validity");
    EXPECT_FALSE(lint.has_errors()) << lint.render();

    const GomoryFixture& fx = gomory_fixture();
    ASSERT_FALSE(fx.cuts.empty());
    std::vector<ilp::CertifiedCut> prior;
    for (const ilp::CertifiedCut& cut : fx.cuts) {
        EXPECT_EQ(verify_cut(fx.model, prior, cut), std::nullopt) << cut.name;
        prior.push_back(cut);
    }
}

}  // namespace
}  // namespace p4all::audit
