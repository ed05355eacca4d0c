// Tamper suite for the ilp-formulation-rows audit pass
// (src/audit/formulation.cpp).
//
// netcache's model carries both derived row families: nine equal-size rows
// (kv_keys[i] and kv_vals[i] share kv_slots and the gate y_kv_ways_i) and
// one memory-pigeonhole row over the eighteen 64-bit kv rows. The pass must
// accept them as generated and reject each way a shipped row can differ
// from its re-derivation: a scaled coefficient, a dropped term, a shifted
// right-hand side, or a derived-family name with no derivation at all.
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "apps/netcache.hpp"
#include "audit/audit.hpp"
#include "compiler/compiler.hpp"
#include "ilp/model.hpp"
#include "verify/lint.hpp"

namespace p4all::audit {
namespace {

using compiler::CompileArtifacts;
using compiler::CompileResult;

const CompileResult& compiled_netcache() {
    static const CompileResult r =
        compiler::compile_source(apps::netcache_source(), {}, "netcache");
    return r;
}

verify::LintResult run_check(const CompileArtifacts& art) {
    register_audit_passes(verify::PassRegistry::global());
    ArtifactsPayload payload;
    payload.artifacts = &art;
    verify::LintOptions options;
    options.checks = {"ilp-formulation-rows"};
    options.target = art.target;
    options.payload = &payload;
    return verify::run_lint(compiled_netcache().program, options);
}

/// Copy of `m` whose first row named with `prefix` went through `tamper`.
ilp::Model tampered(const ilp::Model& m, const std::string& prefix,
                    const std::function<void(ilp::Constraint&)>& tamper) {
    ilp::Model out;
    for (int j = 0; j < m.num_vars(); ++j) {
        out.add_var(m.var_name(j), m.var_type(j), m.lower_bound(j), m.upper_bound(j));
    }
    bool done = false;
    for (ilp::Constraint c : m.constraints()) {
        if (!done && c.name.rfind(prefix, 0) == 0) {
            tamper(c);
            done = true;
        }
        switch (c.sense) {
            case ilp::CmpSense::Le: out.add_le(c.expr, c.rhs, c.name); break;
            case ilp::CmpSense::Ge: out.add_ge(c.expr, c.rhs, c.name); break;
            case ilp::CmpSense::Eq: out.add_eq(c.expr, c.rhs, c.name); break;
        }
    }
    EXPECT_TRUE(done) << "no row named " << prefix << "*";
    out.set_objective(m.objective());
    return out;
}

/// The pass must reject the artifacts with `prefix`'s first row tampered,
/// naming that row.
void expect_rejected(const std::string& prefix,
                     const std::function<void(ilp::Constraint&)>& tamper,
                     const std::string& reason) {
    const CompileResult& r = compiled_netcache();
    ASSERT_NE(r.artifacts, nullptr);
    ASSERT_TRUE(r.artifacts->has_ilp);
    CompileArtifacts bad = *r.artifacts;
    bad.ilp.model = tampered(r.artifacts->ilp.model, prefix, tamper);
    const verify::LintResult lint = run_check(bad);
    ASSERT_TRUE(lint.has_errors()) << lint.render();
    bool named = false;
    for (const verify::Finding& f : lint.findings) {
        if (f.severity == support::Severity::Error &&
            f.message.find("row '" + prefix) != std::string::npos &&
            f.message.find(reason) != std::string::npos) {
            named = true;
        }
    }
    EXPECT_TRUE(named) << lint.render();
}

/// Replaces the coefficient of the constraint's `k`-th term.
void scale_term(ilp::Constraint& c, std::size_t k, double factor) {
    ilp::LinExpr e;
    for (std::size_t i = 0; i < c.expr.terms().size(); ++i) {
        const auto& [id, coeff] = c.expr.terms()[i];
        e.add(ilp::Var{id}, i == k ? coeff * factor : coeff);
    }
    c.expr = e;
}

void drop_last_term(ilp::Constraint& c) {
    ilp::LinExpr e;
    for (std::size_t i = 0; i + 1 < c.expr.terms().size(); ++i) {
        e.add(ilp::Var{c.expr.terms()[i].first}, c.expr.terms()[i].second);
    }
    c.expr = e;
}

TEST(FormulationTamper, AcceptsGeneratedRows) {
    const CompileResult& r = compiled_netcache();
    ASSERT_NE(r.artifacts, nullptr);
    const verify::LintResult lint = run_check(*r.artifacts);
    EXPECT_FALSE(lint.has_errors()) << lint.render();
    bool counted = false;
    for (const verify::Finding& f : lint.findings) {
        if (f.message.find("10 derived formulation row(s) re-derived") != std::string::npos) {
            counted = true;
        }
    }
    EXPECT_TRUE(counted) << lint.render();
}

TEST(FormulationTamper, RejectsScaledEqualSizeCoefficient) {
    expect_rejected("eqsize_", [](ilp::Constraint& c) { scale_term(c, 1, 2.0); },
                    "coefficient on");
}

TEST(FormulationTamper, RejectsDroppedEqualSizeTerm) {
    // e_keys = 0 would zero a row the derivation only ties to its twin.
    expect_rejected("eqsize_", drop_last_term, "coefficient on");
}

TEST(FormulationTamper, RejectsShiftedEqualSizeRightHandSide) {
    expect_rejected("eqsize_", [](ilp::Constraint& c) { c.rhs += 1.0; }, "right-hand side");
}

TEST(FormulationTamper, RejectsScaledPigeonholeCoefficient) {
    expect_rejected("pigeon_", [](ilp::Constraint& c) { scale_term(c, 0, 0.5); },
                    "coefficient on");
}

TEST(FormulationTamper, RejectsDroppedPigeonholeTerm) {
    expect_rejected("pigeon_", drop_last_term, "coefficient on");
}

TEST(FormulationTamper, RejectsShiftedPigeonholeRightHandSide) {
    expect_rejected("pigeon_", [](ilp::Constraint& c) { c.rhs -= 1.0; }, "right-hand side");
}

TEST(FormulationTamper, RejectsDerivedNameWithoutDerivation) {
    expect_rejected("eqsize_", [](ilp::Constraint& c) { c.name = "eqsize_forged"; },
                    "has no derivation");
}

}  // namespace
}  // namespace p4all::audit
