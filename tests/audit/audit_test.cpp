#include "audit/audit.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "apps/modules.hpp"
#include "compiler/compiler.hpp"
#include "verify/lint.hpp"

namespace p4all::audit {
namespace {

using compiler::CompileArtifacts;
using compiler::CompileResult;

const CompileResult& compiled_cms() {
    static const CompileResult result = [] {
        apps::Application app("cms_audit");
        app.packet_field("key", 64);
        app.add(apps::cms_module("cms", "pkt.key"), 1.0);
        return compiler::compile_source(app.source(), {}, "cms_audit");
    }();
    return result;
}

/// Runs exactly one audit check against (possibly tampered) artifacts.
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

int error_count(const verify::LintResult& r, const char* check) {
    int n = 0;
    for (const verify::Finding& f : r.findings) {
        EXPECT_EQ(f.check, check);
        if (f.severity == support::Severity::Error) ++n;
    }
    return n;
}

TEST(Audit, AcceptsUntamperedCompile) {
    const CompileResult& r = compiled_cms();
    ASSERT_NE(r.artifacts, nullptr);
    const verify::LintResult lint = audit_artifacts(r.program, *r.artifacts);
    EXPECT_FALSE(lint.has_errors()) << lint.render();
    EXPECT_EQ(lint.checks_run.size(), 10u);
    // The untampered ILP compile must come with a validated root certificate.
    bool certified = false;
    for (const verify::Finding& f : lint.findings) {
        if (f.check == "ilp-certificate-gap" &&
            f.message.find("root certificate valid") != std::string::npos) {
            certified = true;
        }
    }
    EXPECT_TRUE(certified) << lint.render();
}

TEST(Audit, PassesNoOpWithoutArtifactsPayload) {
    const CompileResult& r = compiled_cms();
    register_audit_passes(verify::PassRegistry::global());
    verify::LintOptions options;
    options.checks.assign(std::begin(kAuditChecks), std::end(kAuditChecks));
    const verify::LintResult lint = verify::run_lint(r.program, options);
    EXPECT_TRUE(lint.findings.empty());
}

TEST(Audit, RejectsOvercommittedStage) {
    const CompileResult& r = compiled_cms();
    CompileArtifacts bad = *r.artifacts;
    bool tampered = false;
    for (auto& plan : bad.layout.stages) {
        if (!plan.registers.empty()) {
            plan.registers.front().elems *= 1'000'000;
            tampered = true;
            break;
        }
    }
    ASSERT_TRUE(tampered);
    const verify::LintResult lint = run_check(r.program, bad, "layout-resource-overcommit");
    EXPECT_GE(error_count(lint, "layout-resource-overcommit"), 1) << lint.render();
}

TEST(Audit, RejectsDishonestUsageReport) {
    const CompileResult& r = compiled_cms();
    CompileArtifacts bad = *r.artifacts;
    bad.claimed_usage.phv_bits += 8;
    const verify::LintResult lint = run_check(r.program, bad, "layout-resource-overcommit");
    EXPECT_GE(error_count(lint, "layout-resource-overcommit"), 1) << lint.render();
}

TEST(Audit, RejectsDependencyOrderViolation) {
    const CompileResult& r = compiled_cms();
    CompileArtifacts bad = *r.artifacts;
    // Move every action out of its stage while the register rows stay put:
    // each register-touching action now runs in a stage that does not hold
    // its row, and any precedence edges across the two stages flip.
    std::size_t from = bad.layout.stages.size();
    for (std::size_t s = 0; s < bad.layout.stages.size(); ++s) {
        if (!bad.layout.stages[s].actions.empty()) {
            from = s;
            break;
        }
    }
    ASSERT_LT(from, bad.layout.stages.size());
    const std::size_t to = (from + 1) % bad.layout.stages.size();
    auto& src = bad.layout.stages[from].actions;
    auto& dst = bad.layout.stages[to].actions;
    dst.insert(dst.end(), src.begin(), src.end());
    src.clear();
    const verify::LintResult lint = run_check(r.program, bad, "layout-dependency-violation");
    EXPECT_GE(error_count(lint, "layout-dependency-violation"), 1) << lint.render();
}

TEST(Audit, RejectsDuplicatePlacement) {
    const CompileResult& r = compiled_cms();
    CompileArtifacts bad = *r.artifacts;
    for (std::size_t s = 0; s < bad.layout.stages.size(); ++s) {
        if (!bad.layout.stages[s].actions.empty()) {
            const auto inst = bad.layout.stages[s].actions.front();
            bad.layout.stages[(s + 1) % bad.layout.stages.size()].actions.push_back(inst);
            break;
        }
    }
    const verify::LintResult lint = run_check(r.program, bad, "layout-dependency-violation");
    EXPECT_GE(error_count(lint, "layout-dependency-violation"), 1) << lint.render();
}

TEST(Audit, RejectsTamperedSymbolBinding) {
    const CompileResult& r = compiled_cms();
    CompileArtifacts bad = *r.artifacts;
    ir::SymbolId loop_sym = ir::kNoId;
    for (const ir::CallSite& site : r.program.flow) {
        if (site.elastic()) {
            loop_sym = site.loop_bound;
            break;
        }
    }
    ASSERT_NE(loop_sym, ir::kNoId);
    // Claim one more loop iteration than the layout actually placed.
    bad.layout.bindings[static_cast<std::size_t>(loop_sym)] += 1;
    const verify::LintResult lint = run_check(r.program, bad, "layout-symbol-mismatch");
    EXPECT_GE(error_count(lint, "layout-symbol-mismatch"), 1) << lint.render();
}

TEST(Audit, RejectsInflatedUtilityClaim) {
    const CompileResult& r = compiled_cms();
    CompileArtifacts bad = *r.artifacts;
    bad.claimed_utility += 5.0;
    const verify::LintResult lint = run_check(r.program, bad, "layout-symbol-mismatch");
    EXPECT_GE(error_count(lint, "layout-symbol-mismatch"), 1) << lint.render();
}

TEST(Audit, RejectsFractionalIncumbent) {
    const CompileResult& r = compiled_cms();
    CompileArtifacts bad = *r.artifacts;
    ASSERT_TRUE(bad.has_ilp);
    int tampered = -1;
    for (int j = 0; j < bad.ilp.model.num_vars(); ++j) {
        if (bad.ilp.model.var_type(j) != ilp::VarType::Continuous) {
            bad.solution.values[static_cast<std::size_t>(j)] += 0.5;
            tampered = j;
            break;
        }
    }
    ASSERT_GE(tampered, 0);
    const verify::LintResult lint = run_check(r.program, bad, "ilp-infeasible-incumbent");
    EXPECT_GE(error_count(lint, "ilp-infeasible-incumbent"), 1) << lint.render();
}

TEST(Audit, RejectsMissingIncumbent) {
    const CompileResult& r = compiled_cms();
    CompileArtifacts bad = *r.artifacts;
    bad.solution.values.clear();
    const verify::LintResult lint = run_check(r.program, bad, "ilp-infeasible-incumbent");
    EXPECT_GE(error_count(lint, "ilp-infeasible-incumbent"), 1) << lint.render();
}

TEST(Audit, CertificateRefutesInflatedIncumbent) {
    const CompileResult& r = compiled_cms();
    CompileArtifacts bad = *r.artifacts;
    ASSERT_TRUE(bad.has_ilp);
    ASSERT_FALSE(bad.solution.root_duals.empty());
    // Inflate a variable the objective rewards: the exact c·x then exceeds
    // the certified weak-duality bound, and the dual certificate refutes it.
    int best = -1;
    double best_coeff = 0.0;
    for (const auto& [var, coeff] : bad.ilp.model.objective().terms()) {
        if (coeff > best_coeff) {
            best = var;
            best_coeff = coeff;
        }
    }
    ASSERT_GE(best, 0);
    bad.solution.values[static_cast<std::size_t>(best)] += 4096.0;
    const verify::LintResult lint = run_check(r.program, bad, "ilp-certificate-gap");
    EXPECT_GE(error_count(lint, "ilp-certificate-gap"), 1) << lint.render();
    bool refuted = false;
    for (const verify::Finding& f : lint.findings) {
        if (f.message.find("refutes") != std::string::npos) refuted = true;
    }
    EXPECT_TRUE(refuted) << lint.render();
}

TEST(Audit, GreedyBackendArtifactsAreAuditable) {
    apps::Application app("cms_audit_greedy");
    app.packet_field("key", 64);
    app.add(apps::cms_module("cms", "pkt.key"), 1.0);
    compiler::CompileOptions options;
    options.backend = compiler::Backend::Greedy;
    const CompileResult r = compiler::compile_source(app.source(), options, "cms_audit_greedy");
    ASSERT_NE(r.artifacts, nullptr);
    EXPECT_FALSE(r.artifacts->has_ilp);
    const verify::LintResult lint = audit_artifacts(r.program, *r.artifacts);
    EXPECT_FALSE(lint.has_errors()) << lint.render();
}

}  // namespace
}  // namespace p4all::audit
