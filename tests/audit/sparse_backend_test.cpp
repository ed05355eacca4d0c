// Audit regression for the solver core: the four benchmark applications
// compiled with deterministic parallel best-first search must (a) pass every
// independent audit pass — including the exact-rational weak-duality
// certificate check over the root duals the engine's BTRAN produces — and
// (b) prove optimality at the utility recorded for each application (the
// optimum the removed dense engine also reached).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "apps/applications.hpp"
#include "apps/netcache.hpp"
#include "audit/audit.hpp"
#include "compiler/compiler.hpp"

namespace p4all::audit {
namespace {

struct BenchApp {
    const char* name;
    std::string source;
    double utility;  // recorded optimum
};

std::vector<BenchApp> bench_apps() {
    return {
        {"netcache", apps::netcache_source(), 128512.2},
        {"sketchlearn", apps::sketchlearn_source(), 109374},
        {"precision", apps::precision_source(), 109372},
        {"conquest", apps::conquest_source(), 109374},
    };
}

compiler::CompileResult compile_sparse(const BenchApp& app, int threads) {
    compiler::CompileOptions options;
    options.backend = compiler::Backend::Ilp;
    options.solve.threads = threads;
    return compiler::compile_source(app.source, options, app.name);
}

// The test name predates the one-engine solver core: "dense" now means the
// utilities recorded in bench_apps(), the optima the dense engine reached.
class SparseBackendAudit : public ::testing::TestWithParam<int> {};

TEST_P(SparseBackendAudit, AuditAcceptsSparseLayoutsAndObjectivesMatchDense) {
    const BenchApp app = bench_apps()[static_cast<std::size_t>(GetParam())];

    const compiler::CompileResult sparse = compile_sparse(app, 2);
    ASSERT_NE(sparse.artifacts, nullptr) << app.name;

    // The full audit pipeline — structure, capacity, placement, codegen
    // cross-check, and the certificate-gap pass consuming root_duals /
    // root_bound_slack.
    const verify::LintResult lint = audit_artifacts(sparse.program, *sparse.artifacts);
    EXPECT_FALSE(lint.has_errors()) << app.name << " (sparse):\n" << lint.render();

    // The engine solved the root to optimality on these apps, so a dual
    // certificate must actually be present — an empty-duals skip in the
    // certificate pass would silently weaken this test.
    ASSERT_TRUE(sparse.artifacts->has_ilp) << app.name;
    EXPECT_FALSE(sparse.artifacts->solution.root_duals.empty()) << app.name;

    EXPECT_TRUE(sparse.artifacts->solution.optimal()) << app.name;
    EXPECT_NEAR(sparse.utility, app.utility, 1e-6 * (1.0 + std::abs(app.utility)))
        << app.name;
}

INSTANTIATE_TEST_SUITE_P(BenchmarkApps, SparseBackendAudit, ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                             return std::string(
                                 bench_apps()[static_cast<std::size_t>(info.param)].name);
                         });

}  // namespace
}  // namespace p4all::audit
