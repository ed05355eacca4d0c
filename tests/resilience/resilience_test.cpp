// Resilience suite: the fallback portfolio, deadline/cancellation handling
// end-to-end, and the deterministic fault-injection harness. Every named
// fault point is exercised here; the timeout matrix drives all four paper
// applications through tight budgets and asserts clean termination with an
// audited layout or a stable structured error — never a hang, never a raw
// unclassified exception.
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "analysis/unroll.hpp"
#include "apps/applications.hpp"
#include "apps/netcache.hpp"
#include "audit/audit.hpp"
#include "compiler/greedy.hpp"
#include "compiler/resilient.hpp"
#include "ilp/simplex_textbook.hpp"
#include "ilp/solver.hpp"
#include "lang/parser.hpp"
#include "support/faultpoint.hpp"
#include "target/spec.hpp"

namespace p4all {
namespace {

using compiler::AttemptOutcome;
using compiler::CompileOptions;
using compiler::CompileResult;
using compiler::ResilienceOptions;
using compiler::ResilientError;
using support::Errc;
using support::FaultRegistry;

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
action incr()[int i] {
    hash(meta.index[i], i, pkt.flow_id, cms[i]);
    reg_add(cms[i], meta.index[i], 1, meta.count[i]);
}
action take_min()[int i] { min(meta.min_val, meta.count[i]); }
control hash_inc { apply { for (i < rows) { incr()[i]; } } }
control find_min {
    apply { for (i < rows) { if (meta.count[i] < meta.min_val) { take_min()[i]; } } }
}
control ingress { apply { hash_inc.apply(); find_min.apply(); } }
optimize rows * cols;
)";

/// The fault registry is process-global: keep it disarmed around each test.
class ResilienceTest : public ::testing::Test {
protected:
    void SetUp() override { FaultRegistry::instance().clear(); }
    void TearDown() override { FaultRegistry::instance().clear(); }
};

ilp::Model small_fractional_model() {
    // LP relaxation optimum is fractional, so branch-and-bound must branch
    // and the rounding heuristic runs at the root (no warm start here).
    ilp::Model m;
    const ilp::Var x = m.add_integer("x", 0, 3);
    const ilp::Var y = m.add_integer("y", 0, 3);
    m.add_le(ilp::LinExpr().add(x, 1.0).add(y, 1.0), 2.5);
    m.set_objective(ilp::LinExpr().add(x, 1.0).add(y, 1.0));
    return m;
}

// --- fault point: simplex.pivot (the textbook oracle; the engine's arm is
// SparseSimplexPivotFaultReportsNumericalTrouble below) ---------------------

TEST_F(ResilienceTest, SimplexPivotFaultReportsNumericalTrouble) {
    FaultRegistry& reg = FaultRegistry::instance();
    const ilp::Model m = small_fractional_model();

    reg.configure("simplex.pivot:after=1");
    const ilp::LpResult textbook = ilp::solve_lp_textbook(m);
    EXPECT_EQ(textbook.status, ilp::LpStatus::IterLimit);
    EXPECT_EQ(textbook.error, Errc::NumericalTrouble);
    EXPECT_EQ(reg.fires("simplex.pivot"), 1);
}

// --- fault point: bnb.node -------------------------------------------------

TEST_F(ResilienceTest, BnbNodeFaultAbandonsSubtreeNeverFalseOptimal) {
    FaultRegistry& reg = FaultRegistry::instance();
    reg.configure("bnb.node:after=1");
    const ilp::Solution s = ilp::solve_milp(small_fractional_model());
    EXPECT_EQ(reg.fires("bnb.node"), 1);
    // The only node (the root) was abandoned: the search is incomplete and
    // must say so.
    EXPECT_EQ(s.status, ilp::SolveStatus::Limit);
    EXPECT_NE(s.error, Errc::None);
}

// --- fault points inside the parallel solver -------------------------------

// A model whose tree has enough depth for the parallel engine to run
// multi-node batches: fractional LP optimum, several branching layers.
ilp::Model branching_model() {
    ilp::Model m;
    const ilp::Var a = m.add_integer("a", 0, 5);
    const ilp::Var b = m.add_integer("b", 0, 5);
    const ilp::Var c = m.add_integer("c", 0, 5);
    m.add_le(ilp::LinExpr().add(a, 2.0).add(b, 3.0).add(c, 1.0), 7.5);
    m.add_le(ilp::LinExpr().add(a, 1.0).add(b, 1.0).add(c, 2.0), 6.3);
    m.set_objective(ilp::LinExpr().add(a, 3.0).add(b, 2.0).add(c, 4.0));
    return m;
}

ilp::SolveOptions parallel_options(int threads) {
    ilp::SolveOptions o;
    o.threads = threads;
    return o;
}

TEST_F(ResilienceTest, SparseSimplexPivotFaultReportsNumericalTrouble) {
    FaultRegistry& reg = FaultRegistry::instance();
    reg.configure("simplex.pivot:after=1");
    const ilp::LpResult r = ilp::solve_lp_sparse(small_fractional_model());
    EXPECT_EQ(r.status, ilp::LpStatus::IterLimit);
    EXPECT_EQ(r.error, Errc::NumericalTrouble);
    EXPECT_FALSE(r.deadline_hit);
    EXPECT_EQ(reg.fires("simplex.pivot"), 1);
}

TEST_F(ResilienceTest, ParallelSolverSharesOneNodeFaultBudget) {
    FaultRegistry& reg = FaultRegistry::instance();
    // `after=1` is a process-wide budget: no matter how many workers drain
    // the batch, exactly one node is abandoned.
    for (const int threads : {1, 2, 8}) {
        reg.configure("bnb.node:after=1");
        const ilp::Solution s =
            ilp::solve_milp(small_fractional_model(), parallel_options(threads));
        EXPECT_EQ(reg.fires("bnb.node"), 1) << threads << " threads";
        // The root was the abandoned node: incomplete search, never Optimal.
        EXPECT_EQ(s.status, ilp::SolveStatus::Limit) << threads << " threads";
        EXPECT_NE(s.error, Errc::None) << threads << " threads";
    }
}

TEST_F(ResilienceTest, ParallelSolverNodeFaultIsThreadCountDeterministic) {
    FaultRegistry& reg = FaultRegistry::instance();
    // bnb.node fires in the serial batch-selection section, so the SAME node
    // (in the deterministic pop order) is abandoned for every thread count —
    // the whole Solution must be bit-identical.
    const ilp::Model m = branching_model();
    reg.configure("bnb.node:after=2");
    const ilp::Solution t1 = ilp::solve_milp(m, parallel_options(1));
    reg.configure("bnb.node:after=2");
    const ilp::Solution t8 = ilp::solve_milp(m, parallel_options(8));
    EXPECT_EQ(reg.fires("bnb.node"), 1);
    EXPECT_EQ(t8.status, t1.status);
    EXPECT_EQ(t8.nodes, t1.nodes);
    EXPECT_EQ(t8.objective, t1.objective);
    EXPECT_EQ(t8.values, t1.values);
    EXPECT_EQ(t8.lp_iterations, t1.lp_iterations);
}

TEST_F(ResilienceTest, ParallelSolverSimplexFaultFiresExactlyOnceAcrossWorkers) {
    FaultRegistry& reg = FaultRegistry::instance();
    // simplex.pivot is hit from worker threads relaxing LPs concurrently;
    // the mutex-guarded registry must hand the single firing to exactly one
    // of them, and the engine must absorb it as an abandoned subtree. Root
    // cuts and LP warm starts are off so the firing lands inside a cold
    // worker-thread node LP: the root separation loop rolls back and
    // continues, and a warm-start dual simplex falls back to the cold path —
    // both self-heal instead of surfacing the trouble.
    reg.configure("simplex.pivot:after=3");
    ilp::SolveOptions opts = parallel_options(8);
    opts.cuts_enabled = false;
    opts.warm_start_lp = false;
    const ilp::Solution s = ilp::solve_milp(branching_model(), opts);
    EXPECT_EQ(reg.fires("simplex.pivot"), 1);
    EXPECT_EQ(s.status, ilp::SolveStatus::Limit);
    EXPECT_EQ(s.error, Errc::NumericalTrouble);
}

// --- fault point: bnb.round ------------------------------------------------

TEST_F(ResilienceTest, BnbRoundFaultCorruptsIncumbentPastTheFeasibilityCheck) {
    FaultRegistry& reg = FaultRegistry::instance();
    reg.configure("bnb.round:after=1");
    const ilp::Model m = small_fractional_model();
    // Root cuts off: a Gomory cut would make the root LP integral, and the
    // rounding heuristic runs only on a fractional relaxation.
    ilp::SolveOptions opts;
    opts.cuts_enabled = false;
    const ilp::Solution s = ilp::solve_milp(m, opts);
    ASSERT_GE(reg.fires("bnb.round"), 1);
    // The corrupted incumbent slipped past the solver's own checks — this is
    // exactly the hole the independent audit gate closes downstream.
    ASSERT_FALSE(s.values.empty());
    EXPECT_FALSE(m.is_feasible(s.values, 1e-6));
}

// --- fault points: artifacts.emit and codegen.emit -------------------------

TEST_F(ResilienceTest, ArtifactsEmitFaultFailsOverToNextRung) {
    FaultRegistry& reg = FaultRegistry::instance();
    reg.configure("artifacts.emit:after=1");
    CompileOptions opts;
    opts.target = target::running_example();
    ResilienceOptions res;
    res.budget_seconds = 30.0;
    res.external_gate = audit::make_resilience_gate();
    const CompileResult r = compiler::compile_resilient_source(kCms, opts, res, "cms");
    EXPECT_EQ(reg.fires("artifacts.emit"), 1);
    ASSERT_GE(r.resilience.attempts.size(), 2u);
    EXPECT_EQ(r.resilience.attempts[0].backend, "ilp-sparse");
    EXPECT_EQ(r.resilience.attempts[0].error, Errc::FaultInjected);
    // An injected fault is no numerical trouble, so the Bland restart is
    // skipped; the single-shot fault budget is spent and greedy sails
    // through.
    EXPECT_EQ(r.resilience.attempts[1].backend, "ilp-bland");
    EXPECT_EQ(r.resilience.attempts[1].outcome, AttemptOutcome::Skipped);
    EXPECT_EQ(r.resilience.final_backend, "greedy");
}

TEST_F(ResilienceTest, ArtifactsEmitPermanentFaultFailsTheWholePortfolioCleanly) {
    FaultRegistry& reg = FaultRegistry::instance();
    // Every rung loses its artifacts: the portfolio must exhaust itself and
    // throw a structured error with the full per-attempt record — never a
    // raw exception or a layout without artifacts.
    reg.configure("artifacts.emit:prob=1:seed=1");
    CompileOptions opts;
    opts.target = target::running_example();
    ResilienceOptions res;
    res.budget_seconds = 30.0;
    res.external_gate = audit::make_resilience_gate();
    try {
        (void)compiler::compile_resilient_source(kCms, opts, res, "cms");
        FAIL() << "portfolio accepted a layout whose artifacts never emitted";
    } catch (const ResilientError& e) {
        EXPECT_GE(e.report.attempts.size(), 4u);
        for (const compiler::AttemptReport& a : e.report.attempts) {
            if (a.outcome == AttemptOutcome::Skipped) continue;
            // Every rung that got far enough to assemble artifacts lost them
            // to the fault; exhaustive may refuse earlier (domain too large).
            EXPECT_TRUE(a.error == Errc::FaultInjected || a.error == Errc::DomainTooLarge)
                << a.backend;
        }
    }
    EXPECT_GE(reg.fires("artifacts.emit"), 2);
}

TEST_F(ResilienceTest, CodegenEmitFaultIsStructuredAndFailsOver) {
    FaultRegistry& reg = FaultRegistry::instance();
    reg.configure("codegen.emit:after=1");
    CompileOptions opts;
    opts.target = target::running_example();
    // Direct compile: the injected failure must surface as a structured
    // error with the stable code, not a raw exception.
    try {
        (void)compiler::compile_source(kCms, opts, "cms");
        FAIL() << "injected codegen fault did not surface";
    } catch (const support::Error& e) {
        EXPECT_EQ(e.code(), Errc::FaultInjected);
        EXPECT_NE(std::string(e.what()).find("P4ALL-0304"), std::string::npos);
    }
    EXPECT_EQ(reg.fires("codegen.emit"), 1);

    // Through the portfolio the same fault is absorbed by the next backend.
    reg.configure("codegen.emit:after=1");
    ResilienceOptions res;
    res.budget_seconds = 30.0;
    res.external_gate = audit::make_resilience_gate();
    const CompileResult r = compiler::compile_resilient_source(kCms, opts, res, "cms");
    EXPECT_TRUE(r.resilience.succeeded());
    EXPECT_EQ(r.resilience.attempts[0].error, Errc::FaultInjected);
}

// --- portfolio semantics ---------------------------------------------------

TEST_F(ResilienceTest, PreCancelledTokenSkipsEverythingWithStableCode) {
    support::CancelToken token = support::CancelToken::make();
    token.request_cancel();
    ResilienceOptions res;
    res.cancel = token;
    CompileOptions opts;
    opts.target = target::running_example();
    try {
        (void)compiler::compile_resilient_source(kCms, opts, res, "cms");
        FAIL() << "cancelled compile did not fail";
    } catch (const ResilientError& e) {
        EXPECT_EQ(e.code(), Errc::Cancelled);
        EXPECT_NE(std::string(e.what()).find("P4ALL-0204"), std::string::npos);
        for (const compiler::AttemptReport& a : e.report.attempts) {
            EXPECT_EQ(a.outcome, AttemptOutcome::Skipped) << a.backend;
        }
    }
}

TEST_F(ResilienceTest, InfeasibleProgramYieldsInfeasibleCode) {
    std::string src = kCms;
    const std::string from = "assume rows >= 1 && rows <= 4;";
    src.replace(src.find(from), from.size(), "assume rows >= 5 && rows <= 8;");
    CompileOptions opts;
    opts.target = target::running_example();
    ResilienceOptions res;
    res.budget_seconds = 30.0;
    res.external_gate = audit::make_resilience_gate();
    try {
        (void)compiler::compile_resilient_source(src, opts, res, "cms");
        FAIL() << "infeasible program compiled";
    } catch (const ResilientError& e) {
        EXPECT_EQ(e.code(), Errc::Infeasible);
        EXPECT_NE(std::string(e.what()).find("P4ALL-0201"), std::string::npos);
        EXPECT_FALSE(e.report.attempts.empty());
    }
}

TEST_F(ResilienceTest, RejectingGateWalksTheWholePortfolio) {
    CompileOptions opts;
    opts.target = target::running_example();
    ResilienceOptions res;
    res.budget_seconds = 30.0;
    res.external_gate = [](const ir::Program&, const compiler::CompileArtifacts&) {
        return std::string("rejected by test gate");
    };
    try {
        (void)compiler::compile_resilient_source(kCms, opts, res, "cms");
        FAIL() << "always-rejecting gate accepted something";
    } catch (const ResilientError& e) {
        EXPECT_EQ(e.code(), Errc::AuditRejected);
        // The rejection walks sparse → Bland restart → -O0 → the remaining
        // backends; every produced layout was gated.
        ASSERT_GE(e.report.attempts.size(), 4u);
        EXPECT_EQ(e.report.attempts[0].backend, "ilp-sparse");
        EXPECT_EQ(e.report.attempts[0].outcome, AttemptOutcome::AuditRejected);
        EXPECT_EQ(e.report.attempts[1].backend, "ilp-bland");
        EXPECT_EQ(e.report.attempts[1].outcome, AttemptOutcome::AuditRejected);
        EXPECT_EQ(e.report.attempts[2].backend, "ilp-O0");
        bool greedy_rejected = false;
        for (const compiler::AttemptReport& a : e.report.attempts) {
            greedy_rejected = greedy_rejected ||
                              (a.backend == "greedy" &&
                               a.outcome == AttemptOutcome::AuditRejected);
        }
        EXPECT_TRUE(greedy_rejected);
    }
}

TEST_F(ResilienceTest, GreedyBackendSkipsIlpRungs) {
    // CompileOptions::backend names the first rung: a greedy caller never
    // pays for an ILP attempt, and greedy's layout still passes the gate.
    CompileOptions opts;
    opts.target = target::running_example();
    opts.backend = compiler::Backend::Greedy;
    ResilienceOptions res;
    res.budget_seconds = 30.0;
    res.external_gate = audit::make_resilience_gate();
    const CompileResult r = compiler::compile_resilient_source(kCms, opts, res, "cms");
    ASSERT_FALSE(r.resilience.attempts.empty());
    for (const compiler::AttemptReport& a : r.resilience.attempts) {
        EXPECT_FALSE(a.backend.starts_with("ilp")) << a.backend;
    }
    EXPECT_EQ(r.resilience.final_backend, "greedy");
    ASSERT_TRUE(r.artifacts != nullptr);
    EXPECT_FALSE(r.artifacts->has_ilp);
    EXPECT_EQ(audit::make_resilience_gate()(r.program, *r.artifacts), "");
}

TEST_F(ResilienceTest, AnytimeIncumbentAcceptedAndMarked) {
    CompileOptions opts;
    opts.target = target::running_example();
    opts.solve.max_nodes = 0;  // exhaust the node budget immediately: the
                               // greedy warm start is the only incumbent
    ResilienceOptions res;
    res.budget_seconds = 30.0;
    res.external_gate = audit::make_resilience_gate();
    const CompileResult r = compiler::compile_resilient_source(kCms, opts, res, "cms");
    EXPECT_EQ(r.resilience.final_backend, "ilp-sparse");
    EXPECT_TRUE(r.resilience.anytime);
    ASSERT_FALSE(r.resilience.attempts.empty());
    EXPECT_TRUE(r.resilience.attempts[0].anytime);
    // The record is mirrored into the shared artifacts for provenance.
    ASSERT_TRUE(r.artifacts != nullptr);
    EXPECT_EQ(r.artifacts->resilience.final_backend, "ilp-sparse");
    EXPECT_TRUE(r.artifacts->resilience.anytime);
    // An anytime layout is still a valid layout.
    const verify::LintResult audit = audit::audit_artifacts(r.program, *r.artifacts);
    EXPECT_FALSE(audit.has_errors()) << audit.render();
}

TEST_F(ResilienceTest, ReportSerializesToJson) {
    CompileOptions opts;
    opts.target = target::running_example();
    ResilienceOptions res;
    res.budget_seconds = 30.0;
    const CompileResult r = compiler::compile_resilient_source(kCms, opts, res, "cms");
    const std::string json = r.resilience.to_json();
    EXPECT_NE(json.find("\"final_backend\":\"ilp-sparse\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"attempts\":["), std::string::npos) << json;
    EXPECT_NE(r.resilience.to_string().find("accepted 'ilp-sparse'"), std::string::npos);
}

TEST_F(ResilienceTest, GreedyHonorsAnExpiredDeadline) {
    const ir::Program prog = ir::elaborate(lang::parse(kCms, "cms.p4all"), {.program_name = "cms"});
    const target::TargetSpec target = target::running_example();
    const auto bounds = analysis::unroll_bounds_all(prog, target);
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = compiler::greedy_place(prog, target, bounds,
                                          support::Deadline::after_seconds(0.0));
    const double sec = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    EXPECT_FALSE(r.has_value());
    EXPECT_LT(sec, 1.0);
}

// --- timeout matrix --------------------------------------------------------

struct MatrixCase {
    const char* name;
    std::string source;
};

class TimeoutMatrix : public ::testing::TestWithParam<double> {
protected:
    void SetUp() override { FaultRegistry::instance().clear(); }
};

TEST_P(TimeoutMatrix, AllApplicationsTerminateCleanlyWithinTwiceTheBudget) {
    const double budget = GetParam();
    const MatrixCase cases[] = {
        {"netcache", apps::netcache_source()},
        {"sketchlearn", apps::sketchlearn_source()},
        {"precision", apps::precision_source()},
        {"conquest", apps::conquest_source()},
    };
    for (const MatrixCase& c : cases) {
        CompileOptions opts;
        ResilienceOptions res;
        res.budget_seconds = budget;
        res.external_gate = audit::make_resilience_gate();
        const auto t0 = std::chrono::steady_clock::now();
        try {
            const CompileResult r =
                compiler::compile_resilient_source(c.source, opts, res, c.name);
            // Success: the layout passed the independent audit gate; double
            // check the artifacts agree.
            ASSERT_TRUE(r.artifacts != nullptr) << c.name;
            const verify::LintResult audit = audit::audit_artifacts(r.program, *r.artifacts);
            EXPECT_FALSE(audit.has_errors()) << c.name << ": " << audit.render();
            EXPECT_TRUE(r.resilience.succeeded()) << c.name;
        } catch (const ResilientError& e) {
            // Failure must be structured: a stable code, a per-attempt record.
            EXPECT_NE(e.code(), Errc::None) << c.name;
            EXPECT_NE(std::string(support::errc_code(e.code())).find("P4ALL-"),
                      std::string::npos)
                << c.name;
            EXPECT_FALSE(e.report.attempts.empty()) << c.name;
        }
        const double sec =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        // 2x budget is the contract; the extra second absorbs CI noise on
        // the sub-100ms budgets where constant overheads dominate.
        EXPECT_LE(sec, 2.0 * budget + 1.0) << c.name << " at budget " << budget;
    }
}

INSTANTIATE_TEST_SUITE_P(Budgets, TimeoutMatrix, ::testing::Values(0.05, 0.5, 5.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                             const int ms = static_cast<int>(info.param * 1000);
                             return "budget_" + std::to_string(ms) + "ms";
                         });

}  // namespace
}  // namespace p4all
