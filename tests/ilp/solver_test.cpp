#include "ilp/solver.hpp"

#include <gtest/gtest.h>

#include "support/rng.hpp"

namespace p4all::ilp {
namespace {

TEST(Milp, SmallKnapsack) {
    // max 10a + 13b + 7c  s.t. 3a + 4b + 2c <= 6, binary → a=1,c=1 (17)
    // vs b=1,c=1 (20) vs a=1,b=0,c=1... best is b+c = 20.
    Model m;
    const Var a = m.add_binary("a");
    const Var b = m.add_binary("b");
    const Var c = m.add_binary("c");
    m.add_le(LinExpr().add(a, 3).add(b, 4).add(c, 2), 6);
    m.set_objective(LinExpr().add(a, 10).add(b, 13).add(c, 7));
    const Solution s = solve_milp(m);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, 20.0, 1e-6);
    EXPECT_EQ(s.value_int(a), 0);
    EXPECT_EQ(s.value_int(b), 1);
    EXPECT_EQ(s.value_int(c), 1);
}

TEST(Milp, IntegerRoundingMatters) {
    // LP optimum is fractional; MILP must branch.
    // max x + y  s.t. 2x + 5y <= 7, 5x + 2y <= 7, integer ≥ 0 → x=y=1, obj 2.
    Model m;
    const Var x = m.add_integer("x", 0, 10);
    const Var y = m.add_integer("y", 0, 10);
    m.add_le(LinExpr().add(x, 2).add(y, 5), 7);
    m.add_le(LinExpr().add(x, 5).add(y, 2), 7);
    m.set_objective(LinExpr().add(x, 1).add(y, 1));
    const Solution s = solve_milp(m);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, 2.0, 1e-6);
}

TEST(Milp, MixedIntegerContinuous) {
    // max 2b + y  s.t. y <= 3b (big-M style), y <= 2.5 → b=1, y=2.5.
    Model m;
    const Var b = m.add_binary("b");
    const Var y = m.add_continuous("y", 0, 2.5);
    m.add_le(LinExpr().add(y, 1).add(b, -3), 0);
    m.set_objective(LinExpr().add(b, 2).add(y, 1));
    const Solution s = solve_milp(m);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, 4.5, 1e-6);
    EXPECT_EQ(s.value_int(b), 1);
}

TEST(Milp, InfeasibleDetected) {
    Model m;
    const Var x = m.add_binary("x");
    m.add_ge(LinExpr().add(x, 1), 2);
    m.set_objective(LinExpr().add(x, 1));
    EXPECT_EQ(solve_milp(m).status, SolveStatus::Infeasible);
}

TEST(Milp, EqualityConstrainedAssignment) {
    // Choose exactly one of three options, maximize weight.
    Model m;
    const Var a = m.add_binary("a");
    const Var b = m.add_binary("b");
    const Var c = m.add_binary("c");
    m.add_eq(LinExpr().add(a, 1).add(b, 1).add(c, 1), 1);
    m.set_objective(LinExpr().add(a, 1).add(b, 5).add(c, 3));
    const Solution s = solve_milp(m);
    ASSERT_TRUE(s.optimal());
    EXPECT_EQ(s.value_int(b), 1);
    EXPECT_NEAR(s.objective, 5.0, 1e-6);
}

TEST(Milp, ExhaustiveAgreesOnKnapsack) {
    Model m;
    const Var a = m.add_binary("a");
    const Var b = m.add_binary("b");
    const Var c = m.add_binary("c");
    const Var d = m.add_binary("d");
    m.add_le(LinExpr().add(a, 5).add(b, 4).add(c, 6).add(d, 3), 10);
    m.set_objective(LinExpr().add(a, 10).add(b, 40).add(c, 30).add(d, 50));
    SolveOptions exact;
    exact.gap_relative = 1e-6;  // compared against enumeration to 1e-6
    const Solution bb = solve_milp(m, exact);
    const Solution ex = solve_exhaustive(m);
    ASSERT_TRUE(bb.optimal());
    ASSERT_TRUE(ex.optimal());
    EXPECT_NEAR(bb.objective, ex.objective, 1e-6);
}

/// Property test: on random small MILPs, branch-and-bound and exhaustive
/// enumeration agree on feasibility and on the optimal objective.
class RandomMilp : public ::testing::TestWithParam<int> {};

TEST_P(RandomMilp, BranchAndBoundMatchesExhaustive) {
    support::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
    Model m;
    const int nbin = 2 + static_cast<int>(rng.next_below(4));   // 2..5 binaries
    const int nint = static_cast<int>(rng.next_below(3));       // 0..2 small ints
    const int ncont = static_cast<int>(rng.next_below(2));      // 0..1 continuous
    std::vector<Var> vars;
    for (int i = 0; i < nbin; ++i) vars.push_back(m.add_binary("b" + std::to_string(i)));
    for (int i = 0; i < nint; ++i) vars.push_back(m.add_integer("i" + std::to_string(i), 0, 3));
    for (int i = 0; i < ncont; ++i) {
        vars.push_back(m.add_continuous("c" + std::to_string(i), 0, 5));
    }
    const int ncons = 2 + static_cast<int>(rng.next_below(4));
    for (int k = 0; k < ncons; ++k) {
        LinExpr e;
        for (const Var v : vars) {
            const int coeff = static_cast<int>(rng.next_below(9)) - 4;  // -4..4
            if (coeff != 0) e.add(v, coeff);
        }
        const double rhs = static_cast<double>(rng.next_below(12)) - 2.0;
        if (rng.next_below(4) == 0) {
            m.add_ge(e, rhs);
        } else {
            m.add_le(e, rhs);
        }
    }
    LinExpr obj;
    for (const Var v : vars) {
        obj.add(v, static_cast<double>(rng.next_below(11)) - 3.0);
    }
    m.set_objective(obj);

    const Solution ex = solve_exhaustive(m);
    SolveOptions exact;
    exact.gap_relative = 1e-6;  // compared against enumeration, not the 1e-4 default
    const Solution bb = solve_milp(m, exact);
    ASSERT_NE(bb.status, SolveStatus::Limit) << m.to_lp_format();
    EXPECT_EQ(bb.optimal(), ex.optimal()) << m.to_lp_format();
    if (bb.optimal() && ex.optimal()) {
        EXPECT_NEAR(bb.objective, ex.objective, 1e-5) << m.to_lp_format();
        EXPECT_TRUE(m.is_feasible(bb.values, 1e-5));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMilp, ::testing::Range(0, 60));

TEST(Milp, StatsAreReported) {
    Model m;
    const Var x = m.add_integer("x", 0, 10);
    const Var y = m.add_integer("y", 0, 10);
    m.add_le(LinExpr().add(x, 2).add(y, 5), 7);
    m.add_le(LinExpr().add(x, 5).add(y, 2), 7);
    m.set_objective(LinExpr().add(x, 1).add(y, 1));
    const Solution s = solve_milp(m);
    EXPECT_GE(s.nodes, 1);
    EXPECT_GE(s.lp_iterations, 1);
    EXPECT_GE(s.seconds, 0.0);
}

TEST(Milp, NodeLimitReturnsLimitStatus) {
    // LP relaxation is fractional (x = 1, y = 0.5), so the solver must
    // branch — which a 1-node budget forbids.
    Model m;
    const Var x = m.add_binary("x");
    const Var y = m.add_binary("y");
    m.add_le(LinExpr().add(x, 2).add(y, 2), 3);
    m.set_objective(LinExpr().add(x, 1).add(y, 1));
    SolveOptions opts;
    opts.max_nodes = 1;
    // Root cuts would close this instance at the root without branching
    // (gomory: x + y ≤ 1); keep them off so the node budget actually binds.
    opts.cuts_enabled = false;
    const Solution s = solve_milp(m, opts);
    EXPECT_EQ(s.status, SolveStatus::Limit);
    // Without the limit the optimum is 1.
    const Solution full = solve_milp(m);
    ASSERT_TRUE(full.optimal());
    EXPECT_NEAR(full.objective, 1.0, 1e-6);
}

TEST(Exhaustive, RejectsHugeDomains) {
    Model m;
    (void)m.add_integer("x", 0, 1 << 24);
    m.set_objective(LinExpr());
    const Solution s = solve_exhaustive(m, 1000);
    EXPECT_EQ(s.status, SolveStatus::Limit);
    EXPECT_EQ(s.error, support::Errc::DomainTooLarge);
    EXPECT_FALSE(s.error_detail.empty());
}

TEST(Exhaustive, RejectsUnboundedIntegerDomains) {
    Model m;
    (void)m.add_var("x", VarType::Integer, 0.0, kInfinity);
    m.set_objective(LinExpr());
    const Solution s = solve_exhaustive(m);
    EXPECT_EQ(s.status, SolveStatus::Limit);
    EXPECT_EQ(s.error, support::Errc::DomainTooLarge);
    EXPECT_NE(s.error_detail.find("x"), std::string::npos);
}

}  // namespace
}  // namespace p4all::ilp
