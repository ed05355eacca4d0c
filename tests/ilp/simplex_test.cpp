#include "ilp/revised_simplex.hpp"
#include "ilp/simplex_textbook.hpp"

#include <gtest/gtest.h>

namespace p4all::ilp {
namespace {

TEST(Simplex, SimpleTwoVarLp) {
    // max 3x + 2y  s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 → x=4, y=0, obj 12.
    Model m;
    const Var x = m.add_continuous("x", 0, kInfinity);
    const Var y = m.add_continuous("y", 0, kInfinity);
    m.add_le(LinExpr().add(x, 1).add(y, 1), 4);
    m.add_le(LinExpr().add(x, 1).add(y, 3), 6);
    m.set_objective(LinExpr().add(x, 3).add(y, 2));
    const LpResult r = solve_lp_sparse(m);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.objective, 12.0, 1e-7);
    EXPECT_NEAR(r.values[0], 4.0, 1e-7);
    EXPECT_NEAR(r.values[1], 0.0, 1e-7);
}

TEST(Simplex, InteriorOptimum) {
    // max x + y  s.t. 2x + y <= 4, x + 2y <= 4 → x=y=4/3, obj 8/3.
    Model m;
    const Var x = m.add_continuous("x", 0, kInfinity);
    const Var y = m.add_continuous("y", 0, kInfinity);
    m.add_le(LinExpr().add(x, 2).add(y, 1), 4);
    m.add_le(LinExpr().add(x, 1).add(y, 2), 4);
    m.set_objective(LinExpr().add(x, 1).add(y, 1));
    const LpResult r = solve_lp_sparse(m);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.objective, 8.0 / 3.0, 1e-7);
}

TEST(Simplex, GreaterEqualAndEqualityRows) {
    // max x  s.t. x + y = 5, x >= 2, y >= 1 → x=4, y=1.
    Model m;
    const Var x = m.add_continuous("x", 0, kInfinity);
    const Var y = m.add_continuous("y", 0, kInfinity);
    m.add_eq(LinExpr().add(x, 1).add(y, 1), 5);
    m.add_ge(LinExpr().add(x, 1), 2);
    m.add_ge(LinExpr().add(y, 1), 1);
    m.set_objective(LinExpr().add(x, 1));
    const LpResult r = solve_lp_sparse(m);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.values[0], 4.0, 1e-7);
    EXPECT_NEAR(r.values[1], 1.0, 1e-7);
}

TEST(Simplex, RespectsVariableBounds) {
    // max x + y with x in [1,2], y in [0,3], x + y <= 4 → x=2 (bound), y=2.
    Model m;
    const Var x = m.add_continuous("x", 1, 2);
    const Var y = m.add_continuous("y", 0, 3);
    m.add_le(LinExpr().add(x, 1).add(y, 1), 4);
    m.set_objective(LinExpr().add(x, 1).add(y, 1));
    const LpResult r = solve_lp_sparse(m);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.objective, 4.0, 1e-7);
    EXPECT_GE(r.values[0], 1.0 - 1e-7);
    EXPECT_LE(r.values[0], 2.0 + 1e-7);
}

TEST(Simplex, NonzeroLowerBoundsShift) {
    // min-style check via negative objective: max -x with x >= 3 → x = 3.
    Model m;
    const Var x = m.add_continuous("x", 3, kInfinity);
    m.set_objective(LinExpr().add(x, -1));
    // Need at least one constraint for a meaningful tableau; add slackful one.
    m.add_le(LinExpr().add(x, 1), 100);
    const LpResult r = solve_lp_sparse(m);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.values[0], 3.0, 1e-7);
}

TEST(Simplex, DetectsInfeasible) {
    Model m;
    const Var x = m.add_continuous("x", 0, kInfinity);
    m.add_ge(LinExpr().add(x, 1), 5);
    m.add_le(LinExpr().add(x, 1), 2);
    m.set_objective(LinExpr().add(x, 1));
    EXPECT_EQ(solve_lp_sparse(m).status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
    Model m;
    const Var x = m.add_continuous("x", 0, kInfinity);
    const Var y = m.add_continuous("y", 0, kInfinity);
    m.add_ge(LinExpr().add(x, 1).add(y, -1), 0);
    m.set_objective(LinExpr().add(x, 1));
    EXPECT_EQ(solve_lp_sparse(m).status, LpStatus::Unbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
    // x - y <= -1 with x,y in [0,10]: max x → y ≥ x+1, so x = 9.
    Model m;
    const Var x = m.add_continuous("x", 0, 10);
    const Var y = m.add_continuous("y", 0, 10);
    m.add_le(LinExpr().add(x, 1).add(y, -1), -1);
    m.set_objective(LinExpr().add(x, 1));
    const LpResult r = solve_lp_sparse(m);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.objective, 9.0, 1e-7);
}

TEST(Simplex, BoundOverrides) {
    Model m;
    const Var x = m.add_continuous("x", 0, 10);
    m.add_le(LinExpr().add(x, 1), 100);
    m.set_objective(LinExpr().add(x, 1));
    std::vector<double> lb{0.0};
    std::vector<double> ub{4.0};
    const LpResult r = solve_lp_sparse(m, &lb, &ub);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.objective, 4.0, 1e-7);
}

TEST(Simplex, DegenerateProblemTerminates) {
    // Classic degeneracy: many redundant constraints through the origin.
    Model m;
    const Var x = m.add_continuous("x", 0, kInfinity);
    const Var y = m.add_continuous("y", 0, kInfinity);
    const Var z = m.add_continuous("z", 0, kInfinity);
    m.add_le(LinExpr().add(x, 0.5).add(y, -5.5).add(z, -2.5), 0);
    m.add_le(LinExpr().add(x, 0.5).add(y, -1.5).add(z, -0.5), 0);
    m.add_le(LinExpr().add(x, 1), 1);
    m.set_objective(LinExpr().add(x, 10).add(y, -57).add(z, -9));
    const LpResult r = solve_lp_sparse(m);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.objective, 1.0, 1e-6);
}

TEST(Simplex, EmptyModelIsTriviallyOptimal) {
    Model m;
    const Var x = m.add_continuous("x", 0, 5);
    m.set_objective(LinExpr().add(x, 2));
    const LpResult r = solve_lp_sparse(m);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.objective, 10.0, 1e-7);
}

TEST(Model, LpFormatDump) {
    Model m;
    const Var x = m.add_binary("x_a_1");
    const Var y = m.add_integer("n_cols", 1, 2048);
    m.add_le(LinExpr().add(x, 32).add(y, 1), 2048, "mem_stage0");
    m.set_objective(LinExpr().add(y, 0.4));
    const std::string lp = m.to_lp_format();
    EXPECT_NE(lp.find("Maximize"), std::string::npos);
    EXPECT_NE(lp.find("mem_stage0"), std::string::npos);
    EXPECT_NE(lp.find("Binaries"), std::string::npos);
    EXPECT_NE(lp.find("Generals"), std::string::npos);
    EXPECT_NE(lp.find("x_a_1"), std::string::npos);
}

TEST(Model, FeasibilityChecker) {
    Model m;
    const Var x = m.add_binary("x");
    const Var y = m.add_continuous("y", 0, 10);
    m.add_le(LinExpr().add(x, 5).add(y, 1), 7);
    EXPECT_TRUE(m.is_feasible({1.0, 2.0}));
    EXPECT_FALSE(m.is_feasible({1.0, 2.5}));   // constraint violated
    EXPECT_FALSE(m.is_feasible({0.5, 0.0}));   // fractional binary
    EXPECT_FALSE(m.is_feasible({0.0, 11.0}));  // bound violated
    EXPECT_FALSE(m.is_feasible({1.0}));        // wrong arity
}

// --- Anti-cycling (Bland's rule) ------------------------------------------

/// Beale's classic cycling LP: under Dantzig pricing with naive tie-breaking
/// the simplex revisits the same degenerate bases forever. Optimum is 0.05
/// at (1/25, 0, 1, 0). Solved with perturbation disabled so the anti-cycling
/// guard alone must terminate the solve.
Model beale_model() {
    Model m;
    const Var x1 = m.add_continuous("x1", 0, kInfinity);
    const Var x2 = m.add_continuous("x2", 0, kInfinity);
    const Var x3 = m.add_continuous("x3", 0, kInfinity);
    const Var x4 = m.add_continuous("x4", 0, kInfinity);
    m.add_le(LinExpr().add(x1, 0.25).add(x2, -60).add(x3, -0.04).add(x4, 9), 0);
    m.add_le(LinExpr().add(x1, 0.5).add(x2, -90).add(x3, -0.02).add(x4, 3), 0);
    m.add_le(LinExpr().add(x3, 1), 1);
    m.set_objective(LinExpr().add(x1, 0.75).add(x2, -150).add(x3, 0.02).add(x4, -6));
    return m;
}

TEST(Simplex, BealeCyclingLpTerminatesWithoutPerturbation) {
    const Model m = beale_model();
    LpOptions opts;
    opts.perturbation = 0.0;
    const LpResult r = solve_lp_sparse(m, nullptr, nullptr, opts);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.objective, 0.05, 1e-9);
}

TEST(Simplex, BealeCyclingLpTerminatesInTextbookSolver) {
    const Model m = beale_model();
    LpOptions opts;
    opts.perturbation = 0.0;
    const LpResult r = solve_lp_textbook(m, nullptr, nullptr, opts);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.objective, 0.05, 1e-9);
}

TEST(Simplex, DegeneratePivotRegressionWithoutPerturbation) {
    // The DegenerateProblemTerminates model again, but with the cost
    // perturbation off: termination must come from the stall guard engaging
    // Bland's rule, not from the perturbation collapsing the optimal face.
    Model m;
    const Var x = m.add_continuous("x", 0, kInfinity);
    const Var y = m.add_continuous("y", 0, kInfinity);
    const Var z = m.add_continuous("z", 0, kInfinity);
    m.add_le(LinExpr().add(x, 0.5).add(y, -5.5).add(z, -2.5), 0);
    m.add_le(LinExpr().add(x, 0.5).add(y, -1.5).add(z, -0.5), 0);
    m.add_le(LinExpr().add(x, 1), 1);
    m.set_objective(LinExpr().add(x, 10).add(y, -57).add(z, -9));
    LpOptions opts;
    opts.perturbation = 0.0;
    const LpResult sparse = solve_lp_sparse(m, nullptr, nullptr, opts);
    ASSERT_EQ(sparse.status, LpStatus::Optimal);
    EXPECT_NEAR(sparse.objective, 1.0, 1e-9);
    const LpResult textbook = solve_lp_textbook(m, nullptr, nullptr, opts);
    ASSERT_EQ(textbook.status, LpStatus::Optimal);
    EXPECT_NEAR(textbook.objective, 1.0, 1e-9);
}

// --- Dual extraction -------------------------------------------------------

/// Float-side weak-duality bound: Σ y·rhs + Σ_j max(d_j·lb, d_j·ub) with
/// d = c − yᵀA. The audit layer re-derives this exactly; here we sanity-check
/// the extracted duals in plain doubles.
double weak_bound(const Model& m, const std::vector<double>& duals) {
    std::vector<double> d(static_cast<std::size_t>(m.num_vars()), 0.0);
    for (const auto& [id, c] : m.objective().terms()) d[static_cast<std::size_t>(id)] += c;
    double bound = m.objective().constant();
    const auto& rows = m.constraints();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        bound += duals[i] * rows[i].rhs;
        for (const auto& [id, c] : rows[i].expr.terms()) {
            d[static_cast<std::size_t>(id)] -= duals[i] * c;
        }
    }
    for (int j = 0; j < m.num_vars(); ++j) {
        const double dj = d[static_cast<std::size_t>(j)];
        if (dj > 0) {
            bound += dj * m.upper_bound(j);
        } else if (dj < 0) {
            bound += dj * m.lower_bound(j);
        }
    }
    return bound;
}

void expect_valid_duals(const Model& m, const LpResult& r) {
    ASSERT_EQ(r.status, LpStatus::Optimal);
    ASSERT_EQ(r.duals.size(), m.constraints().size());
    for (std::size_t i = 0; i < r.duals.size(); ++i) {
        switch (m.constraints()[i].sense) {
            case CmpSense::Le: EXPECT_GE(r.duals[i], -1e-7) << "row " << i; break;
            case CmpSense::Ge: EXPECT_LE(r.duals[i], 1e-7) << "row " << i; break;
            case CmpSense::Eq: break;  // free
        }
    }
    // Strong duality up to the perturbation budget: the certified bound must
    // cover the objective and sit within bound_slack (+ float noise) of it.
    const double bound = weak_bound(m, r.duals);
    EXPECT_GE(bound, r.objective - 1e-6);
    EXPECT_LE(bound, r.objective + r.bound_slack + 1e-6);
}

TEST(Simplex, DualsCertifyOptimumOnInequalityLp) {
    // SimpleTwoVarLp: optimal dual is y = (3, 0), bound 12.
    Model m;
    const Var x = m.add_continuous("x", 0, kInfinity);
    const Var y = m.add_continuous("y", 0, kInfinity);
    m.add_le(LinExpr().add(x, 1).add(y, 1), 4);
    m.add_le(LinExpr().add(x, 1).add(y, 3), 6);
    m.set_objective(LinExpr().add(x, 3).add(y, 2));
    const LpResult r = solve_lp_sparse(m);
    expect_valid_duals(m, r);
    EXPECT_NEAR(r.duals[0], 3.0, 1e-5);
    EXPECT_NEAR(r.duals[1], 0.0, 1e-5);
}

TEST(Simplex, DualsCertifyOptimumWithEqualityAndGeRows) {
    // max x s.t. x + y = 5, x >= 2, y >= 1: optimum 4 with duals
    // (1, 0, -1) — equality dual free, Ge duals ≤ 0.
    Model m;
    const Var x = m.add_continuous("x", 0, kInfinity);
    const Var y = m.add_continuous("y", 0, kInfinity);
    m.add_eq(LinExpr().add(x, 1).add(y, 1), 5);
    m.add_ge(LinExpr().add(x, 1), 2);
    m.add_ge(LinExpr().add(y, 1), 1);
    m.set_objective(LinExpr().add(x, 1));
    const LpResult r = solve_lp_sparse(m);
    expect_valid_duals(m, r);
    EXPECT_NEAR(r.duals[0], 1.0, 1e-5);
    EXPECT_NEAR(r.duals[2], -1.0, 1e-5);
}

TEST(Simplex, DualsAgreeBetweenSparseAndTextbookSolvers) {
    Model m;
    const Var x = m.add_continuous("x", 0, 10);
    const Var y = m.add_continuous("y", 0, 10);
    const Var z = m.add_continuous("z", 1, 6);
    m.add_le(LinExpr().add(x, 2).add(y, 1).add(z, 1), 14, "r0");
    m.add_ge(LinExpr().add(x, 1).add(y, -1), -2, "r1");
    m.add_eq(LinExpr().add(y, 1).add(z, 1), 7, "r2");
    m.set_objective(LinExpr().add(x, 2).add(y, 3).add(z, 1));
    const LpResult sparse = solve_lp_sparse(m);
    const LpResult textbook = solve_lp_textbook(m);
    expect_valid_duals(m, sparse);
    expect_valid_duals(m, textbook);
    EXPECT_NEAR(sparse.objective, textbook.objective, 1e-6);
    for (std::size_t i = 0; i < sparse.duals.size(); ++i) {
        EXPECT_NEAR(sparse.duals[i], textbook.duals[i], 1e-5) << "row " << i;
    }
}

TEST(Simplex, DualsCertifyNegatedRowNormalization) {
    // Negative-rhs row forces the internal rhs-normalization sign flip; the
    // reported dual must still be in the model's (un-negated) convention.
    Model m;
    const Var x = m.add_continuous("x", 0, 10);
    const Var y = m.add_continuous("y", 0, 10);
    m.add_le(LinExpr().add(x, 1).add(y, -1), -1);
    m.set_objective(LinExpr().add(x, 1));
    const LpResult r = solve_lp_sparse(m);
    expect_valid_duals(m, r);
    EXPECT_NEAR(r.objective, 9.0, 1e-7);
}

TEST(Model, NormalizeMergesDuplicates) {
    Model m;
    const Var x = m.add_continuous("x", 0, 1);
    LinExpr e;
    e.add(x, 2).add(x, 3).add(x, -5);
    e.normalize();
    EXPECT_TRUE(e.terms().empty());
}

}  // namespace
}  // namespace p4all::ilp
