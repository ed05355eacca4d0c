// Differential test oracle for the solver core.
//
// A seeded random generator produces LP and MILP instances across the
// regimes that matter (feasible, infeasible, unbounded, degenerate) and
// cross-checks the solver core against independent oracles:
//
//   * LP: the revised simplex vs the textbook oracle
//     (tests/ilp/simplex_textbook.hpp) — identical statuses, objectives to
//     1e-7, and primal feasibility of the returned vertex.
//   * MILP: best-first search (1, 2, 8 threads) vs solve_exhaustive — equal
//     optima, and bit-identical incumbents/statistics across thread counts
//     (the determinism contract in solver.hpp).
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "ilp/model.hpp"
#include "ilp/revised_simplex.hpp"
#include "ilp/simplex_textbook.hpp"
#include "ilp/solver.hpp"
#include "support/rng.hpp"

namespace p4all::ilp {
namespace {

using support::Xoshiro256;

struct RandomInstance {
    Model model;
    bool bias_feasible = false;
};

// Random bounded-variable instance. A random integral point x0 inside the
// box anchors the right-hand sides, so "bias_feasible" instances are
// feasible by construction; without the bias, tightened rhs values produce
// a healthy mix of infeasible and degenerate instances. `integral` turns a
// random subset of the variables into integers (for the MILP oracle).
RandomInstance random_instance(std::uint64_t seed, bool bias_feasible, bool integral) {
    Xoshiro256 rng(seed);
    RandomInstance out;
    out.bias_feasible = bias_feasible;
    Model& m = out.model;

    const int n = 2 + static_cast<int>(rng.next_below(5));
    const int rows = 1 + static_cast<int>(rng.next_below(6));

    std::vector<Var> vars;
    std::vector<double> x0;
    for (int j = 0; j < n; ++j) {
        const double lb = std::floor(rng.next_double() * 3.0);      // {0, 1, 2}
        const double ub = lb + 1.0 + std::floor(rng.next_double() * 6.0);
        const bool make_int = integral && rng.next_double() < 0.7;
        vars.push_back(make_int ? m.add_integer("x" + std::to_string(j), lb, ub)
                                : m.add_continuous("x" + std::to_string(j), lb, ub));
        x0.push_back(lb + std::floor(rng.next_double() * (ub - lb + 1.0)));
    }

    LinExpr obj;
    for (int j = 0; j < n; ++j) {
        obj.add(vars[static_cast<std::size_t>(j)],
                std::floor(rng.next_double() * 9.0) - 4.0);
    }
    m.set_objective(obj);

    for (int i = 0; i < rows; ++i) {
        LinExpr expr;
        double at_x0 = 0.0;
        int terms = 0;
        for (int j = 0; j < n; ++j) {
            if (rng.next_double() < 0.55) {
                const double c = std::floor(rng.next_double() * 7.0) - 3.0;
                if (c == 0.0) continue;
                expr.add(vars[static_cast<std::size_t>(j)], c);
                at_x0 += c * x0[static_cast<std::size_t>(j)];
                ++terms;
            }
        }
        if (terms == 0) {
            expr.add(vars[0], 1.0);
            at_x0 = x0[0];
        }
        const double pick = rng.next_double();
        if (bias_feasible) {
            // Slack 0 with probability ~1/3 → deliberately degenerate rows.
            const double slack = std::floor(rng.next_double() * 3.0);
            if (pick < 0.45) {
                m.add_le(expr, at_x0 + slack);
            } else if (pick < 0.9) {
                m.add_ge(expr, at_x0 - slack);
            } else {
                m.add_eq(expr, at_x0);
            }
        } else {
            // Unanchored rhs: feasibility is up to chance.
            const double rhs = std::floor(rng.next_double() * 21.0) - 10.0;
            if (pick < 0.45) {
                m.add_le(expr, rhs);
            } else if (pick < 0.9) {
                m.add_ge(expr, rhs);
            } else {
                m.add_eq(expr, rhs);
            }
        }
    }
    return out;
}

// An LP whose relaxation is unbounded: one unbounded variable pushed by the
// objective, constrained only from below.
Model unbounded_instance(std::uint64_t seed) {
    Xoshiro256 rng(seed);
    Model m;
    const Var x = m.add_continuous("x", 0, kInfinity);
    const Var y = m.add_continuous("y", 0, kInfinity);
    m.add_ge(LinExpr().add(x, 1).add(y, -1), std::floor(rng.next_double() * 5.0) - 2.0);
    m.set_objective(LinExpr().add(x, 1).add(y, rng.next_double() < 0.5 ? 0.0 : -0.5));
    return m;
}

/// Returns the engine's status so callers can count regimes.
LpStatus expect_lp_agrees_with_oracle(const Model& m, const std::string& label) {
    const LpResult sparse = solve_lp_sparse(m);
    const LpResult textbook = solve_lp_textbook(m);

    EXPECT_EQ(sparse.status, textbook.status) << label;
    if (sparse.status != LpStatus::Optimal || textbook.status != LpStatus::Optimal) {
        return sparse.status;
    }
    const double tol = 1e-7 * (1.0 + std::abs(textbook.objective));
    EXPECT_NEAR(sparse.objective, textbook.objective, tol) << label;
    // The returned vertex must actually satisfy the model — basis
    // feasibility, not just objective agreement.
    EXPECT_TRUE(m.is_feasible(sparse.values, 1e-6)) << label;
    EXPECT_EQ(sparse.duals.size(), static_cast<std::size_t>(m.num_constraints())) << label;
    return sparse.status;
}

TEST(DifferentialLp, FeasibleAndDegenerateInstances) {
    int optimal = 0;
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        const RandomInstance inst = random_instance(seed * 7919, /*bias_feasible=*/true,
                                                    /*integral=*/false);
        const std::string label = "feasible seed " + std::to_string(seed);
        if (expect_lp_agrees_with_oracle(inst.model, label) == LpStatus::Optimal) ++optimal;
    }
    // Anchored rhs means nearly everything is feasible; make sure the
    // generator is not degenerate-in-the-bad-sense (all-infeasible).
    EXPECT_GT(optimal, 100);
}

TEST(DifferentialLp, UnanchoredInstancesIncludeInfeasible) {
    int infeasible = 0;
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        const RandomInstance inst = random_instance(seed * 104729, /*bias_feasible=*/false,
                                                    /*integral=*/false);
        const std::string label = "unanchored seed " + std::to_string(seed);
        if (expect_lp_agrees_with_oracle(inst.model, label) == LpStatus::Infeasible) {
            ++infeasible;
        }
    }
    EXPECT_GT(infeasible, 10);  // the regime actually exercises infeasibility
}

TEST(DifferentialLp, UnboundedInstances) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const Model m = unbounded_instance(seed);
        const std::string label = "unbounded seed " + std::to_string(seed);
        EXPECT_EQ(solve_lp_sparse(m).status, LpStatus::Unbounded) << label;
        EXPECT_EQ(solve_lp_textbook(m).status, LpStatus::Unbounded) << label;
    }
}

TEST(DifferentialLp, SparseDualsCertifyTheObjective) {
    // Weak duality sanity on the sparse backend's duals: for a maximization
    // LP, b·y + (reduced-cost contribution of the bounds) ≥ objective. The
    // audit layer re-checks this in exact arithmetic; here we only require
    // the float-level inequality the certificate is built from: the dual
    // bound implied by `bound_slack` dominates the primal objective.
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        const RandomInstance inst = random_instance(seed * 31, true, false);
        const LpResult r = solve_lp_sparse(inst.model);
        if (r.status != LpStatus::Optimal) continue;
        EXPECT_GE(r.bound + 1e-9, r.objective) << "seed " << seed;
        EXPECT_NEAR(r.bound, r.objective + r.bound_slack, 1e-12) << "seed " << seed;
    }
}

/// The search compared against solve_exhaustive to 1e-6 must also prune at
/// 1e-6, not at the 1e-4 production gap.
Solution solve_with(const Model& m, int threads) {
    SolveOptions opts;
    opts.gap_relative = 1e-6;
    opts.threads = threads;
    return solve_milp(m, opts);
}

TEST(DifferentialMilp, BackendsAgreeWithExhaustiveEnumeration) {
    int optimal = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const RandomInstance inst = random_instance(seed * 523, /*bias_feasible=*/true,
                                                    /*integral=*/true);
        const std::string label = "milp seed " + std::to_string(seed);
        const Solution exact = solve_exhaustive(inst.model);
        const Solution search = solve_with(inst.model, 1);

        ASSERT_EQ(search.status, exact.status) << label;
        if (exact.status != SolveStatus::Optimal) continue;
        ++optimal;
        const double tol = 1e-6 * (1.0 + std::abs(exact.objective));
        EXPECT_NEAR(search.objective, exact.objective, tol) << label;
        EXPECT_TRUE(inst.model.is_feasible(search.values, 1e-6)) << label;
    }
    EXPECT_GT(optimal, 25);
}

TEST(DifferentialMilp, ParallelSearchIsThreadCountInvariant) {
    // The headline determinism contract: 1, 2, and 8 worker threads walk the
    // identical tree and land on bit-identical incumbents and statistics.
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        const RandomInstance inst = random_instance(seed * 1217, true, true);
        const std::string label = "milp seed " + std::to_string(seed);
        const Solution t1 = solve_with(inst.model, 1);
        const Solution t2 = solve_with(inst.model, 2);
        const Solution t8 = solve_with(inst.model, 8);

        ASSERT_EQ(t2.status, t1.status) << label;
        ASSERT_EQ(t8.status, t1.status) << label;
        // Bit-identical: plain == on the doubles, no tolerance.
        EXPECT_EQ(t2.objective, t1.objective) << label;
        EXPECT_EQ(t8.objective, t1.objective) << label;
        EXPECT_EQ(t2.values, t1.values) << label;
        EXPECT_EQ(t8.values, t1.values) << label;
        EXPECT_EQ(t2.nodes, t1.nodes) << label;
        EXPECT_EQ(t8.nodes, t1.nodes) << label;
        EXPECT_EQ(t2.lp_iterations, t1.lp_iterations) << label;
        EXPECT_EQ(t8.lp_iterations, t1.lp_iterations) << label;
        EXPECT_EQ(t2.root_duals, t1.root_duals) << label;
        EXPECT_EQ(t8.root_duals, t1.root_duals) << label;
    }
}

TEST(DifferentialMilp, WarmStartMatchesColdAtEveryThreadCount) {
    // The warm-start oracle, two layers:
    //
    //  * Determinism (bitwise): for a FIXED configuration, 1, 2, and 8
    //    threads produce bit-identical incumbents, node counts, and root
    //    certificates — warm-started and cold alike. This is the pinned
    //    guarantee: re-using the parent basis must not leak thread timing
    //    into the tree.
    //  * Agreement (tolerance): warm vs cold vs exhaustive enumeration
    //    reach the same status and optimum and a feasible incumbent. The
    //    continuous components of the vertex may differ in the last ulp —
    //    the dual repair takes a different pivot route to the same optimum —
    //    so cross-configuration equality is exact-status/near-objective,
    //    never bitwise.
    int optimal = 0;
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        const RandomInstance inst = random_instance(seed * 6491, true, true);
        const std::string label = "milp seed " + std::to_string(seed);
        const Solution oracle = solve_exhaustive(inst.model);
        Solution cold[3];
        Solution warm[3];
        const int threads[3] = {1, 2, 8};
        for (int t = 0; t < 3; ++t) {
            SolveOptions opts;
            opts.gap_relative = 1e-6;
            opts.threads = threads[t];
            opts.warm_start_lp = false;
            cold[t] = solve_milp(inst.model, opts);
            opts.warm_start_lp = true;
            warm[t] = solve_milp(inst.model, opts);
        }
        for (int t = 1; t < 3; ++t) {
            const std::string at = label + " threads " + std::to_string(threads[t]);
            // Bitwise across thread counts, separately per configuration.
            ASSERT_EQ(warm[t].status, warm[0].status) << at;
            EXPECT_EQ(warm[t].objective, warm[0].objective) << at;
            EXPECT_EQ(warm[t].values, warm[0].values) << at;
            EXPECT_EQ(warm[t].nodes, warm[0].nodes) << at;
            EXPECT_EQ(warm[t].root_duals, warm[0].root_duals) << at;
            ASSERT_EQ(cold[t].status, cold[0].status) << at;
            EXPECT_EQ(cold[t].objective, cold[0].objective) << at;
            EXPECT_EQ(cold[t].values, cold[0].values) << at;
            EXPECT_EQ(cold[t].nodes, cold[0].nodes) << at;
            EXPECT_EQ(cold[t].root_duals, cold[0].root_duals) << at;
        }
        ASSERT_EQ(warm[0].status, cold[0].status) << label;
        ASSERT_EQ(warm[0].status, oracle.status) << label;
        if (oracle.status != SolveStatus::Optimal) continue;
        ++optimal;
        const double tol = 1e-6 * (1.0 + std::abs(oracle.objective));
        EXPECT_NEAR(warm[0].objective, cold[0].objective, tol) << label;
        EXPECT_NEAR(warm[0].objective, oracle.objective, tol) << label;
        EXPECT_TRUE(inst.model.is_feasible(warm[0].values, 1e-6)) << label;
        EXPECT_TRUE(inst.model.is_feasible(cold[0].values, 1e-6)) << label;
    }
    EXPECT_GT(optimal, 15);
}

}  // namespace
}  // namespace p4all::ilp
