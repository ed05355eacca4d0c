// Property/fuzz suite for the bounded-variable dual simplex that powers
// branch-and-bound warm starts (ilp/revised_simplex.cpp).
//
// The contract under test, from LpOptions::warm_basis:
//   * a warm start can never change the result, only the route to it;
//   * while dual feasibility is maintained, the (minimize-form, perturbed)
//     objective is monotone nondecreasing pivot over pivot — the certified
//     upper bound on the true maximum only tightens (LpOptions::
//     dual_pivot_trace exposes the sequence);
//   * degenerate instances terminate: Bland's rule (force_bland) is
//     cycle-proof, and the default anti-stall fallback must never report
//     IterLimit on the small fuzz corpus.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ilp/model.hpp"
#include "ilp/revised_simplex.hpp"
#include "ilp/simplex.hpp"
#include "ilp/simplex_textbook.hpp"
#include "support/rng.hpp"

namespace p4all::ilp {
namespace {

using support::Xoshiro256;

/// Random bounded, anchored (feasible-by-construction) instance; every
/// third row gets zero slack at the anchor so the corpus is rich in
/// degenerate vertices — the regime dual ratio tests get wrong first.
Model random_anchored(std::uint64_t seed, int* out_n = nullptr) {
    Xoshiro256 rng(seed);
    Model m;
    const int n = 3 + static_cast<int>(rng.next_below(5));
    const int rows = 2 + static_cast<int>(rng.next_below(6));
    if (out_n != nullptr) *out_n = n;

    std::vector<Var> vars;
    std::vector<double> x0;
    for (int j = 0; j < n; ++j) {
        const double lb = std::floor(rng.next_double() * 3.0);
        const double ub = lb + 2.0 + std::floor(rng.next_double() * 6.0);
        vars.push_back(m.add_continuous("x" + std::to_string(j), lb, ub));
        x0.push_back(lb + std::floor(rng.next_double() * (ub - lb)));
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
        for (int j = 0; j < n; ++j) {
            if (rng.next_double() < 0.6) {
                const double c = std::floor(rng.next_double() * 7.0) - 3.0;
                if (c == 0.0) continue;
                expr.add(vars[static_cast<std::size_t>(j)], c);
                at_x0 += c * x0[static_cast<std::size_t>(j)];
            }
        }
        if (expr.terms().empty()) {
            expr.add(vars[0], 1.0);
            at_x0 = x0[0];
        }
        const double slack = (i % 3 == 0) ? 0.0 : std::floor(rng.next_double() * 4.0);
        if (rng.next_double() < 0.5) {
            m.add_le(expr, at_x0 + slack);
        } else {
            m.add_ge(expr, at_x0 - slack);
        }
    }
    return m;
}

/// One branch step: clamp variable j of `point` to the floor/ceiling of its
/// current value, whichever moves it. Returns false when no variable moves
/// (the vertex sits on integral bounds already).
bool tighten_once(const Model& m, const std::vector<double>& point, Xoshiro256& rng,
                  std::vector<double>& lb, std::vector<double>& ub) {
    for (int attempt = 0; attempt < 2 * m.num_vars(); ++attempt) {
        const int j = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(m.num_vars())));
        const double x = point[static_cast<std::size_t>(j)];
        const double down = std::floor(x);
        const double up = std::ceil(x);
        if (rng.next_double() < 0.5) {
            if (down >= lb[static_cast<std::size_t>(j)] + 0.5 ||
                (down > lb[static_cast<std::size_t>(j)] && down < ub[static_cast<std::size_t>(j)])) {
                ub[static_cast<std::size_t>(j)] = down;
                return true;
            }
        } else if (up < ub[static_cast<std::size_t>(j)] - 0.5 ||
                   (up < ub[static_cast<std::size_t>(j)] && up > lb[static_cast<std::size_t>(j)])) {
            lb[static_cast<std::size_t>(j)] = up;
            return true;
        }
    }
    return false;
}

/// A branch step that always cuts off the parent vertex: move one bound
/// strictly past the current value (⌈x⌉−1 < x < ⌊x⌋+1 for every x), so the
/// warm basis is primal infeasible and the dual simplex must actually pivot.
bool cut_off_vertex(const Model& m, const std::vector<double>& point, Xoshiro256& rng,
                    std::vector<double>& lb, std::vector<double>& ub) {
    for (int attempt = 0; attempt < 4 * m.num_vars(); ++attempt) {
        const auto j = static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(m.num_vars())));
        const double x = point[j];
        const double down = std::ceil(x) - 1.0;
        const double up = std::floor(x) + 1.0;
        if (rng.next_double() < 0.5) {
            if (down >= lb[j] && down < ub[j]) {
                ub[j] = down;
                return true;
            }
        } else if (up <= ub[j] && up > lb[j]) {
            lb[j] = up;
            return true;
        }
    }
    return false;
}

TEST(DualSimplex, WarmChildEqualsColdChild) {
    // Dual ratio-test correctness, fuzzed: a child LP (parent bounds with one
    // tightened) solved warm from the parent's optimal basis must report the
    // same status and the same optimum as the cold two-phase solve.
    int checked = 0;
    for (std::uint64_t seed = 1; seed <= 150; ++seed) {
        const Model m = random_anchored(seed * 7823);
        std::vector<double> lb(static_cast<std::size_t>(m.num_vars()));
        std::vector<double> ub(static_cast<std::size_t>(m.num_vars()));
        for (int j = 0; j < m.num_vars(); ++j) {
            lb[static_cast<std::size_t>(j)] = m.lower_bound(j);
            ub[static_cast<std::size_t>(j)] = m.upper_bound(j);
        }
        LpOptions parent_opts;
        SimplexBasis basis;
        parent_opts.capture_basis = &basis;
        parent_opts.perturb_ref_lb = &lb;
        parent_opts.perturb_ref_ub = &ub;
        const LpResult parent = solve_lp_sparse(m, &lb, &ub, parent_opts);
        if (parent.status != LpStatus::Optimal || basis.empty()) continue;

        Xoshiro256 rng(seed * 31 + 7);
        std::vector<double> clb = lb, cub = ub;
        if (!tighten_once(m, parent.values, rng, clb, cub)) continue;

        LpOptions warm_opts;
        warm_opts.warm_basis = &basis;
        warm_opts.perturb_ref_lb = &lb;  // frozen at the parent: the invariant
        warm_opts.perturb_ref_ub = &ub;
        const LpResult warm = solve_lp_sparse(m, &clb, &cub, warm_opts);

        LpOptions cold_opts;
        cold_opts.perturb_ref_lb = &lb;
        cold_opts.perturb_ref_ub = &ub;
        const LpResult cold = solve_lp_sparse(m, &clb, &cub, cold_opts);

        const std::string label = "seed " + std::to_string(seed);
        ASSERT_EQ(warm.status, cold.status) << label;
        if (cold.status != LpStatus::Optimal) continue;
        ++checked;
        const double tol = 1e-7 * (1.0 + std::abs(cold.objective));
        EXPECT_NEAR(warm.objective, cold.objective, tol) << label;
        // The returned vertex must satisfy the child bounds and the rows.
        for (int j = 0; j < m.num_vars(); ++j) {
            EXPECT_GE(warm.values[static_cast<std::size_t>(j)],
                      clb[static_cast<std::size_t>(j)] - 1e-6)
                << label;
            EXPECT_LE(warm.values[static_cast<std::size_t>(j)],
                      cub[static_cast<std::size_t>(j)] + 1e-6)
                << label;
        }
        EXPECT_TRUE(m.is_feasible(warm.values, 1e-6)) << label;
    }
    EXPECT_GT(checked, 60);  // the corpus must actually exercise the dual path
}

TEST(DualSimplex, PivotTraceIsMonotoneNondecreasing) {
    // Objective monotonicity, the dual simplex invariant: every pivot of a
    // warm re-solve weakly increases the minimize-form objective (the dual
    // bound tightens toward the child optimum; it never overshoots back).
    int traced_pivots = 0;
    for (std::uint64_t seed = 1; seed <= 150; ++seed) {
        const Model m = random_anchored(seed * 104707);
        std::vector<double> lb(static_cast<std::size_t>(m.num_vars()));
        std::vector<double> ub(static_cast<std::size_t>(m.num_vars()));
        for (int j = 0; j < m.num_vars(); ++j) {
            lb[static_cast<std::size_t>(j)] = m.lower_bound(j);
            ub[static_cast<std::size_t>(j)] = m.upper_bound(j);
        }
        SimplexBasis basis;
        LpOptions parent_opts;
        parent_opts.capture_basis = &basis;
        parent_opts.perturb_ref_lb = &lb;
        parent_opts.perturb_ref_ub = &ub;
        const LpResult parent = solve_lp_sparse(m, &lb, &ub, parent_opts);
        if (parent.status != LpStatus::Optimal || basis.empty()) continue;

        Xoshiro256 rng(seed * 17 + 3);
        std::vector<double> clb = lb, cub = ub;
        std::vector<double> point = parent.values;
        // A chain of vertex-cutting branch steps, each warm-started from the
        // previous basis: every re-solve begins primal infeasible, so the
        // dual path pivots for real instead of accepting the basis as-is.
        for (int depth = 0; depth < 5; ++depth) {
            if (!cut_off_vertex(m, point, rng, clb, cub)) break;

            std::vector<double> trace;
            LpOptions warm_opts;
            warm_opts.warm_basis = &basis;
            warm_opts.capture_basis = &basis;
            warm_opts.perturb_ref_lb = &lb;
            warm_opts.perturb_ref_ub = &ub;
            warm_opts.dual_pivot_trace = &trace;
            const LpResult res = solve_lp_sparse(m, &clb, &cub, warm_opts);

            for (std::size_t k = 1; k < trace.size(); ++k) {
                // Tolerance: factorization roundoff only; a genuine
                // ratio-test bug regresses the objective by whole pivot
                // steps.
                EXPECT_GE(trace[k] - trace[k - 1],
                          -1e-7 * (1.0 + std::abs(trace[k])))
                    << "seed " << seed << " depth " << depth << " pivot " << k;
            }
            traced_pivots += static_cast<int>(trace.size());
            if (res.status != LpStatus::Optimal || basis.empty()) break;
            point = res.values;
        }
    }
    EXPECT_GT(traced_pivots, 100);  // the trace hook must actually fire
}

TEST(DualSimplex, WarmChainMatchesColdAtEveryDepth) {
    // Branch-and-bound reality: chains of tightenings, each warm-started
    // from the previous optimum's basis. Every link must agree with a cold
    // solve of the same bounds.
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const Model m = random_anchored(seed * 523 + 11);
        std::vector<double> lb(static_cast<std::size_t>(m.num_vars()));
        std::vector<double> ub(static_cast<std::size_t>(m.num_vars()));
        for (int j = 0; j < m.num_vars(); ++j) {
            lb[static_cast<std::size_t>(j)] = m.lower_bound(j);
            ub[static_cast<std::size_t>(j)] = m.upper_bound(j);
        }
        const std::vector<double> ref_lb = lb, ref_ub = ub;
        SimplexBasis basis;
        LpOptions opts;
        opts.capture_basis = &basis;
        opts.perturb_ref_lb = &ref_lb;
        opts.perturb_ref_ub = &ref_ub;
        LpResult cur = solve_lp_sparse(m, &lb, &ub, opts);
        Xoshiro256 rng(seed);
        for (int depth = 0; depth < 6 && cur.status == LpStatus::Optimal; ++depth) {
            if (!tighten_once(m, cur.values, rng, lb, ub)) break;
            SimplexBasis parent_basis = basis;
            LpOptions warm_opts = opts;
            warm_opts.warm_basis = &parent_basis;
            cur = solve_lp_sparse(m, &lb, &ub, warm_opts);

            LpOptions cold_opts;
            cold_opts.perturb_ref_lb = &ref_lb;
            cold_opts.perturb_ref_ub = &ref_ub;
            const LpResult cold = solve_lp_sparse(m, &lb, &ub, cold_opts);
            const std::string label =
                "seed " + std::to_string(seed) + " depth " + std::to_string(depth);
            ASSERT_EQ(cur.status, cold.status) << label;
            if (cold.status == LpStatus::Optimal) {
                EXPECT_NEAR(cur.objective, cold.objective,
                            1e-7 * (1.0 + std::abs(cold.objective)))
                    << label;
            }
        }
    }
}

TEST(DualSimplex, WarmStartsWinOnAggregate) {
    // The reason the machinery exists: across the corpus, warm-started child
    // solves must spend strictly fewer simplex iterations than cold child
    // solves. Asserted in aggregate — individual instances may tie.
    std::int64_t warm_its = 0;
    std::int64_t cold_its = 0;
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        const Model m = random_anchored(seed * 2029);
        std::vector<double> lb(static_cast<std::size_t>(m.num_vars()));
        std::vector<double> ub(static_cast<std::size_t>(m.num_vars()));
        for (int j = 0; j < m.num_vars(); ++j) {
            lb[static_cast<std::size_t>(j)] = m.lower_bound(j);
            ub[static_cast<std::size_t>(j)] = m.upper_bound(j);
        }
        SimplexBasis basis;
        LpOptions parent_opts;
        parent_opts.capture_basis = &basis;
        parent_opts.perturb_ref_lb = &lb;
        parent_opts.perturb_ref_ub = &ub;
        const LpResult parent = solve_lp_sparse(m, &lb, &ub, parent_opts);
        if (parent.status != LpStatus::Optimal || basis.empty()) continue;
        Xoshiro256 rng(seed * 5 + 1);
        std::vector<double> clb = lb, cub = ub;
        if (!tighten_once(m, parent.values, rng, clb, cub)) continue;

        LpOptions warm_opts;
        warm_opts.warm_basis = &basis;
        warm_opts.perturb_ref_lb = &lb;
        warm_opts.perturb_ref_ub = &ub;
        warm_its += solve_lp_sparse(m, &clb, &cub, warm_opts).iterations;
        LpOptions cold_opts;
        cold_opts.perturb_ref_lb = &lb;
        cold_opts.perturb_ref_ub = &ub;
        cold_its += solve_lp_sparse(m, &clb, &cub, cold_opts).iterations;
    }
    EXPECT_LT(warm_its, cold_its);
    EXPECT_GT(cold_its, 0);
}

TEST(DualSimplex, BlandModeTerminatesOnDegenerateCorpus) {
    // Anti-cycling: force Bland's rule from the first pivot on the
    // degeneracy-rich corpus (zero-slack anchored rows) and require clean
    // termination with the same optimum as the textbook oracle.
    for (std::uint64_t seed = 1; seed <= 80; ++seed) {
        const Model m = random_anchored(seed * 3191);
        LpOptions bland;
        bland.force_bland = true;
        const LpResult sparse = solve_lp_sparse(m, nullptr, nullptr, bland);
        const LpResult textbook = solve_lp_textbook(m);
        const std::string label = "seed " + std::to_string(seed);
        ASSERT_NE(sparse.status, LpStatus::IterLimit) << label;
        ASSERT_EQ(sparse.status, textbook.status) << label;
        if (textbook.status == LpStatus::Optimal) {
            EXPECT_NEAR(sparse.objective, textbook.objective,
                        1e-6 * (1.0 + std::abs(textbook.objective)))
                << label;
        }
    }
}

TEST(DualSimplex, DegenerateWarmStartDoesNotCycle) {
    // A fully degenerate warm re-solve (child cuts off the current vertex,
    // every candidate leaving row has zero primal infeasibility elsewhere)
    // must still terminate. Constructed corner case: all-equal bounds after
    // tightening except one variable.
    Model m;
    const Var x = m.add_continuous("x", 0, 4);
    const Var y = m.add_continuous("y", 0, 4);
    const Var z = m.add_continuous("z", 0, 4);
    m.add_le(LinExpr().add(x, 1).add(y, 1), 4);
    m.add_le(LinExpr().add(y, 1).add(z, 1), 4);
    m.add_le(LinExpr().add(x, 1).add(z, 1), 4);
    m.set_objective(LinExpr().add(x, 1).add(y, 1).add(z, 1));

    std::vector<double> lb = {0, 0, 0};
    std::vector<double> ub = {4, 4, 4};
    SimplexBasis basis;
    LpOptions opts;
    opts.capture_basis = &basis;
    opts.perturb_ref_lb = &lb;
    opts.perturb_ref_ub = &ub;
    const LpResult parent = solve_lp_sparse(m, &lb, &ub, opts);
    ASSERT_EQ(parent.status, LpStatus::Optimal);

    // Pin every variable to 1: massively degenerate, still feasible.
    std::vector<double> clb = {1, 1, 1};
    std::vector<double> cub = {1, 1, 1};
    LpOptions warm_opts;
    warm_opts.warm_basis = &basis;
    warm_opts.perturb_ref_lb = &lb;
    warm_opts.perturb_ref_ub = &ub;
    const LpResult child = solve_lp_sparse(m, &clb, &cub, warm_opts);
    ASSERT_EQ(child.status, LpStatus::Optimal);
    EXPECT_NEAR(child.objective, 3.0, 1e-6);
}

}  // namespace
}  // namespace p4all::ilp
