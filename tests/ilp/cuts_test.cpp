// Certified cutting planes: hand-checked derivations, exhaustive validity,
// and the failure-path contract of the root separation loop.
//
//  * Hand-checked instances pin the cut families to known answers (a
//    knapsack whose cover is computable by eye, a CG rounding whose result
//    is the classic Σx ≤ 1).
//  * Exhaustive enumeration proves validity the hard way: every cut the
//    solver pools on a small random MILP is checked against EVERY integer
//    point of the truncated box that satisfies the constraints.
//  * The audit verifier (src/audit/cuts.cpp) must accept every untampered
//    certificate here; the tamper suite lives in tests/audit.
//  * Failure paths: an LP killed mid-separation (P4ALL_FAULTS=simplex.pivot)
//    or an expired deadline must surface Limit with the warm-start incumbent
//    intact and a root bound no weaker than the pre-cut relaxation — never a
//    crash, never a lost incumbent, never a bound from an uncommitted round.
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/cuts.hpp"
#include "ilp/cuts.hpp"
#include "ilp/model.hpp"
#include "ilp/revised_simplex.hpp"
#include "ilp/solver.hpp"
#include "support/faultpoint.hpp"
#include "support/rng.hpp"

namespace p4all::ilp {
namespace {

using support::Xoshiro256;

/// Every integer point of the (finite, small) box that satisfies the model
/// rows; used to prove cut validity by enumeration.
std::vector<std::vector<double>> integer_feasible_points(const Model& m) {
    std::vector<std::vector<double>> out;
    std::vector<double> point(static_cast<std::size_t>(m.num_vars()));
    const std::function<void(int)> rec = [&](int j) {
        if (j == m.num_vars()) {
            if (m.is_feasible(point, 1e-9)) out.push_back(point);
            return;
        }
        const double lb = m.lower_bound(j);
        const double ub = m.upper_bound(j);
        for (double v = std::ceil(lb); v <= std::floor(ub) + 0.5; v += 1.0) {
            point[static_cast<std::size_t>(j)] = v;
            rec(j + 1);
        }
    };
    rec(0);
    return out;
}

TEST(Cuts, HandCheckedCoverOnKnapsack) {
    // 3x1 + 4x2 + 5x3 ≤ 6 over binaries. At the LP point (1, 0.75, 0) the
    // greedy cover takes x1 then x2: 3 + 4 = 7 > 6, so {x1, x2} cannot be
    // all-ones and the cut is x1 + x2 ≤ 1 (violated by 0.75).
    Model m;
    const Var x1 = m.add_binary("x1");
    const Var x2 = m.add_binary("x2");
    const Var x3 = m.add_binary("x3");
    m.add_le(LinExpr().add(x1, 3).add(x2, 4).add(x3, 5), 6, "knap");
    m.set_objective(LinExpr().add(x1, 3).add(x2, 4).add(x3, 5));

    const std::vector<double> point = {1.0, 0.75, 0.0};
    const auto cut = build_cover_cut(m, {}, 0, point, 1e-4);
    ASSERT_TRUE(cut.has_value());
    EXPECT_DOUBLE_EQ(cut->rhs, 1.0);
    ASSERT_EQ(cut->cert.cover_vars.size(), 2u);
    EXPECT_EQ(cut->cert.cover_vars[0], x1.id);
    EXPECT_EQ(cut->cert.cover_vars[1], x2.id);
    // The independent audit re-derivation must accept it.
    EXPECT_EQ(audit::verify_cut(m, {}, *cut), std::nullopt);
    // And it must hold at every integer-feasible point.
    for (const auto& p : integer_feasible_points(m)) {
        EXPECT_LE(cut->expr.evaluate(p), cut->rhs + 1e-9);
    }
}

TEST(Cuts, HandCheckedGomoryClosesTheClassicGap) {
    // max x1+x2+x3  s.t.  2x1+2x2+2x3 ≤ 3, binary. LP optimum 1.5 at
    // (.5,.5,.5); the CG cut with multiplier 1/2 is x1+x2+x3 ≤ ⌊1.5⌋ = 1,
    // closing the root gap completely. The solver must find a cut of that
    // strength and prove the optimum at the root.
    Model m;
    const Var x1 = m.add_binary("x1");
    const Var x2 = m.add_binary("x2");
    const Var x3 = m.add_binary("x3");
    m.add_le(LinExpr().add(x1, 2).add(x2, 2).add(x3, 2), 3, "knap");
    m.set_objective(LinExpr().add(x1, 1).add(x2, 1).add(x3, 1));

    SolveOptions o;
    const Solution s = solve_milp(m, o);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 1.0, 1e-6);
    ASSERT_FALSE(s.cuts.empty());
    // Post-cut root bound: the certified relaxation closed the gap.
    EXPECT_LT(s.root_bound, 1.0 + 1e-4);
    // Every shipped certificate passes the independent verifier, in order.
    std::vector<CertifiedCut> prior;
    for (const CertifiedCut& cut : s.cuts) {
        EXPECT_EQ(audit::verify_cut(m, prior, cut), std::nullopt) << cut.name;
        prior.push_back(cut);
    }
}

TEST(Cuts, PooledCutsAreValidByExhaustiveEnumeration) {
    // Fuzz: on random small integer models, every cut the solver pools must
    // hold at every integer-feasible point of the box — zero tolerance for
    // cutting off a feasible integer solution.
    int models_with_cuts = 0;
    int cuts_checked = 0;
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        Xoshiro256 rng(seed * 6353);
        Model m;
        const int n = 2 + static_cast<int>(rng.next_below(4));  // ≤ 5 vars
        std::vector<Var> vars;
        LinExpr obj;
        for (int j = 0; j < n; ++j) {
            const double ub = 1.0 + std::floor(rng.next_double() * 3.0);
            vars.push_back(m.add_integer("x" + std::to_string(j), 0, ub));
            obj.add(vars.back(), 1.0 + std::floor(rng.next_double() * 5.0));
        }
        m.set_objective(obj);
        const int rows = 1 + static_cast<int>(rng.next_below(3));
        for (int i = 0; i < rows; ++i) {
            LinExpr e;
            double mx = 0.0;
            for (int j = 0; j < n; ++j) {
                const double c = 1.0 + std::floor(rng.next_double() * 4.0);
                if (rng.next_double() < 0.75) {
                    e.add(vars[static_cast<std::size_t>(j)], c);
                    mx += c * m.upper_bound(j);
                }
            }
            if (e.terms().empty()) e.add(vars[0], 1.0);
            // rhs strictly inside (0, max activity): guarantees a bite.
            m.add_le(e, std::max(1.0, std::floor(mx * (0.3 + 0.4 * rng.next_double()))));
        }

        SolveOptions o;
        const Solution s = solve_milp(m, o);
        if (s.cuts.empty()) continue;
        ++models_with_cuts;
        const auto points = integer_feasible_points(m);
        std::vector<CertifiedCut> prior;
        for (const CertifiedCut& cut : s.cuts) {
            for (const auto& p : points) {
                ASSERT_LE(cut.expr.evaluate(p), cut.rhs + 1e-9)
                    << "seed " << seed << ": cut " << cut.name
                    << " removes a feasible integer point";
            }
            // The audit verifier agrees with enumeration.
            EXPECT_EQ(audit::verify_cut(m, prior, cut), std::nullopt)
                << "seed " << seed << ": " << cut.name;
            prior.push_back(cut);
            ++cuts_checked;
        }
    }
    EXPECT_GT(models_with_cuts, 10);  // the corpus must actually separate
    EXPECT_GT(cuts_checked, 20);
}

/// A model with a real root gap, feasible all-zeros warm start, and enough
/// LP work that a fault ordinal sweep lands in every phase: root solve,
/// separation re-solves, branch-and-bound children.
Model gap_model() {
    Model m;
    std::vector<Var> x;
    LinExpr obj;
    for (int j = 0; j < 8; ++j) {
        x.push_back(m.add_binary("x" + std::to_string(j)));
        obj.add(x.back(), 2.0 + static_cast<double>(j % 3));
    }
    m.set_objective(obj);
    LinExpr a, b, c;
    for (int j = 0; j < 8; ++j) {
        a.add(x[static_cast<std::size_t>(j)], 2.0);
        if (j % 2 == 0) b.add(x[static_cast<std::size_t>(j)], 3.0);
        if (j % 3 == 0) c.add(x[static_cast<std::size_t>(j)], 2.0);
    }
    m.add_le(std::move(a), 7, "a");
    m.add_le(std::move(b), 5, "b");
    m.add_le(std::move(c), 3, "c");
    return m;
}

TEST(Cuts, FaultMidSeparationKeepsIncumbentAndCertifiedBound) {
    // Satellite contract: an LP that dies mid-cut-separation (simulated
    // numerical breakdown at the H-th pivot, for every H) must never lose
    // the warm-start incumbent, never report a bound weaker than the
    // pre-cut relaxation when cuts were committed, and never ship a cut
    // whose certificate the audit verifier rejects.
    const Model m = gap_model();
    SolveOptions base_opts;
    base_opts.threads = 1;  // deterministic fault-hit ordinals
    base_opts.warm_start.assign(static_cast<std::size_t>(m.num_vars()), 0.0);

    // Reference runs: the pre-cut relaxation bound and the clean optimum.
    SolveOptions no_cuts = base_opts;
    no_cuts.cuts_enabled = false;
    const Solution plain = solve_milp(m, no_cuts);
    ASSERT_EQ(plain.status, SolveStatus::Optimal);
    const double precut_bound = plain.root_bound;
    const Solution clean = solve_milp(m, base_opts);
    ASSERT_EQ(clean.status, SolveStatus::Optimal);
    ASSERT_FALSE(clean.cuts.empty());  // the sweep must cross separation work

    auto& reg = support::FaultRegistry::instance();
    for (int hit = 1; hit <= 80; ++hit) {
        reg.configure("simplex.pivot:after=" + std::to_string(hit));
        const Solution s = solve_milp(m, base_opts);
        const std::string label = "fault at pivot " + std::to_string(hit);
        // Contract: a clean terminal status, never a crash or Infeasible.
        ASSERT_TRUE(s.status == SolveStatus::Optimal || s.status == SolveStatus::Limit)
            << label;
        // The incumbent survives: at worst the warm start (objective 0).
        ASSERT_FALSE(s.values.empty()) << label;
        EXPECT_TRUE(m.is_feasible(s.values, 1e-6)) << label;
        EXPECT_GE(s.objective, -1e-9) << label;
        if (s.status == SolveStatus::Limit) {
            EXPECT_NE(s.error, support::Errc::None) << label;
        } else {
            EXPECT_NEAR(s.objective, clean.objective, 1e-6) << label;
        }
        // The reported root bound stays a bound (≥ the true optimum) and,
        // whenever any cut round was committed, is at least as strong as
        // the pre-cut relaxation — the "post-cut bound" half of the fix.
        EXPECT_GE(s.root_bound, clean.objective - 1e-6) << label;
        if (!s.cuts.empty()) {
            EXPECT_LE(s.root_bound, precut_bound + 1e-6) << label;
            EXPECT_EQ(s.root_duals.size(),
                      static_cast<std::size_t>(m.num_constraints()) + s.cuts.size())
                << label;
        }
        // No half-certified garbage rides out: every shipped cut verifies.
        std::vector<CertifiedCut> prior;
        for (const CertifiedCut& cut : s.cuts) {
            EXPECT_EQ(audit::verify_cut(m, prior, cut), std::nullopt)
                << label << ": " << cut.name;
            prior.push_back(cut);
        }
    }
    reg.clear();
}

TEST(Cuts, ExpiredDeadlineReturnsLimitWithWarmIncumbent) {
    const Model m = gap_model();
    SolveOptions o;
    o.warm_start.assign(static_cast<std::size_t>(m.num_vars()), 0.0);
    o.deadline = support::Deadline::after_seconds(0.0);
    const Solution s = solve_milp(m, o);
    EXPECT_EQ(s.status, SolveStatus::Limit);
    EXPECT_EQ(s.error, support::Errc::DeadlineExceeded);
    ASSERT_FALSE(s.values.empty());
    EXPECT_TRUE(m.is_feasible(s.values, 1e-6));
    EXPECT_NEAR(s.objective, 0.0, 1e-9);  // the warm start, kept
}

TEST(Cuts, TailingOffStopsBoundNeutralSeparation) {
    // A model whose relaxation is already integral at the root must not
    // accumulate bound-neutral cuts: the loop exits with an empty pool.
    Model m;
    const Var x = m.add_integer("x", 0, 5);
    const Var y = m.add_integer("y", 0, 5);
    m.add_le(LinExpr().add(x, 1).add(y, 1), 7, "row");
    m.set_objective(LinExpr().add(x, 2).add(y, 1));
    SolveOptions o;
    const Solution s = solve_milp(m, o);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 12.0, 1e-6);
    EXPECT_TRUE(s.cuts.empty());
}

}  // namespace
}  // namespace p4all::ilp
