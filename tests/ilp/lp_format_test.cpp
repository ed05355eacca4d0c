#include "ilp/lp_format.hpp"

#include <gtest/gtest.h>

#include "ilp/solver.hpp"
#include "support/rng.hpp"

namespace p4all::ilp {
namespace {

TEST(LpFormat, ParsesHandWrittenModel) {
    const char* text = R"(Maximize
 obj: 3 x + 2 y
Subject To
 c0: x + y <= 4
 c1: x + 3 y <= 6
Bounds
 0 <= x
 0 <= y
End
)";
    const Model m = parse_lp_format(text);
    EXPECT_EQ(m.num_vars(), 2);
    EXPECT_EQ(m.num_constraints(), 2);
    const LpResult r = solve_lp_sparse(m);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.objective, 12.0, 1e-6);
}

TEST(LpFormat, MinimizeNegatesIntoMaximizeConvention) {
    const char* text = R"(Minimize
 obj: x
Subject To
 c0: x >= 3
Bounds
 0 <= x
End
)";
    const Model m = parse_lp_format(text);
    const LpResult r = solve_lp_sparse(m);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    // Internally maximize(-x): optimum at x = 3.
    EXPECT_NEAR(r.values[0], 3.0, 1e-6);
}

TEST(LpFormat, BinariesAndGenerals) {
    const char* text = R"(Maximize
 obj: 2 a + b
Subject To
 c0: a + b <= 3
Bounds
 0 <= a
 0 <= b <= 8
Generals
 b
Binaries
 a
End
)";
    const Model m = parse_lp_format(text);
    EXPECT_EQ(m.var_type(0), VarType::Binary);
    EXPECT_EQ(m.var_type(1), VarType::Integer);
    const Solution s = solve_milp(m);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, 2 * 1 + 2, 1e-6);
}

TEST(LpFormat, RejectsMalformedInput) {
    EXPECT_THROW((void)parse_lp_format("Subject To\n x + <= 3\nEnd\n"), std::runtime_error);
    EXPECT_THROW((void)parse_lp_format("Subject To\n c: x 3\nEnd\n"), std::runtime_error);
    EXPECT_THROW((void)parse_lp_format("x + y <= 1\n"), std::runtime_error);
}

/// Structural round-trip: dump(model) reparsed reproduces every variable
/// (name, type, bounds), every row (name, sense, rhs, term-by-term
/// coefficients), and the objective identically — not just the same optimum.
/// Coefficients are decimal-exact so the writer's %.9g rendering is lossless.
TEST(LpFormat, StructuralRoundTripIdentity) {
    Model m;
    const Var x = m.add_binary("x_a_0");
    const Var n = m.add_integer("n_elems", 1, 2048);
    const Var e = m.add_continuous("e_row", 0, kInfinity);
    m.add_le(LinExpr().add(x, 32).add(e, 1.5), 2048, "mem_stage0");
    m.add_ge(LinExpr().add(n, 1).add(e, -0.5), -4, "rowlink");
    m.add_eq(LinExpr().add(x, 1), 1, "place_once");
    m.set_objective(LinExpr().add(n, 0.25).add(x, 3));

    const Model back = parse_lp_format(m.to_lp_format());

    ASSERT_EQ(back.num_vars(), m.num_vars());
    for (int j = 0; j < m.num_vars(); ++j) {
        EXPECT_EQ(back.var_name(j), m.var_name(j)) << "var " << j;
        EXPECT_EQ(back.var_type(j), m.var_type(j)) << "var " << j;
        EXPECT_EQ(back.lower_bound(j), m.lower_bound(j)) << "var " << j;
        EXPECT_EQ(back.upper_bound(j), m.upper_bound(j)) << "var " << j;
    }

    ASSERT_EQ(back.num_constraints(), m.num_constraints());
    const auto& rows = m.constraints();
    const auto& back_rows = back.constraints();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(back_rows[i].name, rows[i].name) << "row " << i;
        EXPECT_EQ(back_rows[i].sense, rows[i].sense) << "row " << i;
        EXPECT_EQ(back_rows[i].rhs, rows[i].rhs) << "row " << i;
        ASSERT_EQ(back_rows[i].expr.terms().size(), rows[i].expr.terms().size())
            << "row " << i;
        for (std::size_t t = 0; t < rows[i].expr.terms().size(); ++t) {
            EXPECT_EQ(back_rows[i].expr.terms()[t].first, rows[i].expr.terms()[t].first)
                << "row " << i << " term " << t;
            EXPECT_EQ(back_rows[i].expr.terms()[t].second, rows[i].expr.terms()[t].second)
                << "row " << i << " term " << t;
        }
    }

    ASSERT_EQ(back.objective().terms().size(), m.objective().terms().size());
    for (std::size_t t = 0; t < m.objective().terms().size(); ++t) {
        EXPECT_EQ(back.objective().terms()[t].first, m.objective().terms()[t].first);
        EXPECT_EQ(back.objective().terms()[t].second, m.objective().terms()[t].second);
    }
}

/// Round-trip property: dump(model) reparsed solves to the same optimum.
class LpRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(LpRoundTrip, DumpReparsesToEquivalentModel) {
    support::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 48271 + 11);
    Model m;
    std::vector<Var> vars;
    const int n = 2 + static_cast<int>(rng.next_below(5));
    for (int j = 0; j < n; ++j) {
        switch (rng.next_below(3)) {
            case 0: vars.push_back(m.add_binary("b" + std::to_string(j))); break;
            case 1: vars.push_back(m.add_integer("i" + std::to_string(j), 0, 4)); break;
            default: vars.push_back(m.add_continuous("c" + std::to_string(j), 0, 9)); break;
        }
    }
    const int rows = 1 + static_cast<int>(rng.next_below(4));
    for (int k = 0; k < rows; ++k) {
        LinExpr e;
        for (const Var v : vars) {
            const int coeff = static_cast<int>(rng.next_below(7)) - 3;
            if (coeff != 0) e.add(v, coeff);
        }
        const double rhs = static_cast<double>(rng.next_below(10));
        if (rng.next_below(3) == 0) {
            m.add_ge(std::move(e), rhs);
        } else {
            m.add_le(std::move(e), rhs);
        }
    }
    LinExpr obj;
    for (const Var v : vars) obj.add(v, static_cast<double>(rng.next_below(9)) - 2.0);
    m.set_objective(obj);

    const Model back = parse_lp_format(m.to_lp_format());
    ASSERT_EQ(back.num_vars(), m.num_vars());
    ASSERT_EQ(back.num_constraints(), m.num_constraints());

    const Solution a = solve_milp(m);
    const Solution b = solve_milp(back);
    ASSERT_EQ(a.optimal(), b.optimal());
    if (a.optimal()) {
        EXPECT_NEAR(a.objective, b.objective, 1e-5) << m.to_lp_format();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpRoundTrip, ::testing::Range(0, 40));

}  // namespace
}  // namespace p4all::ilp
