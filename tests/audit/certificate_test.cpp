#include "audit/certificate.hpp"

#include <gtest/gtest.h>

#include "ilp/solver.hpp"

namespace p4all::audit {
namespace {

using ilp::kInfinity;
using ilp::LinExpr;
using ilp::LpResult;
using ilp::LpStatus;
using ilp::Model;
using ilp::Var;
using support::Rat;

// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0. Optimum 12 at (4, 0)
// with optimal dual y* = (3, 0).
Model simple_lp() {
    Model m;
    const Var x = m.add_continuous("x", 0, kInfinity);
    const Var y = m.add_continuous("y", 0, kInfinity);
    m.add_le(LinExpr().add(x, 1).add(y, 1), 4);
    m.add_le(LinExpr().add(x, 1).add(y, 3), 6);
    m.set_objective(LinExpr().add(x, 3).add(y, 2));
    return m;
}

TEST(Certificate, EvaluateExactSumsTermsAndConstant) {
    Model m;
    const Var x = m.add_continuous("x", 0, 10);
    const Var y = m.add_continuous("y", 0, 10);
    LinExpr e;
    e.add(x, 0.5).add(y, -2);
    const std::vector<Rat> vals = {Rat::from_double(0.25), Rat(3)};
    EXPECT_EQ(evaluate_exact(e, vals), Rat::from_double(0.125) - Rat(6));
}

TEST(Certificate, EvaluateExactHasNoFloatResidual) {
    // 0.1·1 + 0.2·1 evaluated exactly is the sum of the stored dyadics —
    // distinguishable from the double 0.3, which a float evaluator could not do.
    Model m;
    const Var x = m.add_continuous("x", 0, 1);
    const Var y = m.add_continuous("y", 0, 1);
    LinExpr e;
    e.add(x, 0.1).add(y, 0.2);
    const std::vector<Rat> ones = {Rat(1), Rat(1)};
    EXPECT_NE(evaluate_exact(e, ones), Rat::from_double(0.3));
    EXPECT_EQ(evaluate_exact(e, ones), Rat::from_double(0.1) + Rat::from_double(0.2));
}

TEST(Certificate, AcceptsOptimalIncumbentWithOptimalDuals) {
    const Model m = simple_lp();
    const CertificateReport r = check_certificate(m, {4.0, 0.0}, 12.0, {3.0, 0.0}, 0.0);
    EXPECT_TRUE(r.incumbent_ok());
    EXPECT_TRUE(r.feasible);
    EXPECT_TRUE(r.integral);
    EXPECT_TRUE(r.objective_matches);
    EXPECT_TRUE(r.has_certificate);
    EXPECT_TRUE(r.bound_finite);
    EXPECT_TRUE(r.bound_valid);
    EXPECT_EQ(r.clamped_duals, 0);
    EXPECT_NEAR(r.exact_objective, 12.0, 1e-12);
    EXPECT_NEAR(r.certified_bound, 12.0, 1e-8);
    EXPECT_NEAR(r.gap, 0.0, 1e-8);
}

TEST(Certificate, DetectsRowViolationExactly) {
    const Model m = simple_lp();
    const CertificateReport r = check_certificate(m, {5.0, 0.0}, 15.0, {}, 0.0);
    EXPECT_FALSE(r.feasible);
    ASSERT_FALSE(r.violations.empty());
    EXPECT_NE(r.violations.front().find("violates"), std::string::npos);
}

TEST(Certificate, DetectsBoundViolation) {
    Model m;
    const Var x = m.add_continuous("x", 0, 3);
    m.set_objective(LinExpr().add(x, 1));
    const CertificateReport r = check_certificate(m, {4.0}, 4.0, {}, 0.0);
    EXPECT_FALSE(r.feasible);
}

TEST(Certificate, DetectsFractionalIntegerVariable) {
    Model m;
    const Var n = m.add_integer("n", 0, 10);
    m.add_le(LinExpr().add(n, 1), 10);
    m.set_objective(LinExpr().add(n, 1));
    const CertificateReport r = check_certificate(m, {3.5}, 3.5, {}, 0.0);
    EXPECT_TRUE(r.feasible);
    EXPECT_FALSE(r.integral);
    EXPECT_FALSE(r.incumbent_ok());
}

TEST(Certificate, DetectsClaimedObjectiveMismatch) {
    const Model m = simple_lp();
    const CertificateReport r = check_certificate(m, {4.0, 0.0}, 13.0, {}, 0.0);
    EXPECT_TRUE(r.feasible);
    EXPECT_FALSE(r.objective_matches);
}

TEST(Certificate, ClampsWrongSignedDualsAndStaysValid) {
    // max x s.t. x + y = 5, x >= 2, y >= 1. Optimum 4 at (4, 1); optimal
    // dual is (1, 0, -1). Feed a positive dual on the Ge row: it must be
    // clamped to zero, after which the remaining certificate still binds.
    Model m;
    const Var x = m.add_continuous("x", 0, kInfinity);
    const Var y = m.add_continuous("y", 0, kInfinity);
    m.add_eq(LinExpr().add(x, 1).add(y, 1), 5);
    m.add_ge(LinExpr().add(x, 1), 2);
    m.add_ge(LinExpr().add(y, 1), 1);
    m.set_objective(LinExpr().add(x, 1));
    const CertificateReport r = check_certificate(m, {4.0, 1.0}, 4.0, {1.0, 0.5, -1.0}, 0.0);
    EXPECT_TRUE(r.incumbent_ok());
    EXPECT_TRUE(r.has_certificate);
    EXPECT_EQ(r.clamped_duals, 1);
    EXPECT_TRUE(r.bound_valid);
    EXPECT_NEAR(r.certified_bound, 4.0, 1e-8);
}

TEST(Certificate, RefutesInflatedIncumbentViaWeakDuality) {
    // max x, x <= 4, x in [0, 10]. Dual y = 1 certifies U = 4; an incumbent
    // claiming x = 6 is refuted by the bound (and by row feasibility).
    Model m;
    const Var x = m.add_continuous("x", 0, 10);
    m.add_le(LinExpr().add(x, 1), 4);
    m.set_objective(LinExpr().add(x, 1));
    const CertificateReport r = check_certificate(m, {6.0}, 6.0, {1.0}, 0.0);
    EXPECT_FALSE(r.feasible);
    EXPECT_TRUE(r.has_certificate);
    EXPECT_FALSE(r.bound_valid);
    EXPECT_FALSE(r.bound_violation.empty());
    EXPECT_NEAR(r.certified_bound, 4.0, 1e-8);
}

TEST(Certificate, InfiniteBoundIsReportedNotMisjudged) {
    // Zero duals leave a positive reduced cost on an unbounded variable: the
    // certified bound is +inf — reported as non-finite, never as a violation.
    Model m;
    const Var x = m.add_continuous("x", 0, kInfinity);
    m.add_le(LinExpr().add(x, 1), 4);
    m.set_objective(LinExpr().add(x, 1));
    const CertificateReport r = check_certificate(m, {4.0}, 4.0, {0.0}, 0.0);
    EXPECT_TRUE(r.incumbent_ok());
    EXPECT_TRUE(r.has_certificate);
    EXPECT_FALSE(r.bound_finite);
    EXPECT_TRUE(r.bound_valid);
    ASSERT_FALSE(r.certificate_notes.empty());
}

TEST(Certificate, MismatchedDualAritySkipsCertificate) {
    const Model m = simple_lp();
    const CertificateReport r = check_certificate(m, {4.0, 0.0}, 12.0, {3.0}, 0.0);
    EXPECT_TRUE(r.incumbent_ok());
    EXPECT_FALSE(r.has_certificate);
    ASSERT_FALSE(r.certificate_notes.empty());
}

TEST(Certificate, RejectsWrongIncumbentArity) {
    const Model m = simple_lp();
    const CertificateReport r = check_certificate(m, {4.0}, 12.0, {}, 0.0);
    EXPECT_FALSE(r.feasible);
}

// --- Duality-gap validation of solver-produced certificates ---------------

void expect_solver_certificate_valid(const Model& m) {
    const LpResult r = ilp::solve_lp_sparse(m);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    ASSERT_EQ(r.duals.size(), m.constraints().size());
    const CertificateReport rep =
        check_certificate(m, r.values, r.objective, r.duals, r.bound_slack);
    EXPECT_TRUE(rep.incumbent_ok()) << "violations: "
                                    << (rep.violations.empty() ? "" : rep.violations.front());
    EXPECT_TRUE(rep.has_certificate);
    EXPECT_TRUE(rep.bound_finite);
    EXPECT_TRUE(rep.bound_valid) << rep.bound_violation;
    // The gap may only be solver noise plus the perturbation budget.
    EXPECT_LE(rep.gap, r.bound_slack + 1e-5);
}

TEST(Certificate, SolverDualsCertifyInequalityLp) { expect_solver_certificate_valid(simple_lp()); }

TEST(Certificate, SolverDualsCertifyMixedSenseLp) {
    Model m;
    const Var x = m.add_continuous("x", 0, 10);
    const Var y = m.add_continuous("y", 0, 10);
    const Var z = m.add_continuous("z", 1, 6);
    m.add_le(LinExpr().add(x, 2).add(y, 1).add(z, 1), 14);
    m.add_ge(LinExpr().add(x, 1).add(y, -1), -2);
    m.add_eq(LinExpr().add(y, 1).add(z, 1), 7);
    m.set_objective(LinExpr().add(x, 2).add(y, 3).add(z, 1));
    expect_solver_certificate_valid(m);
}

TEST(Certificate, SolverDualsCertifyDegenerateLp) {
    Model m;
    const Var x = m.add_continuous("x", 0, kInfinity);
    const Var y = m.add_continuous("y", 0, kInfinity);
    const Var z = m.add_continuous("z", 0, kInfinity);
    m.add_le(LinExpr().add(x, 0.5).add(y, -5.5).add(z, -2.5), 0);
    m.add_le(LinExpr().add(x, 0.5).add(y, -1.5).add(z, -0.5), 0);
    m.add_le(LinExpr().add(x, 1), 1);
    m.set_objective(LinExpr().add(x, 10).add(y, -57).add(z, -9));
    expect_solver_certificate_valid(m);
}

TEST(Certificate, SolverDualsCertifyFractionalCoefficientLp) {
    Model m;
    const Var a = m.add_continuous("a", 0, 100);
    const Var b = m.add_continuous("b", 0, 100);
    m.add_le(LinExpr().add(a, 0.1).add(b, 0.2), 7);
    m.add_le(LinExpr().add(a, 1.0 / 3.0).add(b, 0.25), 11);
    m.set_objective(LinExpr().add(a, 1.5).add(b, 2.5));
    expect_solver_certificate_valid(m);
}

}  // namespace
}  // namespace p4all::audit
