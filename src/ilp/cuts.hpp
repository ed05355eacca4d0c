// Certified cutting planes for the branch-and-bound root.
//
// Two families attack the root integrality gap of placement MILPs:
//
//  * Chvátal–Gomory fractional cuts, seeded by the tableau row of a
//    fractional basic integer variable (LpOptions::gomory_probe). The float
//    multipliers are only a heuristic suggestion: the cut itself is rebuilt
//    from quantized exact rationals, so validity — "no integer-feasible
//    point is ever removed" — holds by construction, independent of solver
//    floating point.
//
//  * Knapsack cover cuts on nonnegative Le rows with binary variables: a
//    set C whose coefficients exactly exceed the rhs cannot be all-ones, so
//    Σ_C x_j ≤ |C|−1.
//
// Every cut carries a machine-checkable certificate (the exact multipliers
// / the cover set) that rides through CompileArtifacts; the audit layer
// re-derives the aggregation in its own rational arithmetic and rejects
// forged, tampered, or misrounded cuts (src/audit/cuts.cpp).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ilp/model.hpp"
#include "ilp/simplex.hpp"
#include "support/rational.hpp"

namespace p4all::ilp {

/// Validity proof of one cut, checkable in exact arithmetic against the
/// original model only (node bounds never enter: cuts are globally valid).
struct CutCertificate {
    enum class Kind { Gomory, Cover };

    /// One bound-row term of a Gomory aggregation: adds mult·(x_var ≤ ub)
    /// when `upper`, else mult·(−x_var ≤ −lb); mult ≥ 0.
    struct BoundMult {
        int var = -1;
        bool upper = false;
        support::Rat mult;
    };

    Kind kind = Kind::Gomory;
    /// Gomory: sign-constrained aggregation multipliers, sparse over the
    /// extended row space — model rows first, then previously derived cuts
    /// in Solution::cuts order (later cuts may aggregate earlier ones, so
    /// the audit verifies cuts in sequence). Sign rules: ≥ 0 on Le rows,
    /// ≤ 0 on Ge rows, free on Eq rows.
    std::vector<std::pair<int, support::Rat>> row_mult;
    /// Gomory: bound substitutions used to eliminate variables that cannot
    /// legally be floored (continuous type or negative lower bound).
    std::vector<BoundMult> bound_mult;
    /// Cover: the source row (extended space) and the cover variable set.
    int cover_row = -1;
    std::vector<int> cover_vars;
};

/// A globally valid inequality expr ≤ rhs: every integer-feasible point of
/// the model satisfies it (the LP relaxation generally does not — that is
/// the point). expr has constant 0 and integer coefficients on
/// integer-typed variables with nonnegative lower bounds.
struct CertifiedCut {
    LinExpr expr;
    double rhs = 0.0;
    CutCertificate cert;
    std::string name;
};

struct CutLimits {
    int max_rounds = 8;
    int max_per_round = 16;
    int max_total = 64;
    /// Minimum violation g·x* − g0 at the current LP point for a cut to be
    /// worth pooling.
    double min_violation = 1e-4;
    /// Tailing-off guard: separation stops once a round's cuts improve the
    /// root bound by less than this fraction of |bound| (cuts that merely
    /// chase the LP vertex around a degenerate face cost a full re-solve
    /// per round and win nothing for the search).
    double min_round_improvement = 1e-6;
};

/// Builds an exact Chvátal–Gomory cut from float multiplier suggestions
/// (`mult`, sized model rows + prior cuts). Returns nullopt when the cut
/// cannot be made valid (needed bounds infinite, rational overflow) or is
/// not violated by `point` by at least `min_violation`.
[[nodiscard]] std::optional<CertifiedCut> build_gomory_cut(
    const Model& model, const std::vector<CertifiedCut>& prior,
    const std::vector<double>& mult, const std::vector<double>& point, double min_violation);

/// Builds a cover cut from model row `row` (extended space index allowed,
/// but separation only proposes original rows). Greedy cover by descending
/// LP value. Returns nullopt when the row does not qualify or the cut is
/// not violated.
[[nodiscard]] std::optional<CertifiedCut> build_cover_cut(const Model& model,
                                                          const std::vector<CertifiedCut>& prior,
                                                          int row, const std::vector<double>& point,
                                                          double min_violation);

/// One separation round at LP point `point`: Gomory cuts from the tableau
/// probe plus cover cuts from qualifying
/// rows, deduplicated against `prior` and each other, capped by `limits`
/// (`total_so_far` counts cuts already pooled). Deterministic: output order
/// is a pure function of the inputs.
[[nodiscard]] std::vector<CertifiedCut> separate_cuts(const Model& model,
                                                      const std::vector<CertifiedCut>& prior,
                                                      const std::vector<double>& point,
                                                      const std::vector<TableauRow>& probe,
                                                      const CutLimits& limits, int total_so_far);

}  // namespace p4all::ilp
