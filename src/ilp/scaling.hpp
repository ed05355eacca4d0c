// Geometric-mean equilibration for the simplex standard form.
//
// Placement LPs mix O(1) utility rows with memory rows whose coefficients
// and bounds reach ~10^6 (register widths × max array sizes). The simplex
// prices and pivots with absolute tolerances, which is only sound when the
// matrix is roughly equilibrated: on raw netcache-scale data the basis
// accumulates enough error after a few hundred pivots that truly-improving
// columns price as non-improving and the solver declares a premature
// optimum. Scaling row i by ρ_i and structural column j by s_j
// (both positive powers of two, so the scaling itself introduces **zero**
// floating-point rounding) brings every entry near 1; the solve runs on the
// scaled problem and the caller maps the result back:
//
//   x_j = s_j·ŷ_j + lb_j        (column scale changes the variable's unit)
//   y_i = ρ_i·ŷ_i               (row scale changes the dual's unit)
//   objective, reduced-cost signs, and the perturbation budget are unchanged
//   (ĉ_j = s_j·c_j, so ĉᵀŷ = cᵀy term-by-term).
//
// The scheme is the classic alternating geometric-mean pass (rows then
// columns, twice), with each factor rounded to the nearest power of two and
// the exponent clamped to ±24. It is a pure function of the constraint
// matrix — bounds and objective do not influence it — so branch-and-bound
// re-solves with tightened bounds see identical scale factors at every node.
#pragma once

#include <cmath>
#include <cstdlib>
#include <utility>
#include <vector>

namespace p4all::ilp {

struct Equilibration {
    std::vector<double> row;  // multiply row i by row[i]
    std::vector<double> col;  // multiply structural column j by col[j]
};

/// Nearest power of two to `x` (x > 0), exponent clamped to ±24.
inline double pow2_round(double x) {
    const double e = std::round(std::log2(x));
    const double clamped = e < -24.0 ? -24.0 : (e > 24.0 ? 24.0 : e);
    return std::exp2(clamped);
}

/// Computes row/column scale factors for the matrix given as per-row term
/// lists (column id, coefficient); `num_cols` is the structural column
/// count. Rows or columns with no nonzero entries keep scale 1.
inline Equilibration equilibrate(
    const std::vector<std::vector<std::pair<int, double>>>& rows, int num_cols,
    int sweeps = 2) {
    Equilibration eq;
    eq.row.assign(rows.size(), 1.0);
    eq.col.assign(static_cast<std::size_t>(num_cols), 1.0);
    for (int sweep = 0; sweep < sweeps; ++sweep) {
        for (std::size_t i = 0; i < rows.size(); ++i) {
            double amin = 0.0, amax = 0.0;
            for (const auto& [j, a] : rows[i]) {
                const double v = std::abs(a) * eq.col[static_cast<std::size_t>(j)];
                if (v == 0.0) continue;
                if (amax == 0.0) {
                    amin = amax = v;
                } else {
                    amin = std::min(amin, v);
                    amax = std::max(amax, v);
                }
            }
            if (amax > 0.0) eq.row[i] = pow2_round(1.0 / std::sqrt(amin * amax));
        }
        // Column pass over the row-scaled entries.
        std::vector<double> cmin(static_cast<std::size_t>(num_cols), 0.0);
        std::vector<double> cmax(static_cast<std::size_t>(num_cols), 0.0);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            for (const auto& [j, a] : rows[i]) {
                const double v = std::abs(a) * eq.row[i];
                if (v == 0.0) continue;
                const std::size_t js = static_cast<std::size_t>(j);
                if (cmax[js] == 0.0) {
                    cmin[js] = cmax[js] = v;
                } else {
                    cmin[js] = std::min(cmin[js], v);
                    cmax[js] = std::max(cmax[js], v);
                }
            }
        }
        for (std::size_t j = 0; j < eq.col.size(); ++j) {
            if (cmax[j] > 0.0) eq.col[j] = pow2_round(1.0 / std::sqrt(cmin[j] * cmax[j]));
        }
    }
    return eq;
}

}  // namespace p4all::ilp
