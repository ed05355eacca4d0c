// Sparse revised simplex for LP relaxations.
//
// The one LP engine (types in simplex.hpp): bounded-variable two-phase
// primal simplex in the maximize convention, per-call bound overrides,
// deterministic cost perturbation with an exactly-accounted bound budget,
// Devex-style pricing with a Bland's-rule anti-cycling fallback, a
// warm-started dual simplex for branch-and-bound children, cooperative
// deadlines, and maximize-convention duals for the audit layer's
// weak-duality certificate. The constraint matrix lives in CSC form
// (sparse.hpp) and the basis in LU + eta-file factors, so each iteration
// costs O(nnz + m²) instead of a dense tableau's O(m·n).
//
// Determinism: for a fixed model, bounds, and options the pivot sequence is
// a pure function of the inputs (no randomness beyond the seeded, logged
// cost perturbation), so every solve replays bit-for-bit — the property the
// parallel branch-and-bound's thread-count-independence proof rests on.
#pragma once

#include <vector>

#include "ilp/model.hpp"
#include "ilp/simplex.hpp"

namespace p4all::ilp {

/// Solves the LP relaxation (integrality ignored). `lb`/`ub` override the
/// model bounds when non-null (size == model.num_vars()). All lower bounds
/// must be finite.
[[nodiscard]] LpResult solve_lp_sparse(const Model& model,
                                       const std::vector<double>* lb = nullptr,
                                       const std::vector<double>* ub = nullptr,
                                       const LpOptions& options = {});

}  // namespace p4all::ilp
