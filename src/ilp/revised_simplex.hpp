// Sparse revised simplex for LP relaxations.
//
// Same contract as solve_lp (simplex.hpp): bounded-variable two-phase primal
// simplex in the maximize convention, per-call bound overrides, deterministic
// cost perturbation with an exactly-accounted bound budget, Devex-style
// pricing with a Bland's-rule anti-cycling fallback, cooperative deadlines,
// and maximize-convention duals for the audit layer's weak-duality
// certificate. The difference is purely mechanical: instead of carrying an
// m×n dense tableau and eliminating a full column per pivot, the constraint
// matrix lives in CSC form (sparse.hpp) and the basis in LU + eta-file
// factors, so each iteration costs O(nnz + m²) instead of O(m·n) — the gap
// that makes unrolled NetCache/ConQuest models solve in milliseconds rather
// than seconds.
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

/// Which LP implementation services a relaxation solve. Both satisfy the
/// LpResult contract (values, duals, bound, bound_slack), so callers —
/// branch-and-bound above all — are backend-agnostic.
enum class LpBackend {
    Dense,   // bounded-variable dense tableau (simplex.cpp)
    Sparse,  // revised simplex over CSC + eta-file (this header)
};

/// Solves the LP relaxation with the sparse revised simplex. Same semantics
/// as solve_lp; `lb`/`ub` override model bounds when non-null.
[[nodiscard]] LpResult solve_lp_sparse(const Model& model,
                                       const std::vector<double>* lb = nullptr,
                                       const std::vector<double>* ub = nullptr,
                                       const LpOptions& options = {});

/// Backend dispatch: the one entry point branch-and-bound and the resilient
/// portfolio use, so root duals / bound slack flow through the same
/// interface no matter which simplex produced them.
[[nodiscard]] LpResult solve_lp_with(LpBackend backend, const Model& model,
                                     const std::vector<double>* lb = nullptr,
                                     const std::vector<double>* ub = nullptr,
                                     const LpOptions& options = {});

}  // namespace p4all::ilp
