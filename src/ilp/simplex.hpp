// Shared LP types: the status, result, options and basis contract of the
// simplex engine (revised_simplex.hpp) that branch-and-bound, the cut loop
// and the audit layer exchange.
#pragma once

#include <cstdint>
#include <vector>

#include "ilp/model.hpp"
#include "support/deadline.hpp"
#include "support/error.hpp"

namespace p4all::ilp {

enum class LpStatus { Optimal, Infeasible, Unbounded, IterLimit };

/// A captured simplex basis: for each standard-form row the basic column
/// index, plus the nonbasic-at-upper flag of every standard-form column.
/// Column identities live in the engine's standard form (structurals, then
/// slacks, then artificials), so a basis is only meaningful when re-imported
/// for the same model —
/// possibly with different variable bounds, which is exactly the
/// branch-and-bound warm-start case: a child differs from its parent by one
/// bound, the parent's optimal basis stays dual-feasible, and the dual
/// simplex repairs primal feasibility in a handful of pivots.
struct SimplexBasis {
    std::vector<int> basic;               // standard-form row -> basic column
    std::vector<std::uint8_t> at_upper;   // standard-form column -> at upper bound
    /// Where the artificial block started when this basis was captured.
    /// Lets a later import remap column identities after rows were APPENDED
    /// to the model (the root cut loop): structural and slack indices are
    /// stable under row appends, artificials shift as a block. −1 on a
    /// default-constructed basis (import then requires an exact shape match).
    int artificial_start = -1;
    [[nodiscard]] bool empty() const noexcept { return basic.empty(); }
};

/// Raw material for deriving one Gomory fractional cut: the tableau-row
/// multipliers of a basic structural variable with fractional value, mapped
/// back to original model rows (folded singleton rows get multiplier 0).
/// These are heuristic float suggestions only — the cut itself is rebuilt in
/// exact rational arithmetic by ilp/cuts.cpp, so nothing downstream depends
/// on their accuracy.
struct TableauRow {
    int var = -1;               // model variable id (basic and fractional)
    double value = 0.0;         // its value in the optimal solution
    std::vector<double> mult;   // one multiplier per model constraint row
};

struct LpResult {
    LpStatus status = LpStatus::IterLimit;
    double objective = 0.0;
    /// Valid upper bound on the true LP optimum: `objective` plus the exact
    /// cost-perturbation budget (== objective when perturbation is off).
    /// Branch-and-bound must prune against this, not `objective`.
    double bound = 0.0;
    std::vector<double> values;  // indexed by model variable id
    /// Dual multipliers, one per model constraint row, in the maximize
    /// convention: y ≥ 0 for Le rows, y ≤ 0 for Ge rows, free for Eq rows.
    /// Any sign-correct vector certifies the upper bound
    ///   Σ y_i·rhs_i + Σ_j max(d_j·lb_j, d_j·ub_j),  d_j = c_j − Σ_i y_i·A_ij,
    /// which the audit layer re-derives in exact rational arithmetic
    /// (audit/certificate.hpp). Empty unless status == Optimal.
    std::vector<double> duals;
    /// Exact objective error budget of the deterministic cost perturbation
    /// (== bound − objective; kept separately so certificate checks need not
    /// reconstruct it from two rounded doubles).
    double bound_slack = 0.0;
    int iterations = 0;
    /// True when IterLimit was caused by the deadline/cancellation rather
    /// than the iteration budget.
    bool deadline_hit = false;
    /// Structured diagnostic for non-Optimal statuses: DeadlineExceeded /
    /// Cancelled / ResourceLimit / NumericalTrouble (detected or injected).
    support::Errc error = support::Errc::None;
};

struct LpOptions {
    int max_iterations = 0;  // 0 ⇒ automatic (scales with model size)
    double tol = 1e-9;
    /// Deterministic cost perturbation scale. Placement LPs have huge
    /// optimal faces (stage symmetry); a tiny per-column cost tilt collapses
    /// the face to a vertex and avoids degenerate crawling. The induced
    /// bound error is accounted exactly in LpResult::bound. 0 disables.
    double perturbation = 1e-7;
    /// Extra entropy mixed into the deterministic perturbation: restarting a
    /// numerically stuck solve with a different seed tilts the face along a
    /// different direction. 0 reproduces the historical tilt; every value is
    /// fully reproducible (log the seed, replay the solve).
    std::uint64_t perturb_seed = 0;
    /// Run Bland's rule from the first iteration instead of engaging it only
    /// after a degenerate stall — slower but cycle-proof; the fallback
    /// driver's restart profile.
    bool force_bland = false;
    /// Cooperative wall-clock budget, polled inside the iteration loop (so a
    /// single long solve cannot overshoot a caller's time limit). Expiry
    /// returns IterLimit with deadline_hit set.
    support::Deadline deadline;
    /// Warm-start basis. Installed before phase 1; when it proves
    /// dual-feasible under the current costs, the dual simplex restores
    /// primal feasibility directly and phase 1 is skipped entirely. A basis
    /// that fails to factorize or is not dual-feasible falls back to the
    /// cold two-phase path — a warm start can never change the result, only
    /// the route to it.
    const SimplexBasis* warm_basis = nullptr;
    /// When non-null and the solve ends Optimal, the optimal basis is
    /// written here for reuse by child nodes.
    SimplexBasis* capture_basis = nullptr;
    /// Frozen reference bounds for the deterministic cost perturbation
    /// (size == model.num_vars() when set). The perturbation magnitude is
    /// derived from these spans instead of the per-call bounds, making the
    /// perturbed cost vector constant across an entire branch-and-bound tree
    /// — the invariant that keeps a parent's optimal basis dual-feasible in
    /// its children. The exact bound_slack accounting still uses the
    /// per-call spans (which only shrink under branching), so LpResult::bound
    /// stays a valid upper bound at every node.
    const std::vector<double>* perturb_ref_lb = nullptr;
    const std::vector<double>* perturb_ref_ub = nullptr;
    /// When non-null and the solve ends Optimal, the engine deposits one
    /// TableauRow per fractional basic integer-typed structural variable
    /// (cut separation input).
    std::vector<TableauRow>* gomory_probe = nullptr;
    /// When non-null, the engine appends the (scaled, perturbed,
    /// minimize-form) objective value after every dual simplex pivot — the
    /// dual_simplex_test property suite asserts this sequence is monotone
    /// nondecreasing (equivalently: the certified upper bound on the true
    /// maximum never increases while dual feasibility is maintained).
    std::vector<double>* dual_pivot_trace = nullptr;
};

}  // namespace p4all::ilp
