// MILP solving: branch-and-bound over the simplex relaxation, plus an
// exhaustive reference solver used to cross-validate on small models.
// This stack replaces the Gurobi optimizer used by the paper's prototype.
#pragma once

#include <cstdint>
#include <string>

#include "ilp/cuts.hpp"
#include "ilp/model.hpp"
#include "ilp/revised_simplex.hpp"
#include "ilp/simplex.hpp"
#include "support/deadline.hpp"
#include "support/error.hpp"

namespace p4all::ilp {

enum class SolveStatus { Optimal, Infeasible, Unbounded, Limit };

struct Solution {
    SolveStatus status = SolveStatus::Limit;
    double objective = 0.0;
    std::vector<double> values;  // indexed by model variable id

    /// Root-relaxation certificate: the duals of the root LP (maximize
    /// convention, one per model constraint) and the perturbation budget of
    /// that solve. Any sign-correct dual vector witnesses a global upper
    /// bound on the MILP optimum; the audit layer re-derives that bound in
    /// exact rational arithmetic and checks it against the incumbent
    /// (audit/certificate.hpp). Empty when the root LP was not solved to
    /// optimality.
    /// One entry per model constraint, then one per entry of `cuts` (the
    /// root certificate is taken over the cut-extended root relaxation).
    std::vector<double> root_duals;
    double root_bound = 0.0;        // solver's float view of the root bound
    double root_bound_slack = 0.0;  // root LP perturbation budget

    /// Cutting planes active in the root relaxation that produced
    /// root_duals, in derivation order, each with its exact-rational
    /// validity certificate. The audit layer re-verifies every certificate
    /// independently and extends the model by the verified rows before
    /// re-deriving the weak-duality bound (src/audit/cuts.cpp).
    std::vector<CertifiedCut> cuts;

    // Statistics.
    std::int64_t nodes = 0;
    std::int64_t lp_iterations = 0;
    double seconds = 0.0;

    /// Structured diagnostic for Limit (and other non-Optimal) statuses:
    /// DeadlineExceeded / Cancelled / ResourceLimit / NumericalTrouble /
    /// DomainTooLarge, with a human-readable detail. None when Optimal.
    support::Errc error = support::Errc::None;
    std::string error_detail;

    [[nodiscard]] bool optimal() const noexcept { return status == SolveStatus::Optimal; }
    /// Rounded value of an integer/binary variable.
    [[nodiscard]] std::int64_t value_int(Var v) const;
};

struct SolveOptions {
    double time_limit_seconds = 120.0;
    std::int64_t max_nodes = 2'000'000;
    double int_tol = 1e-6;
    /// Optimality gap: a node is pruned when its bound is within
    /// max(gap_absolute, gap_relative·|incumbent|) of the incumbent.
    /// gap_relative is Gurobi's default MIPGap; it also absorbs the simplex
    /// cost-perturbation slack and the integer rounding of element counts
    /// (netcache's LP bound sits 2.3e-5 above its integral optimum), so
    /// proof trees close.
    double gap_absolute = 1e-5;
    double gap_relative = 1e-4;
    LpOptions lp;
    /// Worker threads for the node LPs of a batch. 0 picks the hardware
    /// concurrency. Results are identical for every value — threads only
    /// split the LP work inside a batch.
    int threads = 1;
    /// Optional known-feasible assignment (e.g. from a heuristic) used as
    /// the initial incumbent; ignored if it fails the feasibility check.
    std::vector<double> warm_start;
    /// Root cutting planes (certified Gomory + knapsack covers). When on,
    /// the root relaxation is tightened by separation rounds before
    /// branch-and-bound starts; every pooled cut carries an exact-rational
    /// validity certificate in Solution::cuts. Off restores the plain root
    /// relaxation (the portfolio's numerically-conservative rungs use this).
    bool cuts_enabled = true;
    CutLimits cut_limits;
    /// Warm-start each branch-and-bound child LP from its parent's optimal
    /// basis via dual simplex. A child differs from its parent by one
    /// variable bound, so the parent basis is dual-feasible and typically a
    /// handful of pivots from the child optimum. Never changes any result —
    /// only the route to it — so determinism and the differential oracle are
    /// preserved; off forces every node to solve from scratch.
    bool warm_start_lp = true;
    /// Cooperative wall-clock budget / cancellation, combined with
    /// time_limit_seconds (the tighter bound wins) and threaded into every
    /// LP solve so no single simplex run can overshoot it.
    support::Deadline deadline;
};

/// Exact branch-and-bound with deterministic parallel best-first search.
/// Nodes carry a global best-first order (bound desc, then newest-first so
/// bound plateaus are dived depth-first rather than swept breadth-first);
/// each round the engine pops a fixed-size batch, relaxes the batch's LPs on
/// a work-stealing std::jthread pool, and commits the results serially in
/// batch order (incumbent updates, pruning, branching). Because the batch
/// composition and the commit order depend only on the model — never on
/// thread timing — the search tree, the incumbent, the node count, and the
/// LP iteration total are bit-identical for any thread count, including 1.
///
/// Returns Optimal with the best solution, or Infeasible/Unbounded, or Limit
/// (with the incumbent, if any, in `values`).
[[nodiscard]] Solution solve_milp(const Model& model, const SolveOptions& options = {});

/// Reference solver: enumerates every integer assignment within bounds,
/// solving an LP for the continuous remainder. Exact but exponential —
/// tests and tiny-model fallback only. Unbounded integer domains or a
/// combination count above `max_combinations` yield SolveStatus::Limit with
/// error == Errc::DomainTooLarge (never a throw), so portfolio drivers can
/// fall through; an expired deadline yields Limit with the best-so-far
/// incumbent.
[[nodiscard]] Solution solve_exhaustive(const Model& model,
                                        std::int64_t max_combinations = 1 << 22,
                                        const support::Deadline& deadline = {});

}  // namespace p4all::ilp
