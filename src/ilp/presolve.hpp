// Root presolve: activity-based bound tightening + coefficient cleanup.
//
// Runs once before branch-and-bound. Bound tightening is exact inference —
// for each row, the minimum activity of the other terms bounds what any one
// variable can contribute — so no feasible point (integer or continuous) is
// ever removed; integer bounds are additionally rounded inward. The result
// is expressed as tightened *root bounds* rather than a mutated model, so
// audit certificates keep referring to the original rows and bounds.
// Coefficient cleanup is limited to semantically-neutral normalization
// (merging duplicate terms, dropping exact zeros); anything lossier would
// break the solver's "incumbents are feasible for the original model"
// contract.
//
// The tightening itself is BoundPropagator, the one propagation engine of
// src/ilp: presolve runs it over every row, and branch-and-bound's
// fix-and-propagate heuristic runs it after each fixing, from the rows of
// the fixed variable only.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ilp/model.hpp"

namespace p4all::ilp {

/// Activity-based bound propagation over a model's rows, on bounds the
/// caller owns. Every row is read in ≤ form (Ge negated, Eq as both
/// halves); a row whose bounds moved is re-examined in the same sweep when
/// it comes later in row order, else in the next sweep, so only rows that
/// touch a changed variable are ever re-read. Every bound change is logged
/// on a trail, so a caller can take back a fixing that led nowhere. The
/// model must outlive the propagator.
class BoundPropagator {
public:
    explicit BoundPropagator(const Model& model);

    struct Result {
        /// A row's minimum activity exceeds its rhs, or a variable's
        /// bounds crossed: the box holds no feasible point.
        bool infeasible = false;
        int crossed_var = -1;  // the crossed variable, or −1 for a row
    };

    /// Sweeps every row, at most `max_passes` times, until nothing moves.
    Result propagate(std::vector<double>& lb, std::vector<double>& ub, int max_passes);
    /// Fixes `var` to `value`, then sweeps the rows it reaches.
    Result fix(std::vector<double>& lb, std::vector<double>& ub, int var, double value,
               int max_passes);

    /// Trail position, for undo().
    [[nodiscard]] std::size_t mark() const noexcept { return trail_.size(); }
    /// Restores every bound changed since `mark`.
    void undo(std::vector<double>& lb, std::vector<double>& ub, std::size_t mark);

private:
    struct NormRow {
        // Σ sign·c_j x_j ≤ b over the constraint's terms.
        const std::vector<std::pair<int, double>>* terms;
        double sign;  // +1 as-written, −1 negated
        double b;
    };
    struct Change {
        int var;
        double lb;
        double ub;
    };

    Result sweep(std::vector<double>& lb, std::vector<double>& ub, int max_passes);
    /// Tightens one row; false when the row cannot reach its rhs.
    bool tighten_row(const NormRow& row, std::vector<double>& lb, std::vector<double>& ub);
    void set_bounds(std::vector<double>& lb, std::vector<double>& ub, int var, double new_lb,
                    double new_ub);

    const Model* model_;
    std::vector<NormRow> rows_;
    std::vector<std::vector<int>> col_rows_;  // variable → its rows in rows_
    // Rows waiting for this sweep (a min-heap on the row index) and for
    // the next; dirty_ marks a row in either.
    std::vector<int> sweep_;
    std::vector<int> next_sweep_;
    std::vector<char> dirty_;
    int current_row_ = -1;  // the row being tightened
    std::vector<Change> trail_;
};

struct PresolveResult {
    /// Tightened root bounds, indexed by variable id. Always valid (equal
    /// to the model bounds where nothing tightened).
    std::vector<double> lb;
    std::vector<double> ub;
    /// Bound inference crossed (lb > ub) or a row cannot reach its rhs:
    /// the model is integer-infeasible before any search.
    bool infeasible = false;
    std::string infeasible_reason;
    /// Set only when cleanup changed anything: a row-for-row copy of the
    /// model with normalized constraint expressions (same row count/order,
    /// so dual indexing is preserved).
    std::optional<Model> cleaned;
};

/// Runs up to `max_passes` sweeps of bound tightening (fixpoint usually in
/// 1–2 passes on placement models) plus one normalization sweep.
[[nodiscard]] PresolveResult presolve(const Model& model, int max_passes = 4);

}  // namespace p4all::ilp
