#include "ilp/presolve.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

namespace p4all::ilp {

namespace {

/// Safety slack on continuous tightenings so floating-point inference never
/// shaves a genuinely feasible point.
constexpr double kSlack = 1e-9;
/// Integrality tolerance for rounding integer bounds inward (matches the
/// solver's default int_tol).
constexpr double kIntTol = 1e-6;

}  // namespace

BoundPropagator::BoundPropagator(const Model& model) : model_(&model) {
    rows_.reserve(model.constraints().size() * 2);
    for (const Constraint& c : model.constraints()) {
        const double b = c.rhs - c.expr.constant();
        if (c.sense == CmpSense::Le || c.sense == CmpSense::Eq) {
            rows_.push_back({&c.expr.terms(), 1.0, b});
        }
        if (c.sense == CmpSense::Ge || c.sense == CmpSense::Eq) {
            rows_.push_back({&c.expr.terms(), -1.0, -b});
        }
    }
    col_rows_.resize(static_cast<std::size_t>(model.num_vars()));
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        for (const auto& term : *rows_[r].terms) {
            col_rows_[static_cast<std::size_t>(term.first)].push_back(static_cast<int>(r));
        }
    }
    dirty_.assign(rows_.size(), 0);
}

void BoundPropagator::set_bounds(std::vector<double>& lb, std::vector<double>& ub, int var,
                                 double new_lb, double new_ub) {
    const std::size_t js = static_cast<std::size_t>(var);
    trail_.push_back({var, lb[js], ub[js]});
    lb[js] = new_lb;
    ub[js] = new_ub;
    // A row after the one being tightened still sees the change in this
    // sweep; the rest wait for the next one.
    for (const int q : col_rows_[js]) {
        char& d = dirty_[static_cast<std::size_t>(q)];
        if (d != 0) continue;
        d = 1;
        if (q > current_row_) {
            sweep_.push_back(q);
            std::push_heap(sweep_.begin(), sweep_.end(), std::greater<>());
        } else {
            next_sweep_.push_back(q);
        }
    }
}

bool BoundPropagator::tighten_row(const NormRow& row, std::vector<double>& lb,
                                  std::vector<double>& ub) {
    // Minimum activity L = Σ_j min(a_j·lb_j, a_j·ub_j), tracking how many
    // terms contribute −∞: with none, every variable can be tightened; with
    // exactly one, only the variable owning it.
    double finite_min = 0.0;
    int inf_count = 0;
    int inf_var = -1;
    for (const auto& [id, c] : *row.terms) {
        const double a = row.sign * c;
        if (a == 0.0) continue;
        const std::size_t js = static_cast<std::size_t>(id);
        const double contrib = a > 0.0 ? a * lb[js] : a * ub[js];
        if (contrib == -kInfinity) {
            ++inf_count;
            inf_var = id;
        } else {
            finite_min += contrib;
        }
    }
    if (inf_count == 0 && finite_min > row.b + 1e-7) return false;  // unreachable rhs
    if (inf_count > 1) return true;

    for (const auto& [id, c] : *row.terms) {
        const double a = row.sign * c;
        if (a == 0.0) continue;
        if (inf_count == 1 && id != inf_var) continue;
        const std::size_t js = static_cast<std::size_t>(id);
        const double own = a > 0.0 ? a * lb[js] : a * ub[js];
        const double rest = inf_count == 1 ? finite_min : finite_min - own;
        if (rest == -kInfinity || !std::isfinite(rest)) continue;
        const bool integral = model_->var_type(id) != VarType::Continuous;
        if (a > 0.0) {
            double new_ub = (row.b - rest) / a + kSlack;
            if (integral) new_ub = std::floor(new_ub + kIntTol);
            if (new_ub < ub[js] - 1e-9) set_bounds(lb, ub, id, lb[js], new_ub);
        } else {
            double new_lb = (row.b - rest) / a - kSlack;
            if (integral) new_lb = std::ceil(new_lb - kIntTol);
            if (new_lb > lb[js] + 1e-9) set_bounds(lb, ub, id, new_lb, ub[js]);
        }
    }
    return true;
}

BoundPropagator::Result BoundPropagator::sweep(std::vector<double>& lb, std::vector<double>& ub,
                                               int max_passes) {
    Result out;
    for (int pass = 0; pass < max_passes && !sweep_.empty(); ++pass) {
        const std::size_t pass_start = trail_.size();
        while (!sweep_.empty() && !out.infeasible) {
            std::pop_heap(sweep_.begin(), sweep_.end(), std::greater<>());
            current_row_ = sweep_.back();
            sweep_.pop_back();
            dirty_[static_cast<std::size_t>(current_row_)] = 0;
            out.infeasible = !tighten_row(rows_[static_cast<std::size_t>(current_row_)], lb, ub);
        }
        // Crossed bounds, among the variables this sweep moved.
        current_row_ = static_cast<int>(rows_.size());
        for (std::size_t k = pass_start; k < trail_.size() && !out.infeasible; ++k) {
            const int j = trail_[k].var;
            const std::size_t js = static_cast<std::size_t>(j);
            if (ub[js] - lb[js] < -1e-7) {
                out.infeasible = true;
                out.crossed_var = j;
            } else if (ub[js] < lb[js]) {
                // A tolerance-sized inversion is an empty-looking interval
                // from rounding; snap it closed instead of carrying lb > ub
                // into the LP (which treats it as an error).
                set_bounds(lb, ub, j, lb[js], lb[js]);
            }
        }
        if (out.infeasible) break;
        sweep_.swap(next_sweep_);
        next_sweep_.clear();
        std::make_heap(sweep_.begin(), sweep_.end(), std::greater<>());
    }
    // Whatever is left (a pass cap or a conflict) is dropped: the next call
    // starts from a clean worklist.
    current_row_ = -1;
    for (const int q : sweep_) dirty_[static_cast<std::size_t>(q)] = 0;
    for (const int q : next_sweep_) dirty_[static_cast<std::size_t>(q)] = 0;
    sweep_.clear();
    next_sweep_.clear();
    return out;
}

BoundPropagator::Result BoundPropagator::propagate(std::vector<double>& lb,
                                                   std::vector<double>& ub, int max_passes) {
    // Row indices in ascending order already form a min-heap.
    sweep_.resize(rows_.size());
    for (std::size_t r = 0; r < rows_.size(); ++r) sweep_[r] = static_cast<int>(r);
    std::fill(dirty_.begin(), dirty_.end(), 1);
    return sweep(lb, ub, max_passes);
}

BoundPropagator::Result BoundPropagator::fix(std::vector<double>& lb, std::vector<double>& ub,
                                             int var, double value, int max_passes) {
    set_bounds(lb, ub, var, value, value);
    return sweep(lb, ub, max_passes);
}

void BoundPropagator::undo(std::vector<double>& lb, std::vector<double>& ub, std::size_t mark) {
    while (trail_.size() > mark) {
        const Change& c = trail_.back();
        lb[static_cast<std::size_t>(c.var)] = c.lb;
        ub[static_cast<std::size_t>(c.var)] = c.ub;
        trail_.pop_back();
    }
}

PresolveResult presolve(const Model& model, int max_passes) {
    PresolveResult out;
    const int n = model.num_vars();
    out.lb.resize(static_cast<std::size_t>(n));
    out.ub.resize(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
        const std::size_t js = static_cast<std::size_t>(j);
        out.lb[js] = model.lower_bound(j);
        out.ub[js] = model.upper_bound(j);
        // Integer model bounds may arrive fractional; round them inward once.
        if (model.var_type(j) != VarType::Continuous) {
            if (std::isfinite(out.lb[js])) out.lb[js] = std::ceil(out.lb[js] - kIntTol);
            if (std::isfinite(out.ub[js])) out.ub[js] = std::floor(out.ub[js] + kIntTol);
        }
        if (out.ub[js] - out.lb[js] < -1e-7) {
            out.infeasible = true;
            out.infeasible_reason =
                "presolve: bounds crossed for variable '" + model.var_name(j) + "'";
            return out;
        }
    }

    const BoundPropagator::Result r = BoundPropagator(model).propagate(out.lb, out.ub, max_passes);
    if (r.infeasible) {
        out.infeasible = true;
        out.infeasible_reason =
            r.crossed_var < 0
                ? "presolve: row minimum activity exceeds rhs"
                : "presolve: bounds crossed for variable '" + model.var_name(r.crossed_var) + "'";
        return out;
    }

    // Coefficient cleanup: purely structural normalization (merge duplicate
    // terms, drop exact zeros). Only rebuild the model when something
    // actually changed — the common case is a no-op with no copy.
    int dirty_rows = 0;
    for (const Constraint& c : model.constraints()) {
        LinExpr e = c.expr;
        e.normalize();
        if (e.terms() != c.expr.terms()) ++dirty_rows;
    }
    if (dirty_rows > 0) {
        Model m;
        for (int j = 0; j < n; ++j) {
            const Var v = m.add_var(model.var_name(j), model.var_type(j), model.lower_bound(j),
                                    model.upper_bound(j));
            m.set_branch_priority(v, model.branch_priority(j));
        }
        for (const Constraint& c : model.constraints()) {
            LinExpr e = c.expr;
            e.normalize();
            switch (c.sense) {
                case CmpSense::Le: m.add_le(std::move(e), c.rhs, c.name); break;
                case CmpSense::Ge: m.add_ge(std::move(e), c.rhs, c.name); break;
                case CmpSense::Eq: m.add_eq(std::move(e), c.rhs, c.name); break;
            }
        }
        m.set_objective(model.objective());
        out.cleaned = std::move(m);
    }
    return out;
}

}  // namespace p4all::ilp
