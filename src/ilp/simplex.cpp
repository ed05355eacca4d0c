#include "ilp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "ilp/scaling.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "support/rng.hpp"

namespace p4all::ilp {

namespace {

/// Consecutive degenerate pivots tolerated before Bland's rule engages.
/// Scales with the row count: short degenerate runs are routine on
/// placement LPs and Devex resolves them faster than Bland would.
constexpr int kDegeneratePivotLimit(int rows) { return 2 * (rows + 16); }

/// Bounded-variable primal simplex on a dense tableau.
///
/// Variables are shifted to y = x − lb ∈ [0, d]; constraint rows become
/// equalities with a slack (Le) or an artificial (Eq / negative-rhs) basic
/// variable. Nonbasic variables rest at their lower (0) or upper (d) bound;
/// the ratio test includes the entering variable's own opposite bound, so a
/// "bound flip" moves a variable across its range with no pivot at all.
/// Compared with the textbook formulation this removes one tableau row per
/// finite upper bound — the dominant row count in placement models, where
/// almost every variable is binary.
class BoundedSimplex {
public:
    BoundedSimplex(const Model& model, const std::vector<double>& lb,
                   const std::vector<double>& ub, const LpOptions& options)
        : model_(model), lb_(lb), ub_(ub), options_(options), n_(model.num_vars()) {
        build();
    }

    LpResult solve() {
        LpResult result;
        if (num_artificial_ > 0) {
            load_phase1_objective();
            const LpStatus st = iterate(result.iterations, /*phase1=*/true);
            if (st == LpStatus::IterLimit) {
                result.status = st;
                result.deadline_hit = deadline_hit_;
                result.error = error_;
                return result;
            }
            double artificial_sum = 0.0;
            for (int i = 0; i < m_; ++i) {
                if (basis_[static_cast<std::size_t>(i)] >= artificial_start_) {
                    artificial_sum += xb_[static_cast<std::size_t>(i)];
                }
            }
            if (artificial_sum > 1e-6) {
                result.status = LpStatus::Infeasible;
                return result;
            }
            // Pin artificials to zero for phase 2.
            for (int j = artificial_start_; j < cols_; ++j) {
                span_[static_cast<std::size_t>(j)] = 0.0;
            }
        }
        load_phase2_objective();
        const LpStatus st = iterate(result.iterations, /*phase1=*/false);
        result.status = st;
        if (st != LpStatus::Optimal) {
            result.deadline_hit = deadline_hit_;
            result.error = error_;
            return result;
        }

        // Dual extraction. The tableau's objective row holds the reduced
        // costs r_j = ĉ_j − w'A_j of the shifted minimization problem; the
        // auxiliary (slack/artificial) column of row i has cost 0 and
        // coefficient σcol, so w_i = −σcol·r_aux. Mapping back through the
        // row normalization (σrow) and the min(−c) ⇄ max(c) flip gives the
        // maximize-convention dual y_i = σrow·σcol·r_aux.
        result.duals.assign(static_cast<std::size_t>(m_), 0.0);
        for (int i = 0; i < m_; ++i) {
            const std::size_t is = static_cast<std::size_t>(i);
            // ·ρ maps the scaled row's dual back to the original row's unit.
            result.duals[is] = static_cast<double>(dual_sign_[is]) *
                               obj_[static_cast<std::size_t>(aux_col_[is])] * row_scale_[is];
        }

        result.values.assign(static_cast<std::size_t>(n_), 0.0);
        for (int j = 0; j < n_; ++j) {
            if (at_upper_[static_cast<std::size_t>(j)]) {
                result.values[static_cast<std::size_t>(j)] = span_[static_cast<std::size_t>(j)];
            }
        }
        for (int i = 0; i < m_; ++i) {
            const int j = basis_[static_cast<std::size_t>(i)];
            if (j < n_) result.values[static_cast<std::size_t>(j)] = xb_[static_cast<std::size_t>(i)];
        }
        for (int j = 0; j < n_; ++j) {
            // ·s undoes the column scaling, then the lb shift.
            const std::size_t js = static_cast<std::size_t>(j);
            result.values[js] = result.values[js] * col_scale_[js] + lb_[js];
        }
        result.objective = model_.objective().evaluate(result.values);
        result.bound_slack = bound_slack_;
        result.bound = result.objective + bound_slack_;
        return result;
    }

private:
    double& at(int row, int col) {
        return data_[static_cast<std::size_t>(row) * static_cast<std::size_t>(cols_) +
                     static_cast<std::size_t>(col)];
    }
    [[nodiscard]] double get(int row, int col) const {
        return data_[static_cast<std::size_t>(row) * static_cast<std::size_t>(cols_) +
                     static_cast<std::size_t>(col)];
    }

    /// Records pivot row `row` and its nonzero columns for
    /// subtract_pivot_row().
    void index_pivot_row(int row) {
        pivot_row_ = row;
        pivot_nz_.clear();
        for (int j = 0; j < cols_; ++j) {
            if (get(row, j) != 0.0) pivot_nz_.push_back(j);
        }
    }

    /// row −= f × pivot row. Subtracting f·0 leaves an entry's value
    /// unchanged, so a pivot row that is less than half nonzero (on the
    /// bundled apps every one is, most of them 20–40% full) is applied
    /// through its nonzero columns only. A denser row keeps the contiguous
    /// loop, which the compiler can vectorize.
    void subtract_pivot_row(int row, double f) {
        if (2 * pivot_nz_.size() < static_cast<std::size_t>(cols_)) {
            for (const int j : pivot_nz_) at(row, j) -= f * get(pivot_row_, j);
        } else {
            for (int j = 0; j < cols_; ++j) at(row, j) -= f * get(pivot_row_, j);
        }
    }

    void build() {
        struct Row {
            std::vector<std::pair<int, double>> terms;
            bool eq;
            bool negated = false;
            int sense_sign = 1;  // −1 for Ge rows (normalized to Le)
            double rhs;
        };
        std::vector<Row> rows;
        rows.reserve(model_.constraints().size());
        for (const Constraint& c : model_.constraints()) {
            Row r;
            r.eq = c.sense == CmpSense::Eq;
            double shift = 0.0;
            const double sign = c.sense == CmpSense::Ge ? -1.0 : 1.0;
            r.sense_sign = c.sense == CmpSense::Ge ? -1 : 1;
            for (const auto& [id, coeff] : c.expr.terms()) {
                shift += coeff * lb_[static_cast<std::size_t>(id)];
                r.terms.emplace_back(id, sign * coeff);
            }
            r.rhs = sign * (c.rhs - shift);
            rows.push_back(std::move(r));
        }
        m_ = static_cast<int>(rows.size());

        // Equilibrate (scaling.hpp): power-of-two row/column factors keep
        // every tableau entry near 1 so the absolute pricing and ratio-test
        // tolerances stay meaningful on models mixing O(1) utility rows
        // with O(10^6) memory rows. Values and duals are mapped back on
        // extraction; the objective value is unchanged by construction.
        {
            std::vector<std::vector<std::pair<int, double>>> term_rows;
            term_rows.reserve(rows.size());
            for (const Row& r : rows) term_rows.push_back(r.terms);
            Equilibration eq = equilibrate(term_rows, n_);
            row_scale_ = std::move(eq.row);
            col_scale_ = std::move(eq.col);
            for (int i = 0; i < m_; ++i) {
                Row& r = rows[static_cast<std::size_t>(i)];
                const double rho = row_scale_[static_cast<std::size_t>(i)];
                for (auto& [id, c] : r.terms) {
                    c *= rho * col_scale_[static_cast<std::size_t>(id)];
                }
                r.rhs *= rho;
            }
        }

        // Count columns. Le rows with rhs ≥ 0 start with a basic slack;
        // Le rows with rhs < 0 are negated (slack coeff −1) and need an
        // artificial; Eq rows (rhs normalized ≥ 0) need an artificial.
        int num_slack = 0;
        num_artificial_ = 0;
        for (Row& r : rows) {
            if (!r.eq) ++num_slack;
            if (r.rhs < 0) {
                r.negated = true;
                for (auto& [id, c] : r.terms) c = -c;
                r.rhs = -r.rhs;
            }
            if (r.eq || r.negated) ++num_artificial_;
        }
        artificial_start_ = n_ + num_slack;
        cols_ = artificial_start_ + num_artificial_;
        data_.assign(static_cast<std::size_t>(m_) * static_cast<std::size_t>(cols_), 0.0);
        obj_.assign(static_cast<std::size_t>(cols_), 0.0);
        span_.assign(static_cast<std::size_t>(cols_), kInfinity);
        at_upper_.assign(static_cast<std::size_t>(cols_), false);
        basis_.assign(static_cast<std::size_t>(m_), -1);
        xb_.assign(static_cast<std::size_t>(m_), 0.0);
        in_basis_.assign(static_cast<std::size_t>(cols_), false);

        for (int j = 0; j < n_; ++j) {
            const double d = ub_[static_cast<std::size_t>(j)] - lb_[static_cast<std::size_t>(j)];
            if (d < -1e-12) {
                throw support::Error(support::Errc::InvalidModel,
                                     "simplex: lb > ub for variable '" + model_.var_name(j) + "'");
            }
            span_[static_cast<std::size_t>(j)] =
                std::max(d, 0.0) / col_scale_[static_cast<std::size_t>(j)];
        }

        aux_col_.assign(static_cast<std::size_t>(m_), -1);
        dual_sign_.assign(static_cast<std::size_t>(m_), 1);
        int next_slack = n_;
        int next_artificial = artificial_start_;
        for (int i = 0; i < m_; ++i) {
            const Row& r = rows[static_cast<std::size_t>(i)];
            for (const auto& [id, c] : r.terms) at(i, id) += c;
            xb_[static_cast<std::size_t>(i)] = r.rhs;
            int basic = -1;
            // Dual bookkeeping: σrow is the net sign applied to the original
            // constraint's coefficients; σcol is the auxiliary column's
            // coefficient in this row.
            const int sigma_row = r.sense_sign * (r.negated ? -1 : 1);
            if (!r.eq) {
                // Negated rows carry their slack with coefficient −1, so the
                // slack cannot serve as the starting basic variable.
                at(i, next_slack) = r.negated ? -1.0 : 1.0;
                if (!r.negated) basic = next_slack;
                aux_col_[static_cast<std::size_t>(i)] = next_slack;
                dual_sign_[static_cast<std::size_t>(i)] = sigma_row * (r.negated ? -1 : 1);
                ++next_slack;
            }
            if (basic < 0) {
                at(i, next_artificial) = 1.0;
                if (r.eq) {
                    aux_col_[static_cast<std::size_t>(i)] = next_artificial;
                    dual_sign_[static_cast<std::size_t>(i)] = sigma_row;
                }
                basic = next_artificial++;
            }
            basis_[static_cast<std::size_t>(i)] = basic;
            in_basis_[static_cast<std::size_t>(basic)] = true;
        }
        tab0_ = data_;
        rhs0_ = xb_;
    }

    /// Rebuilds the tableau, the reduced-cost row, and the basic values from
    /// the pristine (scaled) data and the current basis — the tableau
    /// analogue of the revised method's refactorization. Incremental row
    /// operations accumulate error (a single near-tolerance pivot can
    /// inflate a row by ~1/tol), and the only symptom is silent: pricing
    /// stops seeing improving columns and the solver declares a premature
    /// optimum. iterate() therefore re-verifies every terminal claim against
    /// a fresh rebuild. Returns false when a basis pivot collapses (the
    /// basis has become numerically singular).
    bool rebuild_from_basis() {
        data_ = tab0_;
        obj_ = cost0_;
        std::vector<double> rhsred = rhs0_;
        // Gauss-Jordan over the basis pairs (i, basis_[i]), processed in
        // partial-pivoting order: each step eliminates the unprocessed pair
        // with the largest current pivot magnitude, which keeps the rebuild
        // stable on bases whose natural row order would hit tiny pivots.
        std::vector<bool> done(static_cast<std::size_t>(m_), false);
        for (int step = 0; step < m_; ++step) {
            int i = -1;
            double best = 0.0;
            for (int k = 0; k < m_; ++k) {
                if (done[static_cast<std::size_t>(k)]) continue;
                const double v = std::abs(get(k, basis_[static_cast<std::size_t>(k)]));
                if (i < 0 || v > best) {
                    best = v;
                    i = k;
                }
            }
            done[static_cast<std::size_t>(i)] = true;
            const int jb = basis_[static_cast<std::size_t>(i)];
            if (std::abs(get(i, jb)) < 1e-8) {
                // The pairing's own entry vanished (think permuted identity:
                // every diagonal is zero though the basis is invertible).
                // Any still-unclaimed row has zeros in all claimed columns,
                // so adding one into row i is a legal row operation that
                // cannot disturb the unit columns already established —
                // pick the one that best restores the pivot.
                int r = -1;
                double rbest = 0.0;
                for (int k = 0; k < m_; ++k) {
                    if (k == i || done[static_cast<std::size_t>(k)]) continue;
                    const double v = std::abs(get(k, jb));
                    if (v > rbest) {
                        rbest = v;
                        r = k;
                    }
                }
                if (r >= 0 && rbest > std::abs(get(i, jb))) {
                    for (int j = 0; j < cols_; ++j) at(i, j) += get(r, j);
                    rhsred[static_cast<std::size_t>(i)] +=
                        rhsred[static_cast<std::size_t>(r)];
                }
            }
            const double pivot = get(i, jb);
            if (std::abs(pivot) < 1e-11) return false;
            const double inv = 1.0 / pivot;
            for (int j = 0; j < cols_; ++j) at(i, j) *= inv;
            at(i, jb) = 1.0;
            rhsred[static_cast<std::size_t>(i)] *= inv;
            index_pivot_row(i);
            for (int k = 0; k < m_; ++k) {
                if (k == i) continue;
                const double f = get(k, jb);
                if (f == 0.0) continue;
                subtract_pivot_row(k, f);
                at(k, jb) = 0.0;
                rhsred[static_cast<std::size_t>(k)] -=
                    f * rhsred[static_cast<std::size_t>(i)];
            }
            const double f = obj_[static_cast<std::size_t>(jb)];
            if (f != 0.0) {
                for (int j = 0; j < cols_; ++j) {
                    obj_[static_cast<std::size_t>(j)] -= f * get(i, j);
                }
                obj_[static_cast<std::size_t>(jb)] = 0.0;
            }
        }
        // xb = B⁻¹b − Σ_{nonbasic at upper} span_j·(B⁻¹A_j).
        xb_ = std::move(rhsred);
        for (int j = 0; j < cols_; ++j) {
            const std::size_t js = static_cast<std::size_t>(j);
            if (in_basis_[js] || !at_upper_[js]) continue;
            if (span_[js] == kInfinity || span_[js] <= 0.0) continue;
            for (int i = 0; i < m_; ++i) {
                xb_[static_cast<std::size_t>(i)] -= span_[js] * get(i, j);
            }
        }
        return true;
    }

    void load_phase1_objective() {
        std::fill(obj_.begin(), obj_.end(), 0.0);
        for (int j = artificial_start_; j < cols_; ++j) obj_[static_cast<std::size_t>(j)] = 1.0;
        cost0_ = obj_;  // pristine costs for rebuild_from_basis()
        reduce_objective();
    }

    void load_phase2_objective() {
        std::fill(obj_.begin(), obj_.end(), 0.0);
        for (const auto& [id, c] : model_.objective().terms()) {
            // maximize ⇒ minimize −c, in column-scaled units (ĉ = s·c keeps
            // the scaled objective value equal to the true one).
            obj_[static_cast<std::size_t>(id)] = -c * col_scale_[static_cast<std::size_t>(id)];
        }
        // Deterministic cost perturbation on finite-span structural columns:
        // discourage each slightly (positive in the minimization objective),
        // scaled so each column's worst-case objective error is at most
        // `perturbation`. The total is returned via bound_slack_. With
        // caller-frozen reference bounds (LpOptions::perturb_ref_*) the
        // magnitude derives from the reference span — same policy as the
        // sparse backend, so both produce identical perturbed cost vectors
        // across a branch-and-bound tree.
        bound_slack_ = 0.0;
        if (options_.perturbation > 0.0) {
            const bool has_ref =
                options_.perturb_ref_lb != nullptr && options_.perturb_ref_ub != nullptr;
            for (int j = 0; j < n_; ++j) {
                const std::size_t js = static_cast<std::size_t>(j);
                double ref_span = span_[js];
                if (has_ref) {
                    const double d = (*options_.perturb_ref_ub)[js] - (*options_.perturb_ref_lb)[js];
                    ref_span = d == kInfinity ? kInfinity : std::max(d, 0.0) / col_scale_[js];
                }
                if (ref_span == kInfinity || ref_span <= 0.0) continue;
                // perturb_seed == 0 reproduces the historical tilt exactly;
                // any other seed gives a different (still deterministic) one.
                std::uint64_t state =
                    (0x9E3779B97F4A7C15ULL +
                     options_.perturb_seed * 0xD1342543DE82EF95ULL) ^
                    (static_cast<std::uint64_t>(j) << 17);
                const double xi =
                    0.5 + 0.5 * static_cast<double>(support::splitmix64(state) >> 11) * 0x1.0p-53;
                const double eps = options_.perturbation * xi / ref_span;
                obj_[js] += eps;
                const double slack_span = span_[js] == kInfinity ? ref_span : span_[js];
                bound_slack_ += eps * slack_span;
            }
        }
        cost0_ = obj_;  // pristine costs for rebuild_from_basis()
        reduce_objective();
    }

    /// Eliminates basic columns from the objective row.
    void reduce_objective() {
        for (int i = 0; i < m_; ++i) {
            const int jb = basis_[static_cast<std::size_t>(i)];
            const double cb = obj_[static_cast<std::size_t>(jb)];
            if (cb == 0.0) continue;
            for (int j = 0; j < cols_; ++j) {
                obj_[static_cast<std::size_t>(j)] -= cb * get(i, j);
            }
            obj_[static_cast<std::size_t>(jb)] = 0.0;
        }
    }

    LpStatus iterate(int& iterations, bool phase1) {
        const int limit =
            options_.max_iterations > 0 ? options_.max_iterations : 400 + 60 * (m_ + cols_);
        const double tol = options_.tol;
        int stall = 0;
        bool bland = options_.force_bland;
        // True while the tableau is freshly rebuilt from the basis (no
        // incremental updates since): terminal claims are only trusted when
        // fresh, otherwise they trigger rebuild_from_basis() and a re-price.
        bool fresh = false;
        // Devex reference weights: pricing by r_j²/w_j needs far fewer
        // iterations than plain Dantzig on degenerate placement LPs.
        std::vector<double> devex(static_cast<std::size_t>(cols_), 1.0);

        while (true) {
            if (++iterations > limit) {
                error_ = support::Errc::ResourceLimit;
                return LpStatus::IterLimit;
            }
            // Deadline poll, amortized: one clock read per 16 iterations
            // (including the very first, so an already-expired budget does
            // no pivoting at all) keeps the worst-case overshoot of a
            // caller's wall budget to a handful of pivots.
            if ((iterations & 15) == 1 && !options_.deadline.unlimited() &&
                options_.deadline.expired()) {
                deadline_hit_ = true;
                error_ = options_.deadline.cancelled() ? support::Errc::Cancelled
                                                       : support::Errc::DeadlineExceeded;
                return LpStatus::IterLimit;
            }

            // Periodic refresh: rebuilding every 128 pivots bounds the
            // incremental-update drift window, so pivot selection never runs
            // on badly corrupted data (which could walk the basis into
            // numerical singularity before the terminal check fires).
            if (!fresh && (iterations & 127) == 0) {
                if (!rebuild_from_basis()) {
                    error_ = support::Errc::NumericalTrouble;
                    return LpStatus::IterLimit;
                }
                fresh = true;
            }

            // Pricing: nonbasic at lower wants r < 0; at upper wants r > 0.
            int enter = -1;
            double best = 0.0;
            double enter_dir = 1.0;
            for (int j = 0; j < cols_; ++j) {
                const std::size_t js = static_cast<std::size_t>(j);
                if (in_basis_[js]) continue;
                if (j >= artificial_start_) continue;  // artificials never re-enter
                if (span_[js] <= tol) continue;        // fixed variable
                const double r = obj_[js];
                double dir = 1.0;
                if (!at_upper_[js] && r < -tol) {
                    dir = 1.0;
                } else if (at_upper_[js] && r > tol) {
                    dir = -1.0;
                } else {
                    continue;
                }
                if (bland) {
                    enter = j;
                    enter_dir = dir;
                    break;
                }
                const double score = r * r / devex[js];
                if (score > best) {
                    best = score;
                    enter = j;
                    enter_dir = dir;
                }
            }
            if (enter < 0) {
                if (!fresh) {
                    if (!rebuild_from_basis()) {
                        error_ = support::Errc::NumericalTrouble;
                        return LpStatus::IterLimit;
                    }
                    fresh = true;
                    continue;  // re-price against exact reduced costs
                }
                return LpStatus::Optimal;
            }
            const std::size_t es = static_cast<std::size_t>(enter);

            // Ratio test, two passes: pass 1 finds the tightest step t; pass
            // 2 picks, among rows within a tolerance of t, the one with the
            // largest pivot magnitude (Harris-style) — numerically safer and
            // far less prone to long degenerate pivot chains. Under Bland,
            // smallest basic index wins instead.
            double t = span_[es];  // own opposite bound ⇒ bound flip
            for (int i = 0; i < m_; ++i) {
                const double beta = enter_dir * get(i, enter);
                const std::size_t bi =
                    static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)]);
                if (beta > tol) {
                    t = std::min(t, std::max(xb_[static_cast<std::size_t>(i)] / beta, 0.0));
                } else if (beta < -tol && span_[bi] != kInfinity) {
                    t = std::min(
                        t, std::max((span_[bi] - xb_[static_cast<std::size_t>(i)]) / (-beta), 0.0));
                }
            }
            if (t == kInfinity) {
                if (!fresh) {
                    if (!rebuild_from_basis()) {
                        error_ = support::Errc::NumericalTrouble;
                        return LpStatus::IterLimit;
                    }
                    fresh = true;
                    continue;  // re-price: the unbounded ray may be drift
                }
                return phase1 ? LpStatus::Infeasible : LpStatus::Unbounded;
            }
            int leave = -1;
            bool leave_at_upper = false;
            double best_pivot = 0.0;
            if (bland) {
                // Bland's anti-cycling rule: exact minimal ratio (no Harris
                // tolerance window — a widened tie set would break the
                // termination guarantee), smallest basic index among exact
                // ties. Combined with first-eligible entering selection
                // above, no basis can repeat, so degenerate pivot chains
                // always terminate.
                double exact_t = span_[es];
                for (int i = 0; i < m_; ++i) {
                    const double beta = enter_dir * get(i, enter);
                    const std::size_t bi =
                        static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)]);
                    double ratio = kInfinity;
                    bool hits_upper = false;
                    if (beta > tol) {
                        ratio = std::max(xb_[static_cast<std::size_t>(i)] / beta, 0.0);
                    } else if (beta < -tol && span_[bi] != kInfinity) {
                        ratio =
                            std::max((span_[bi] - xb_[static_cast<std::size_t>(i)]) / (-beta), 0.0);
                        hits_upper = true;
                    } else {
                        continue;
                    }
                    if (ratio < exact_t ||
                        (leave >= 0 && ratio == exact_t &&
                         basis_[static_cast<std::size_t>(i)] <
                             basis_[static_cast<std::size_t>(leave)]) ||
                        (leave < 0 && ratio <= exact_t)) {
                        exact_t = ratio;
                        leave = i;
                        leave_at_upper = hits_upper;
                    }
                }
                t = leave >= 0 ? exact_t : t;
            } else {
                for (int i = 0; i < m_; ++i) {
                    const double beta = enter_dir * get(i, enter);
                    const std::size_t bi =
                        static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)]);
                    double ratio = kInfinity;
                    bool hits_upper = false;
                    if (beta > tol) {
                        ratio = std::max(xb_[static_cast<std::size_t>(i)] / beta, 0.0);
                    } else if (beta < -tol && span_[bi] != kInfinity) {
                        ratio =
                            std::max((span_[bi] - xb_[static_cast<std::size_t>(i)]) / (-beta), 0.0);
                        hits_upper = true;
                    } else {
                        continue;
                    }
                    // Harris-style: among rows within a tolerance of the
                    // tightest step, prefer the largest pivot magnitude.
                    if (ratio > t + 1e-9) continue;
                    if (std::abs(beta) > best_pivot) {
                        best_pivot = std::abs(beta);
                        leave = i;
                        leave_at_upper = hits_upper;
                    }
                }
            }

            // Tiny-pivot recovery (mirrors the revised backend): dividing by
            // a near-tolerance pivot inflates the whole tableau by ~1/|β|
            // and one such step can corrupt every later pivot choice. Retry
            // the iteration against freshly rebuilt data; only a pivot that
            // is still tiny on exact data is genuinely unavoidable.
            if (leave >= 0 && !fresh && std::abs(get(leave, enter)) < 1e-6) {
                if (!rebuild_from_basis()) {
                    error_ = support::Errc::NumericalTrouble;
                    return LpStatus::IterLimit;
                }
                fresh = true;
                continue;
            }

            // Anti-cycling guard: a long run of consecutive degenerate
            // steps (no objective movement) can only mean the solver is
            // crawling an optimal/degenerate face — or cycling. Engage
            // Bland's rule, whose lowest-index pivot selection provably
            // terminates; disengage as soon as real progress resumes (a
            // strict improvement breaks any cycle, so the guarantee holds).
            const double delta = obj_[es] * enter_dir * t;
            if (std::abs(delta) < 1e-12) {
                if (++stall > kDegeneratePivotLimit(m_)) bland = true;
            } else {
                stall = 0;
                bland = options_.force_bland;
            }

            if (leave < 0) {
                // Bound flip: entering crosses to its other bound.
                for (int i = 0; i < m_; ++i) {
                    xb_[static_cast<std::size_t>(i)] -= enter_dir * get(i, enter) * t;
                }
                at_upper_[es] = !at_upper_[es];
                fresh = false;
                continue;
            }

            // Fault point: a firing here simulates the pivot breakdown this
            // status exists for (tiny pivot magnitude corrupting the basis).
            if (support::fault_fires("simplex.pivot")) {
                error_ = support::Errc::NumericalTrouble;
                return LpStatus::IterLimit;
            }

            // Pivot: update basic values, then eliminate the column.
            for (int i = 0; i < m_; ++i) {
                if (i == leave) continue;
                xb_[static_cast<std::size_t>(i)] -= enter_dir * get(i, enter) * t;
            }
            const double enter_value = at_upper_[es] ? span_[es] - t : t;
            const int old_basic = basis_[static_cast<std::size_t>(leave)];
            in_basis_[static_cast<std::size_t>(old_basic)] = false;
            at_upper_[static_cast<std::size_t>(old_basic)] = leave_at_upper;
            basis_[static_cast<std::size_t>(leave)] = enter;
            in_basis_[es] = true;
            at_upper_[es] = false;  // basic status; flag unused while basic
            xb_[static_cast<std::size_t>(leave)] = enter_value;

            const double pivot = get(leave, enter);
            const double inv = 1.0 / pivot;
            for (int j = 0; j < cols_; ++j) at(leave, j) *= inv;
            at(leave, enter) = 1.0;
            index_pivot_row(leave);
            for (int i = 0; i < m_; ++i) {
                if (i == leave) continue;
                const double f = get(i, enter);
                if (f == 0.0) continue;
                subtract_pivot_row(i, f);
                at(i, enter) = 0.0;
            }
            const double f = obj_[es];
            if (f != 0.0) {
                for (int j = 0; j < cols_; ++j) {
                    obj_[static_cast<std::size_t>(j)] -= f * get(leave, j);
                }
                obj_[es] = 0.0;
            }

            // Devex weight update against the (normalized) pivot row: the
            // entry at(leave, j) equals α_rj / α_rq, exactly the reference
            // ratio the update rule needs.
            const double wq = devex[es];
            double wmax = 1.0;
            for (int j = 0; j < cols_; ++j) {
                const double a = get(leave, j);
                if (a == 0.0) continue;
                const double candidate = a * a * wq;
                std::size_t js = static_cast<std::size_t>(j);
                if (candidate > devex[js]) devex[js] = candidate;
                if (devex[js] > wmax) wmax = devex[js];
            }
            devex[static_cast<std::size_t>(old_basic)] = std::max(wq / (pivot * pivot), 1.0);
            if (wmax > 1e10) std::fill(devex.begin(), devex.end(), 1.0);  // reference reset
            fresh = false;
        }
    }

    const Model& model_;
    const std::vector<double>& lb_;
    const std::vector<double>& ub_;
    const LpOptions& options_;

    int n_ = 0;
    int m_ = 0;
    int cols_ = 0;
    int artificial_start_ = 0;
    int num_artificial_ = 0;

    std::vector<double> data_;      // m × cols tableau
    int pivot_row_ = -1;            // row last passed to index_pivot_row()
    std::vector<int> pivot_nz_;     // its nonzero columns
    std::vector<double> tab0_;      // pristine scaled tableau (rebuild source)
    std::vector<double> rhs0_;      // pristine normalized rhs
    std::vector<double> cost0_;     // pristine phase costs (incl. perturbation)
    std::vector<double> obj_;       // reduced-cost row
    std::vector<double> span_;      // per-column width of [0, d]
    std::vector<bool> at_upper_;    // nonbasic status
    std::vector<bool> in_basis_;
    std::vector<int> basis_;        // row -> basic column
    std::vector<double> xb_;        // basic values
    std::vector<int> aux_col_;      // row -> slack/artificial column (duals)
    std::vector<int> dual_sign_;    // row -> σrow·σcol sign for dual readout
    std::vector<double> row_scale_; // equilibration factors (powers of two)
    std::vector<double> col_scale_;
    double bound_slack_ = 0.0;      // exact perturbation budget
    bool deadline_hit_ = false;     // IterLimit caused by deadline/cancel
    support::Errc error_ = support::Errc::None;
};

}  // namespace

LpResult solve_lp(const Model& model, const std::vector<double>* lb,
                  const std::vector<double>* ub, const LpOptions& options) {
    std::vector<double> lb_local;
    std::vector<double> ub_local;
    if (lb == nullptr) {
        lb_local.resize(static_cast<std::size_t>(model.num_vars()));
        for (int j = 0; j < model.num_vars(); ++j) {
            lb_local[static_cast<std::size_t>(j)] = model.lower_bound(j);
        }
        lb = &lb_local;
    }
    if (ub == nullptr) {
        ub_local.resize(static_cast<std::size_t>(model.num_vars()));
        for (int j = 0; j < model.num_vars(); ++j) {
            ub_local[static_cast<std::size_t>(j)] = model.upper_bound(j);
        }
        ub = &ub_local;
    }
    for (int j = 0; j < model.num_vars(); ++j) {
        if ((*lb)[static_cast<std::size_t>(j)] == -kInfinity) {
            throw support::Error(support::Errc::InvalidModel,
                                 "simplex: variable '" + model.var_name(j) +
                                     "' has an infinite lower bound (unsupported)");
        }
    }
    BoundedSimplex solver(model, *lb, *ub, options);
    return solver.solve();
}

}  // namespace p4all::ilp
