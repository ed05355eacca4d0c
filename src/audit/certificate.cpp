#include "audit/certificate.hpp"

#include <cmath>
#include <cstddef>

namespace p4all::audit {

using support::Rat;

namespace {

std::size_t idx(int j) { return static_cast<std::size_t>(j); }

const char* sense_spelling(ilp::CmpSense sense) {
    switch (sense) {
        case ilp::CmpSense::Le: return "<=";
        case ilp::CmpSense::Ge: return ">=";
        case ilp::CmpSense::Eq: return "=";
    }
    return "?";
}

std::string row_label(const ilp::Constraint& row, std::size_t i) {
    return row.name.empty() ? "row " + std::to_string(i) : "row '" + row.name + "'";
}

}  // namespace

Rat evaluate_exact(const ilp::LinExpr& expr, const std::vector<Rat>& values) {
    Rat acc = Rat::from_double(expr.constant());
    for (const auto& [var, coeff] : expr.terms()) {
        if (idx(var) >= values.size()) continue;
        acc += Rat::from_double(coeff) * values[idx(var)];
    }
    return acc;
}

std::vector<Rat> exact_values(const ilp::Model& model, const std::vector<double>& values) {
    std::vector<Rat> out(values.size());
    (void)model;
    for (std::size_t j = 0; j < values.size(); ++j) out[j] = Rat::from_double(values[j]);
    return out;
}

CertificateReport check_certificate(const ilp::Model& model,
                                    const std::vector<double>& incumbent,
                                    double claimed_objective, const std::vector<double>& duals,
                                    double bound_slack, const CertificateOptions& options) {
    CertificateReport report;
    const Rat feas_tol = Rat::from_double(options.feas_tol);
    const Rat int_tol = Rat::from_double(options.int_tol);

    if (incumbent.size() != static_cast<std::size_t>(model.num_vars())) {
        report.feasible = false;
        report.violations.push_back("incumbent has " + std::to_string(incumbent.size()) +
                                    " values for " + std::to_string(model.num_vars()) +
                                    " variables");
        return report;
    }
    const std::vector<Rat> x = exact_values(model, incumbent);

    // --- Incumbent: rows ---------------------------------------------------
    const auto& rows = model.constraints();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ilp::Constraint& row = rows[i];
        const Rat act = evaluate_exact(row.expr, x);
        const Rat rhs = Rat::from_double(row.rhs);
        Rat violation = 0;
        switch (row.sense) {
            case ilp::CmpSense::Le: violation = act - rhs; break;
            case ilp::CmpSense::Ge: violation = rhs - act; break;
            case ilp::CmpSense::Eq: violation = (act - rhs).abs(); break;
        }
        if (violation > feas_tol) {
            report.feasible = false;
            report.violations.push_back(row_label(row, i) + ": activity " + act.to_string() +
                                        " violates " + sense_spelling(row.sense) + " " +
                                        std::to_string(row.rhs) + " by " +
                                        std::to_string(violation.to_double()));
        }
    }

    // --- Incumbent: bounds + integrality -----------------------------------
    for (int j = 0; j < model.num_vars(); ++j) {
        const Rat& v = x[idx(j)];
        const double lb = model.lower_bound(j);
        const double ub = model.upper_bound(j);
        if (lb != -ilp::kInfinity && Rat::from_double(lb) - v > feas_tol) {
            report.feasible = false;
            report.violations.push_back("variable '" + model.var_name(j) + "' = " +
                                        v.to_string() + " below lower bound " +
                                        std::to_string(lb));
        }
        if (ub != ilp::kInfinity && v - Rat::from_double(ub) > feas_tol) {
            report.feasible = false;
            report.violations.push_back("variable '" + model.var_name(j) + "' = " +
                                        v.to_string() + " above upper bound " +
                                        std::to_string(ub));
        }
        if (model.var_type(j) != ilp::VarType::Continuous) {
            const Rat nearest(static_cast<std::int64_t>(std::llround(incumbent[idx(j)])));
            if ((v - nearest).abs() > int_tol) {
                report.integral = false;
                report.violations.push_back("integer variable '" + model.var_name(j) + "' = " +
                                            v.to_string() + " is not integral");
            }
        }
    }

    // --- Incumbent: objective ----------------------------------------------
    const Rat exact_obj = evaluate_exact(model.objective(), x);
    report.exact_objective = exact_obj.to_double();
    if ((exact_obj - Rat::from_double(claimed_objective)).abs() >
        Rat::from_double(options.obj_tol)) {
        report.objective_matches = false;
        report.violations.push_back("claimed objective " + std::to_string(claimed_objective) +
                                    " but exact c·x = " + exact_obj.to_string());
    }

    // --- Dual certificate ---------------------------------------------------
    if (duals.empty()) return report;
    if (duals.size() != rows.size()) {
        report.certificate_notes.push_back("dual vector has " + std::to_string(duals.size()) +
                                           " entries for " + std::to_string(rows.size()) +
                                           " rows; certificate skipped");
        return report;
    }
    report.has_certificate = true;

    // Quantize toward zero (sign-preserving), clamp wrong signs to zero.
    // Both keep the weak-duality bound valid.
    std::vector<Rat> y(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        Rat yi = Rat::from_double_quantized(duals[i], options.quant_bits);
        const bool wrong_sign = (rows[i].sense == ilp::CmpSense::Le && yi.negative()) ||
                                (rows[i].sense == ilp::CmpSense::Ge && yi.positive());
        if (wrong_sign) {
            yi = 0;
            ++report.clamped_duals;
        }
        y[i] = yi;
    }
    if (report.clamped_duals > 0) {
        report.certificate_notes.push_back(std::to_string(report.clamped_duals) +
                                           " wrong-signed dual(s) clamped to zero");
    }

    // Reduced costs d_j = c_j − Σ_i y_i·A_ij.
    std::vector<Rat> d(idx(model.num_vars()));
    for (const auto& [var, coeff] : model.objective().terms()) {
        if (idx(var) < d.size()) d[idx(var)] += Rat::from_double(coeff);
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (y[i].is_zero()) continue;
        for (const auto& [var, coeff] : rows[i].expr.terms()) {
            if (idx(var) < d.size()) d[idx(var)] -= y[i] * Rat::from_double(coeff);
        }
    }

    // U = k + Σ y_i·(b_i − const_i) + Σ_j max(d_j·lb_j, d_j·ub_j). Row
    // constants move to the rhs side: row "expr + c (sense) b" is
    // "expr (sense) b − c".
    Rat bound = Rat::from_double(model.objective().constant());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (y[i].is_zero()) continue;
        bound += y[i] * (Rat::from_double(rows[i].rhs) -
                         Rat::from_double(rows[i].expr.constant()));
    }
    for (int j = 0; j < model.num_vars(); ++j) {
        const Rat& dj = d[idx(j)];
        if (dj.is_zero()) continue;
        const double b = dj.positive() ? model.upper_bound(j) : model.lower_bound(j);
        if (b == ilp::kInfinity || b == -ilp::kInfinity) {
            report.bound_finite = false;
            report.certificate_notes.push_back(
                "reduced cost of unbounded variable '" + model.var_name(j) +
                "' is nonzero; certified bound is infinite");
            break;
        }
        bound += dj * Rat::from_double(b);
    }
    if (!report.bound_finite) return report;

    report.certified_bound = bound.to_double();
    report.gap = (bound - exact_obj).to_double();
    // Weak duality: U bounds the true optimum, and the solver's perturbed
    // objective may exceed the true optimum by at most bound_slack. Anything
    // beyond that (+ tol) proves the incumbent or the certificate is a lie.
    const Rat slack = Rat::from_double(bound_slack);
    if (bound + slack + feas_tol < exact_obj) {
        report.bound_valid = false;
        report.bound_violation = "incumbent objective " + exact_obj.to_string() +
                                 " exceeds the certified upper bound " + bound.to_string() +
                                 " (+ perturbation slack " + std::to_string(bound_slack) + ")";
    }
    return report;
}

}  // namespace p4all::audit
