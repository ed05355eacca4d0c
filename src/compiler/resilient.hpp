// Resilient compilation driver: runs a fallback portfolio until one backend
// produces an accepted layout or the portfolio is exhausted. Every ILP rung
// runs branch-and-bound over the sparse revised simplex with the
// deterministic parallel best-first search.
//
//   1. ilp-sparse   the fast path, first choice; anytime like every ILP rung.
//   2. ilp-bland    restart with Bland's rule forced from iteration 0, a
//                   perturbed (logged, reproducible) cost tilt and no root
//                   cuts; tried only after numerical trouble or an audit
//                   rejection, where a different pivot path may sidestep the
//                   breakdown.
//   3. ilp-O0       the same solve with the IR optimizer bypassed; tried only
//                   after an audit rejection of an -O1 compile.
//   4. greedy       heuristic list scheduling — fast, never optimal-claiming.
//   5. exhaustive   full integer enumeration, tiny models only (guarded by
//                   CompileOptions::exhaustive_max_combinations).
//
// CompileOptions::backend names the first rung: Ilp runs the whole
// portfolio, Greedy starts at greedy, Exhaustive runs exhaustive only.
//
// Every attempt is audited (the compiler's built-in audit_layout plus an
// optional external gate such as audit::make_resilience_gate()) before
// acceptance; a rejected layout falls through to the next backend. The
// driver never lets a raw exception escape a backend: each failure is
// recorded as a structured AttemptReport, and total failure raises a
// ResilientError carrying the full ResilienceReport.
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "compiler/compiler.hpp"
#include "compiler/resilience.hpp"
#include "support/deadline.hpp"

namespace p4all::compiler {

struct ResilienceOptions {
    /// Wall-clock budget for the whole portfolio. The driver grants later
    /// backends a bounded grace period past it (anytime semantics: a cheap
    /// fallback may still rescue a compile whose exact search timed out), but
    /// total wall time stays within 2x this budget.
    double budget_seconds = 120.0;
    /// Cooperative cancellation, observed by every phase of every attempt.
    support::CancelToken cancel;

    /// Optional external acceptance gate run over each successful attempt's
    /// artifacts (e.g. audit::make_resilience_gate(), which runs the ten
    /// independent audit passes). Returns an empty string to accept, or a
    /// rejection message; rejection falls through to the next backend. The
    /// driver cannot call the audit layer directly (it links the other way),
    /// hence the injection point.
    std::function<std::string(const ir::Program&, const CompileArtifacts&)> external_gate;
};

/// Total-failure result: every rung the portfolio ran failed or was
/// rejected. The code() is the most meaningful failure in the portfolio
/// (Cancelled > Infeasible > AuditRejected > DeadlineExceeded >
/// NoLayoutFound) and `report` holds the per-attempt record.
class ResilientError : public support::Error {
public:
    ResilientError(support::Errc code, const std::string& message, ResilienceReport rep);
    ResilienceReport report;
};

/// Compiles `ast` through the fallback portfolio. On success the result's
/// `resilience` member (also mirrored into the artifacts) records every
/// attempt; on total failure throws ResilientError. Front-end errors
/// (parse/elaboration) are not retried — they throw immediately.
[[nodiscard]] CompileResult compile_resilient(const lang::Program& ast,
                                              const CompileOptions& options = {},
                                              const ResilienceOptions& res = {},
                                              const std::string& name = "program");

/// Parses and compiles source text through the portfolio.
[[nodiscard]] CompileResult compile_resilient_source(std::string_view source,
                                                     const CompileOptions& options = {},
                                                     const ResilienceOptions& res = {},
                                                     const std::string& name = "program");

}  // namespace p4all::compiler
