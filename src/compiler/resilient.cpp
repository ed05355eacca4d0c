#include "compiler/resilient.hpp"

#include <chrono>
#include <utility>

#include "ir/elaborate.hpp"
#include "lang/parser.hpp"

namespace p4all::compiler {

using support::Errc;

ResilientError::ResilientError(Errc code, const std::string& message, ResilienceReport rep)
    : support::Error(code, message), report(std::move(rep)) {}

namespace {

using Clock = std::chrono::steady_clock;

/// Cost-perturbation seed of the ilp-bland restart; recorded in its
/// AttemptReport so the restart replays bit-for-bit.
constexpr std::uint64_t kRestartPerturbSeed = 0x5EEDBA5EULL;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

AttemptOutcome classify(Errc code) {
    switch (code) {
        case Errc::DeadlineExceeded: return AttemptOutcome::Timeout;
        case Errc::Cancelled: return AttemptOutcome::Cancelled;
        case Errc::Infeasible: return AttemptOutcome::Infeasible;
        case Errc::NumericalTrouble: return AttemptOutcome::NumericalTrouble;
        case Errc::AuditRejected: return AttemptOutcome::AuditRejected;
        default: return AttemptOutcome::Error;
    }
}

}  // namespace

CompileResult compile_resilient(const lang::Program& ast, const CompileOptions& base,
                                const ResilienceOptions& res, const std::string& name) {
    const auto t_start = Clock::now();
    // `overall` is the nominal budget; `hard` is the absolute stop the
    // acceptance criteria promise (grace for fallbacks, but never more than
    // 2x the budget including codegen).
    const support::Deadline overall =
        support::Deadline::after_seconds(res.budget_seconds, res.cancel);
    const support::Deadline hard =
        support::Deadline::after_seconds(1.8 * res.budget_seconds, res.cancel);

    // Front-end errors (parse already happened; elaboration) are definitive —
    // no backend can fix a malformed program, so they propagate unretried.
    {
        ir::ElaborateOptions eo;
        eo.program_name = name;
        (void)ir::elaborate(ast, eo);
    }

    ResilienceReport report;
    report.budget_seconds = res.budget_seconds;

    CompileResult out;
    bool accepted = false;

    // Runs one backend attempt; returns true when its layout was accepted.
    const auto run_attempt = [&](const std::string& backend, const CompileOptions& opts,
                                 std::uint64_t seed) -> bool {
        AttemptReport a;
        a.backend = backend;
        a.perturb_seed = seed;
        const auto t0 = Clock::now();
        try {
            CompileResult r = compile(ast, opts, name);
            a.seconds = since(t0);
            a.nodes = r.stats.bb_nodes;
            a.lp_iterations = r.stats.lp_iterations;
            a.anytime = r.artifacts->has_ilp &&
                        r.artifacts->solution.status != ilp::SolveStatus::Optimal;
            if (res.external_gate) {
                const std::string rejection = res.external_gate(r.program, *r.artifacts);
                if (!rejection.empty()) {
                    a.outcome = AttemptOutcome::AuditRejected;
                    a.error = Errc::AuditRejected;
                    a.detail = rejection;
                    report.attempts.push_back(std::move(a));
                    return false;
                }
            }
            a.outcome = AttemptOutcome::Success;
            if (a.anytime) a.detail = "anytime incumbent from a truncated search";
            report.final_backend = backend;
            report.anytime = a.anytime;
            report.attempts.push_back(std::move(a));
            out = std::move(r);
            accepted = true;
            return true;
        } catch (const support::Error& e) {
            a.seconds = since(t0);
            a.error = e.code();
            a.detail = e.what();
            a.outcome = classify(e.code());
            report.attempts.push_back(std::move(a));
            return false;
        } catch (const support::CompileError& e) {
            // Legacy unstructured throw from a backend: recorded, not fatal.
            a.seconds = since(t0);
            a.error = Errc::Internal;
            a.detail = e.what();
            a.outcome = AttemptOutcome::Error;
            report.attempts.push_back(std::move(a));
            return false;
        }
    };

    const auto skip = [&](const std::string& backend, const std::string& why) {
        AttemptReport a;
        a.backend = backend;
        a.outcome = AttemptOutcome::Skipped;
        a.detail = why;
        report.attempts.push_back(std::move(a));
    };

    // Every attempt shares the hard pipeline stop so greedy search and
    // codegen stay bounded too. Every ILP rung relaxes its nodes on all
    // cores; the search is bit-identical at any thread count.
    CompileOptions common = base;
    common.deadline = hard;
    common.solve.threads = 0;

    // The caller's backend names the first rung; the portfolio falls through
    // to the cheaper ones from there.
    const bool run_ilp = base.backend == Backend::Ilp;
    const bool run_greedy = base.backend != Backend::Exhaustive;

    // 1. The fast path gets the first (and largest) slice of the budget.
    // `restart_worthwhile` records whether it failed in a way a pivot-path
    // restart could plausibly sidestep.
    bool restart_worthwhile = false;
    if (run_ilp) {
        if (overall.cancelled()) {
            skip("ilp-sparse", "cancellation requested before start");
        } else {
            CompileOptions o = common;
            o.solve.deadline =
                o.solve.deadline.merged(overall.tightened(0.5 * res.budget_seconds));
            if (!run_attempt("ilp-sparse", o, o.solve.lp.perturb_seed)) {
                const AttemptOutcome last = report.attempts.back().outcome;
                restart_worthwhile = last == AttemptOutcome::NumericalTrouble ||
                                     last == AttemptOutcome::AuditRejected;
            }
        }
    }

    // 2. ILP restart: Bland's rule from iteration 0, a reseeded cost
    // perturbation, and root cutting planes disabled — a different pivot
    // path around the breakdown with the numerically simplest root
    // relaxation (no separation rounds, no cut rows in the factorization).
    // Only worth paying for when the first solve hit numerical trouble or
    // shipped a layout the audit refused.
    if (!accepted && run_ilp) {
        if (overall.cancelled()) {
            skip("ilp-bland", "cancellation requested");
        } else if (!restart_worthwhile) {
            skip("ilp-bland", "restart only follows numerical trouble or audit rejection");
        } else {
            CompileOptions o = common;
            o.solve.lp.force_bland = true;
            o.solve.lp.perturb_seed = kRestartPerturbSeed;
            o.solve.cuts_enabled = false;
            o.solve.deadline = hard.tightened(0.3 * res.budget_seconds);
            (void)run_attempt("ilp-bland", o, kRestartPerturbSeed);
        }
    }

    // 3. Optimizer bypass: when an attempt's layout was refused by an audit
    // gate and the compile ran the IR optimizer, retry once at -O0 — a
    // rejected rewrite chain (or an external gate that distrusts it) should
    // not cost the whole compile. No skip record otherwise: the rung only
    // exists after an audit rejection.
    if (!accepted && run_ilp && common.opt_level >= 1) {
        bool saw_audit_rejection = false;
        for (const AttemptReport& a : report.attempts) {
            saw_audit_rejection =
                saw_audit_rejection || a.outcome == AttemptOutcome::AuditRejected;
        }
        if (saw_audit_rejection && !overall.cancelled() && !hard.expired()) {
            CompileOptions o = common;
            o.opt_level = 0;
            o.solve.deadline = hard.tightened(0.3 * res.budget_seconds);
            (void)run_attempt("ilp-O0", o, o.solve.lp.perturb_seed);
        }
    }

    // 4. Greedy: cheap, audit-checked, never claims optimality.
    if (!accepted && run_greedy) {
        if (overall.cancelled()) {
            skip("greedy", "cancellation requested");
        } else if (hard.expired()) {
            skip("greedy", "hard stop reached");
        } else {
            CompileOptions o = common;
            o.backend = Backend::Greedy;
            o.deadline = hard.tightened(0.5 * res.budget_seconds);
            (void)run_attempt("greedy", o, 0);
        }
    }

    // 5. Exhaustive enumeration: tiny models only; the combination cap makes
    // oversized domains a quick structured refusal rather than a blowup.
    if (!accepted) {
        if (overall.cancelled()) {
            skip("exhaustive", "cancellation requested");
        } else if (hard.expired()) {
            skip("exhaustive", "hard stop reached");
        } else {
            CompileOptions o = common;
            o.backend = Backend::Exhaustive;
            o.solve.deadline = hard.tightened(0.4 * res.budget_seconds);
            (void)run_attempt("exhaustive", o, 0);
        }
    }

    report.total_seconds = since(t_start);

    if (!accepted) {
        // Pick the most meaningful failure for the stable top-level code.
        bool saw_cancel = overall.cancelled();
        bool saw_infeasible = false;
        bool saw_audit = false;
        bool saw_timeout = false;
        for (const AttemptReport& a : report.attempts) {
            saw_cancel = saw_cancel || a.outcome == AttemptOutcome::Cancelled;
            saw_infeasible = saw_infeasible || a.outcome == AttemptOutcome::Infeasible;
            saw_audit = saw_audit || a.outcome == AttemptOutcome::AuditRejected;
            saw_timeout = saw_timeout || a.outcome == AttemptOutcome::Timeout;
        }
        const Errc code = saw_cancel       ? Errc::Cancelled
                          : saw_infeasible ? Errc::Infeasible
                          : saw_audit      ? Errc::AuditRejected
                          : saw_timeout    ? Errc::DeadlineExceeded
                                           : Errc::NoLayoutFound;
        throw ResilientError(code,
                             "resilient compile of '" + name + "' failed after " +
                                 std::to_string(report.attempts.size()) + " attempt(s)\n" +
                                 report.to_string(),
                             std::move(report));
    }

    out.resilience = report;
    // Mirror the portfolio record into the (shared, immutable) artifacts so
    // audits and serialized reports carry the provenance too.
    auto arts = std::make_shared<CompileArtifacts>(*out.artifacts);
    arts->resilience = std::move(report);
    out.artifacts = std::move(arts);
    return out;
}

CompileResult compile_resilient_source(std::string_view source, const CompileOptions& options,
                                       const ResilienceOptions& res, const std::string& name) {
    return compile_resilient(lang::parse(source, name + ".p4all"), options, res, name);
}

}  // namespace p4all::compiler
