#include "compiler/compiler.hpp"

#include <chrono>

#include "compiler/codegen.hpp"
#include "compiler/greedy.hpp"
#include "compiler/report.hpp"
#include "opt/optimizer.hpp"
#include "lang/parser.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "verify/dataflow.hpp"

namespace p4all::compiler {

using support::CompileError;

namespace {
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}
}  // namespace

CompileResult compile(const lang::Program& ast, const CompileOptions& options,
                      const std::string& name) {
    const auto t_start = Clock::now();
    CompileResult result;
    auto artifacts = std::make_shared<CompileArtifacts>();
    artifacts->name = name;
    artifacts->backend = options.backend == Backend::Greedy       ? "greedy"
                         : options.backend == Backend::Exhaustive ? "exhaustive"
                                                                  : "ilp";
    artifacts->target = options.target;

    auto t0 = Clock::now();
    ir::ElaborateOptions elab_opts;
    elab_opts.program_name = name;
    result.program = ir::elaborate(ast, elab_opts);
    result.stats.elaborate_seconds = since(t0);

    if (options.opt_level >= 1) {
        t0 = Clock::now();
        opt::OptResult optres = opt::optimize(result.program);
        artifacts->optimized = true;
        artifacts->opt_level = options.opt_level;
        artifacts->pre_opt_program = std::move(result.program);
        artifacts->rewrites = optres.rewrites;
        result.program = std::move(optres.program);
        result.stats.opt_seconds = since(t0);
    }

    t0 = Clock::now();
    result.stats.unroll_bounds =
        analysis::unroll_bounds_all(result.program, options.target, options.unroll);
    result.stats.bounds_seconds = since(t0);

    if (options.backend == Backend::Greedy) {
        auto greedy = greedy_place(result.program, options.target, result.stats.unroll_bounds,
                                   options.deadline);
        if (!greedy) {
            if (options.deadline.expired()) {
                throw support::Error(options.deadline.cancelled()
                                         ? support::Errc::Cancelled
                                         : support::Errc::DeadlineExceeded,
                                     "greedy placement for '" + name +
                                         "' cut off before finding a layout");
            }
            throw support::Error(support::Errc::NoLayoutFound,
                                 "program '" + name + "' does not fit target '" +
                                     options.target.name + "' (greedy backend)");
        }
        result.layout = std::move(greedy->layout);
        result.utility = greedy->utility;
    } else {
        t0 = Clock::now();
        GeneratedIlp gen = generate_ilp(result.program, options.target,
                                        result.stats.unroll_bounds, options.ilpgen);
        result.stats.ilpgen_seconds = since(t0);
        result.stats.ilp_vars = gen.model.num_vars();
        result.stats.ilp_constraints = gen.model.num_constraints();

        t0 = Clock::now();
        ilp::SolveOptions solve_opts = options.solve;
        // The whole-pipeline deadline also bounds the solve (tighter wins).
        solve_opts.deadline = solve_opts.deadline.merged(options.deadline);
        ilp::Solution solution;
        if (options.backend == Backend::Exhaustive) {
            solution = ilp::solve_exhaustive(gen.model, options.exhaustive_max_combinations,
                                             solve_opts.deadline);
        } else {
            if (solve_opts.warm_start.empty()) {
                // Seed branch-and-bound with the greedy heuristic's layout:
                // the LP bound is often tight, so a good incumbent prunes
                // most of the tree immediately.
                if (const auto greedy = greedy_place(result.program, options.target,
                                                     result.stats.unroll_bounds,
                                                     solve_opts.deadline)) {
                    solve_opts.warm_start =
                        warm_start_values(result.program, gen, greedy->layout);
                }
            }
            solution = ilp::solve_milp(gen.model, solve_opts);
        }
        result.stats.solve_seconds = since(t0);
        result.stats.bb_nodes = solution.nodes;
        result.stats.lp_iterations = solution.lp_iterations;

        if (solution.status == ilp::SolveStatus::Infeasible) {
            throw support::Error(support::Errc::Infeasible,
                                 "program '" + name + "' does not fit target '" +
                                     options.target.name +
                                     "' under its assume constraints (ILP infeasible)");
        }
        if (!solution.optimal() && solution.values.empty()) {
            const support::Errc code = solution.error != support::Errc::None
                                           ? solution.error
                                           : support::Errc::NoLayoutFound;
            std::string msg = "solve stopped without finding any layout for '" + name + "'";
            if (!solution.error_detail.empty()) msg += " (" + solution.error_detail + ")";
            throw support::Error(code, msg);
        }
        result.layout = extract_layout(result.program, options.target, gen, solution);
        result.utility = solution.objective;
        artifacts->has_ilp = true;
        artifacts->solution = solution;
        artifacts->solve_options = solve_opts;
        artifacts->ilp = std::move(gen);
    }

    const std::vector<std::string> violations =
        audit_layout(result.program, options.target, result.layout);
    if (!violations.empty()) {
        std::string msg = "internal error: compiled layout fails audit:";
        for (const std::string& v : violations) msg += "\n  " + v;
        throw support::Error(support::Errc::AuditRejected, msg);
    }

    // Fault point: simulates artifact-packaging failure (e.g. an I/O or
    // serialization error) after a successful solve.
    if (support::fault_fires("artifacts.emit")) {
        throw support::Error(support::Errc::FaultInjected,
                             "injected fault: artifacts.emit for '" + name + "'");
    }
    artifacts->layout = result.layout;
    artifacts->claimed_utility = result.utility;
    artifacts->claimed_usage = compute_usage(result.program, options.target, result.layout);
    artifacts->proofs =
        verify::prove_register_bounds(result.program, dataplane_view(result.program, result.layout))
            .facts;
    result.artifacts = std::move(artifacts);

    result.p4_source = generate_p4(result.program, result.layout, options.deadline);
    result.stats.total_seconds = since(t_start);
    return result;
}

CompileResult compile_source(std::string_view source, const CompileOptions& options,
                             const std::string& name) {
    return compile(lang::parse(source, name + ".p4all"), options, name);
}

}  // namespace p4all::compiler
