// compile-apps: the p4allc user path. Seven application programs compile
// round-robin in a closed loop (one compile at a time) with default
// CompileOptions, except for a 2 s cap on the MILP search.
//
// Untraced runs call compiler::compile_source, exactly what p4allc does.
// Traced runs compile stage by stage through the same public calls that
// compile() makes, with a span around each, and check afterwards that the
// staged result matches compile()'s utility and P4 text.
#include <algorithm>
#include <memory>
#include <stdexcept>

#include "apps/applications.hpp"
#include "apps/netcache.hpp"
#include "audit/audit.hpp"
#include "common.hpp"
#include "compiler/codegen.hpp"
#include "compiler/greedy.hpp"
#include "compiler/report.hpp"
#include "lang/parser.hpp"
#include "opt/optimizer.hpp"
#include "support/rng.hpp"
#include "verify/dataflow.hpp"

namespace perfbench {

namespace cc = p4all::compiler;

namespace {

struct Program {
    std::string name;
    std::string source;
};

std::vector<Program> programs() {
    namespace apps = p4all::apps;
    return {
        {"netcache", apps::netcache_source()},
        {"sketchlearn-l4", apps::sketchlearn_source(4)},
        {"sketchlearn-l6", apps::sketchlearn_source(6)},
        {"precision", apps::precision_source()},
        {"conquest-s4", apps::conquest_source(4)},
        {"conquest-s6", apps::conquest_source(6)},
        {"flowradar", apps::flowradar_source()},
    };
}

/// compiler::compile, one public call per stage, each under a span. Mirrors
/// src/compiler/compiler.cpp for the ILP backend with artifacts on.
cc::CompileResult staged_compile(const Program& p, const cc::CompileOptions& options,
                                 Tracer& t, std::uint64_t op) {
    using Scope = Tracer::Scope;
    cc::CompileResult result;
    auto artifacts = std::make_shared<cc::CompileArtifacts>();
    artifacts->name = p.name;
    artifacts->backend = "ilp";
    artifacts->target = options.target;

    p4all::lang::Program ast;
    {
        Scope s(t, "lang.parse", op);
        ast = p4all::lang::parse(p.source, p.name + ".p4all");
    }
    {
        Scope s(t, "ir.elaborate", op);
        p4all::ir::ElaborateOptions elab;
        elab.program_name = p.name;
        result.program = p4all::ir::elaborate(ast, elab);
    }
    {
        Scope s(t, "opt.optimize", op);
        p4all::opt::OptResult optres = p4all::opt::optimize(result.program);
        artifacts->optimized = true;
        artifacts->opt_level = options.opt_level;
        artifacts->pre_opt_program = std::move(result.program);
        artifacts->rewrites = optres.rewrites;
        result.program = std::move(optres.program);
    }
    {
        Scope s(t, "analysis.unroll", op);
        result.stats.unroll_bounds =
            p4all::analysis::unroll_bounds_all(result.program, options.target, options.unroll);
    }
    cc::GeneratedIlp gen;
    {
        Scope s(t, "compiler.ilpgen", op);
        gen = cc::generate_ilp(result.program, options.target, result.stats.unroll_bounds,
                               options.ilpgen);
    }
    result.stats.ilp_vars = gen.model.num_vars();
    result.stats.ilp_constraints = gen.model.num_constraints();
    p4all::ilp::SolveOptions solve_opts = options.solve;
    solve_opts.deadline = solve_opts.deadline.merged(options.deadline);
    {
        Scope s(t, "compiler.greedy", op);
        if (const auto greedy = cc::greedy_place(result.program, options.target,
                                                 result.stats.unroll_bounds,
                                                 solve_opts.deadline)) {
            solve_opts.warm_start = cc::warm_start_values(result.program, gen, greedy->layout);
        }
    }
    p4all::ilp::Solution solution;
    {
        Scope s(t, "ilp.solve", op);
        solution = p4all::ilp::solve_milp(gen.model, solve_opts);
    }
    result.stats.bb_nodes = solution.nodes;
    result.stats.lp_iterations = solution.lp_iterations;
    result.stats.solve_seconds = solution.seconds;
    if (solution.values.empty()) {
        throw std::runtime_error("staged compile of '" + p.name + "' found no layout");
    }
    {
        Scope s(t, "compiler.extract", op);
        result.layout = cc::extract_layout(result.program, options.target, gen, solution);
    }
    result.utility = solution.objective;
    {
        Scope s(t, "compiler.audit_layout", op);
        const std::vector<std::string> violations =
            cc::audit_layout(result.program, options.target, result.layout);
        if (!violations.empty()) {
            throw std::runtime_error("staged compile of '" + p.name + "' fails audit_layout");
        }
    }
    artifacts->has_ilp = true;
    artifacts->solution = solution;
    artifacts->solve_options = solve_opts;
    artifacts->ilp = std::move(gen);
    artifacts->layout = result.layout;
    artifacts->claimed_utility = result.utility;
    {
        Scope s(t, "compiler.usage", op);
        artifacts->claimed_usage = cc::compute_usage(result.program, options.target, result.layout);
    }
    {
        Scope s(t, "verify.prove_bounds", op);
        artifacts->proofs = p4all::verify::prove_register_bounds(
                                result.program, cc::dataplane_view(result.program, result.layout))
                                .facts;
    }
    result.artifacts = std::move(artifacts);
    {
        Scope s(t, "compiler.codegen", op);
        result.p4_source = cc::generate_p4(result.program, result.layout, options.deadline);
    }
    return result;
}

}  // namespace

void run_compile_apps(const Options& opt, Tracer& tracer, Result& out) {
    cc::CompileOptions options;
    // The one departure from the defaults: cap each MILP search. The cap is
    // on the solve, not CompileOptions::deadline, which would also cut off
    // code generation (P4ALL-0203) on the programs that hit it.
    options.solve.time_limit_seconds = opt.tiny ? 0.2 : 2.0;

    // Set-up: generate and parse every program, then one untimed warm-up
    // compile. Repeated; the last repetition's inputs are used.
    std::vector<Program> progs;
    const int setups = opt.tiny ? 1 : 7;
    for (int rep = 0; rep < setups; ++rep) {
        const auto t0 = Clock::now();
        const auto g0 = Clock::now();
        progs = programs();
        // The seed only chooses the round-robin order.
        p4all::support::Xoshiro256 rng(opt.seed);
        for (std::size_t i = progs.size(); i > 1; --i) {
            std::swap(progs[i - 1], progs[static_cast<std::size_t>(rng() % i)]);
        }
        out.samples["workload.gen_ms"].push_back(ms_between(g0, Clock::now()));
        for (const Program& p : progs) (void)p4all::lang::parse(p.source, p.name + ".p4all");
        (void)cc::compile_source(p4all::apps::precision_source(), options, "precision");
        out.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    }

    // Timed phase: whole rounds until the time is up, so every program is
    // compiled equally often.
    std::map<std::string, cc::CompileResult> staged_last;
    std::uint64_t op = 0;
    out.start_phase();
    const int phase_span = tracer.open("phase", 0);
    do {
        for (const Program& p : progs) {
            ++op;
            cc::CompileResult r;
            bool ok = true;
            const auto t0 = Clock::now();
            try {
                if (tracer.enabled()) {
                    Tracer::Scope s(tracer, "compile", op);
                    r = staged_compile(p, options, tracer, op);
                } else {
                    r = cc::compile_source(p.source, options, p.name);
                }
            } catch (const std::exception& e) {
                ok = out.check("compile.succeeds", false, p.name + ": " + e.what());
            }
            const double ms = ms_between(t0, Clock::now());
            if (ok) {
                out.check("compile.succeeds", true);
                out.samples["compile_ms." + p.name].push_back(ms);
                const auto& sol = r.artifacts->solution;
                out.samples["compile.unproven"].push_back(sol.optimal() ? 0.0 : 1.0);
                out.samples["utility." + p.name].push_back(r.utility);
                out.samples["ilp.solve_s"].push_back(sol.seconds);
                out.samples["ilp.nodes"].push_back(static_cast<double>(sol.nodes));
                out.samples["ilp.lp_iterations"].push_back(static_cast<double>(sol.lp_iterations));
                out.samples["ilp.cuts"].push_back(static_cast<double>(sol.cuts.size()));
                out.samples["compiler.ilp_vars"].push_back(r.stats.ilp_vars);
                out.samples["compiler.ilp_rows"].push_back(r.stats.ilp_constraints);
                out.samples["compiler.p4_bytes"].push_back(static_cast<double>(r.p4_source.size()));
                out.samples["opt.rewrites"].push_back(
                    static_cast<double>(r.artifacts->rewrites.size()));
                // Output check: the independent audit passes accept the layout.
                Tracer::Scope s(tracer, "audit.artifacts", op);
                const auto audit = p4all::audit::audit_artifacts(r.program, *r.artifacts);
                ok = out.check("audit.artifacts", !audit.has_errors(),
                               p.name + ": " + audit.render());
                if (tracer.enabled()) staged_last[p.name] = std::move(r);
            }
            out.op(ok);
        }
    } while (!opt.tiny && out.phase_elapsed_ms() < opt.seconds * 1e3);
    tracer.close(phase_span);
    out.end_phase();

    // The staged compile must reproduce compile() exactly.
    for (const auto& [name, staged] : staged_last) {
        const auto it = std::find_if(progs.begin(), progs.end(),
                                     [&](const Program& p) { return p.name == name; });
        const cc::CompileResult ref = cc::compile_source(it->source, options, name);
        out.check("trace.staged_matches_compile",
                  ref.utility == staged.utility && ref.p4_source == staged.p4_source,
                  name + ": staged utility " + std::to_string(staged.utility) + " vs " +
                      std::to_string(ref.utility));
    }

    // Utility: the sum over programs of each program's first result.
    for (const Program& p : progs) {
        const auto& u = out.samples["utility." + p.name];
        if (!u.empty()) out.utility += u.front();
    }
}

}  // namespace perfbench
