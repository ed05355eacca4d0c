// BENCH_ilp.json: the solver-core perf harness.
//
// Times the sparse revised simplex against the dense tableau baseline (for
// the MILPs, both under the same deterministic best-first search) over (a) the four paper
// applications' generated MILPs at multiple unroll depths and (b) synthetic
// placement-style LPs whose size/sparsity mirror deeply unrolled programs —
// the regime the sparse backend exists for. Emits median/p95 wall time,
// pivot and node counts, and the dense/sparse speedup per instance.
//
// Usage:
//   bench_ilp [--out BENCH_ilp.json] [--reps N] [--check baseline.json]
//
// --check compares this run's sparse medians against the committed baseline
// (tests/golden/bench_baseline.json) and exits 1 on a >25% regression.
#include <cstring>
#include <tuple>
#include <string>
#include <utility>
#include <vector>

#include "analysis/unroll.hpp"
#include "apps/applications.hpp"
#include "apps/netcache.hpp"
#include "bench_json.hpp"
#include "compiler/greedy.hpp"
#include "compiler/ilpgen.hpp"
#include "ilp/revised_simplex.hpp"
#include "ilp/solver.hpp"
#include "ir/elaborate.hpp"
#include "lang/parser.hpp"
#include "support/rng.hpp"
#include "target/spec.hpp"

namespace {

using namespace p4all;

/// Synthetic placement-style LP: `cols` columns, each touching `touch`
/// random rows of `rows` capacity constraints (plus a singleton "assume"
/// row per tenth column — the shape the sparse backend's presolve folds
/// into bounds). Mirrors the structure ilpgen emits: very tall, very
/// sparse, every coefficient small and positive.
ilp::Model synthetic_lp(int rows, int cols, std::uint64_t seed) {
    support::Xoshiro256 rng(seed);
    ilp::Model m;
    std::vector<ilp::Var> vars;
    std::vector<ilp::LinExpr> row_exprs(static_cast<std::size_t>(rows));
    vars.reserve(static_cast<std::size_t>(cols));
    ilp::LinExpr obj;
    for (int j = 0; j < cols; ++j) {
        const ilp::Var v = m.add_continuous("x" + std::to_string(j), 0, 6);
        vars.push_back(v);
        const int touch = 3;
        for (int t = 0; t < touch; ++t) {
            const auto r = static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(rows)));
            row_exprs[r].add(v, static_cast<double>(1 + rng.next_below(4)));
        }
        obj.add(v, static_cast<double>(1 + rng.next_below(9)));
        if (j % 10 == 0) {
            // assume-style singleton row: folds to a bound in the sparse
            // backend, stays an explicit row in the dense tableau.
            m.add_le(ilp::LinExpr().add(v, 1.0), 5.0);
        }
    }
    for (int i = 0; i < rows; ++i) {
        m.add_le(std::move(row_exprs[static_cast<std::size_t>(i)]),
                 static_cast<double>(40 + rng.next_below(60)));
    }
    m.set_objective(obj);
    return m;
}

/// An application MILP plus the greedy warm start the compiler would seed
/// branch-and-bound with. Benchmarks run warm-started on both backends —
/// that is the configuration the compiler actually ships, and it keeps the
/// instances whose root gap is not test-closable (netcache) from turning
/// into pure budget burners with no incumbent.
struct AppMilp {
    ilp::Model model;
    std::vector<double> warm_start;
};

AppMilp app_milp(const std::string& source, const std::string& name) {
    const ir::Program prog =
        ir::elaborate(lang::parse(source, name + ".p4all"), {.program_name = name});
    const target::TargetSpec target = target::tofino_like();
    const auto bounds = analysis::unroll_bounds_all(prog, target);
    compiler::GeneratedIlp gen = compiler::generate_ilp(prog, target, bounds);
    AppMilp inst;
    if (const auto greedy = compiler::greedy_place(prog, target, bounds)) {
        inst.warm_start = compiler::warm_start_values(prog, gen, greedy->layout);
    }
    inst.model = std::move(gen.model);
    return inst;
}

bench::InstanceReport bench_lp(const std::string& name, const ilp::Model& model, int reps) {
    bench::InstanceReport rep;
    rep.name = name;
    rep.kind = "lp";
    rep.vars = model.num_vars();
    rep.rows = model.num_constraints();
    rep.dense = bench::measure(reps, [&] {
        const ilp::LpResult r = ilp::solve_lp_with(ilp::LpBackend::Dense, model);
        return std::pair<std::int64_t, std::int64_t>(r.iterations, 0);
    });
    rep.sparse = bench::measure(reps, [&] {
        const ilp::LpResult r = ilp::solve_lp_with(ilp::LpBackend::Sparse, model);
        return std::pair<std::int64_t, std::int64_t>(r.iterations, 0);
    });
    return rep;
}

ilp::SolveOptions dense_options(const AppMilp& inst, double budget_seconds) {
    ilp::SolveOptions o;  // dense tableau, one thread: compile()'s default
    o.threads = 1;
    o.warm_start = inst.warm_start;
    o.time_limit_seconds = budget_seconds;
    return o;
}

ilp::SolveOptions sparse_options(const AppMilp& inst, double budget_seconds) {
    ilp::SolveOptions o;
    o.lp_backend = ilp::LpBackend::Sparse;
    o.threads = 0;  // hardware concurrency
    o.warm_start = inst.warm_start;
    o.time_limit_seconds = budget_seconds;
    return o;
}

/// Solve-to-completion measurement: both engines run the whole solve under a
/// generous wall-clock budget; the recorded time is the actual solve time.
bench::InstanceReport bench_milp(const std::string& name, const AppMilp& inst, int reps,
                                 double budget_seconds) {
    bench::InstanceReport rep;
    rep.name = name;
    rep.kind = "milp";
    rep.vars = inst.model.num_vars();
    rep.rows = inst.model.num_constraints();
    rep.dense = bench::measure(reps, [&] {
        const ilp::Solution s = ilp::solve_milp(inst.model, dense_options(inst, budget_seconds));
        return std::pair<std::int64_t, std::int64_t>(s.lp_iterations, s.nodes);
    });
    rep.sparse = bench::measure(reps, [&] {
        const ilp::Solution s = ilp::solve_milp(inst.model, sparse_options(inst, budget_seconds));
        return std::pair<std::int64_t, std::int64_t>(s.lp_iterations, s.nodes);
    });
    return rep;
}

/// Goal-under-cap measurement (PAR-1 scoring, see measure_capped) for the
/// instances where a shared time budget would measure the budget rather
/// than the solver. Each engine gets a goal and a wall-clock cap:
///
///  - node_budget > 0: search throughput. Process `node_budget`
///    branch-and-bound nodes (or finish the whole tree early). The deep
///    l6/s6 unrolls carry an honest structural integrality gap no engine
///    closes at bench scale, so the measurable quantity is the per-node LP
///    cost — exactly what warm-started dual simplex exists to cut.
///  - node_budget == 0: solve to optimality at `gap_relative` (netcache: the
///    production-default 1e-4 relative gap, which its 1.4e-5 big-M bound
///    plateau satisfies; the shipping compiler solves it the same way).
///
/// A run that meets its goal scores its actual time; a run that aborts
/// first — the dense tableau bails with numerical trouble on these models
/// after a handful of nodes — scores the cap. Both engines run warm-started
/// from the greedy layout, the compiler's real configuration.
bench::InstanceReport bench_milp_capped(const std::string& name, const AppMilp& inst,
                                        int reps, std::int64_t node_budget,
                                        double cap_seconds, double gap_relative = 0.0) {
    bench::InstanceReport rep;
    rep.name = name;
    rep.kind = "milp";
    rep.vars = inst.model.num_vars();
    rep.rows = inst.model.num_constraints();
    const auto run = [&](ilp::SolveOptions o) {
        if (node_budget > 0) o.max_nodes = node_budget;
        if (gap_relative > 0.0) o.gap_relative = gap_relative;
        const ilp::Solution s = ilp::solve_milp(inst.model, o);
        const bool done_tree = s.status == ilp::SolveStatus::Optimal ||
                               s.status == ilp::SolveStatus::Infeasible;
        const bool done_budget = node_budget > 0 && s.nodes >= node_budget;
        return std::tuple<std::int64_t, std::int64_t, bool>(s.lp_iterations, s.nodes,
                                                            done_budget || done_tree);
    };
    rep.dense = bench::measure_capped(reps, cap_seconds * 1000.0, [&] {
        return run(dense_options(inst, cap_seconds));
    });
    rep.sparse = bench::measure_capped(reps, cap_seconds * 1000.0, [&] {
        return run(sparse_options(inst, cap_seconds));
    });
    return rep;
}

}  // namespace

int main(int argc, char** argv) {
    std::string out_path = "BENCH_ilp.json";
    std::string check_path;
    int reps = 9;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
            check_path = argv[++i];
        } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            reps = std::atoi(argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: bench_ilp [--out file] [--reps N] [--check baseline]\n");
            return 2;
        }
    }

    std::vector<bench::InstanceReport> instances;

    // The four applications, with the elastic knobs that control unroll
    // depth (sketchlearn levels, conquest snapshots) swept upward. Every
    // instance is warm-started from the greedy layout (the compiler's real
    // configuration). Instances both engines can solve to optimality are
    // timed to completion; the rest run goal-under-cap (bench_milp_capped):
    // netcache as a capped solve at the production-default relative gap, the
    // deep l6/s6 unrolls — whose structural integrality gap no engine closes
    // at bench scale — as fixed-node-budget search throughput.
    instances.push_back(bench_milp_capped(
        "netcache", app_milp(apps::netcache_source(), "netcache"), reps, 0, 4.0, 1e-4));
    instances.push_back(bench_milp(
        "sketchlearn-l4", app_milp(apps::sketchlearn_source(4), "sketchlearn"), reps, 5.0));
    instances.push_back(bench_milp_capped(
        "sketchlearn-l6", app_milp(apps::sketchlearn_source(6), "sketchlearn"), reps, 512, 6.0));
    instances.push_back(
        bench_milp("precision", app_milp(apps::precision_source(), "precision"), reps, 5.0));
    instances.push_back(
        bench_milp("conquest-s4", app_milp(apps::conquest_source(4), "conquest"), reps, 5.0));
    instances.push_back(bench_milp_capped(
        "conquest-s6", app_milp(apps::conquest_source(6), "conquest"), reps, 512, 6.0));

    // Synthetic placement-style LPs, growing to the regime where the dense
    // tableau's O(m·n) pivots dominate.
    instances.push_back(bench_lp("synthetic-lp-40x400", synthetic_lp(40, 400, 11), reps));
    instances.push_back(bench_lp("synthetic-lp-80x1200", synthetic_lp(80, 1200, 12), reps));
    instances.push_back(bench_lp("synthetic-lp-120x2400", synthetic_lp(120, 2400, 13), reps));

    bench::print_table(instances);

    if (!bench::write_report(bench::report_json("ilp", instances), out_path)) return 1;
    std::printf("wrote %s\n", out_path.c_str());

    if (!check_path.empty()) {
        const int regressions = bench::check_against_baseline(instances, check_path, "ilp");
        if (regressions > 0) {
            std::fprintf(stderr, "bench_ilp: %d regression(s) vs %s\n", regressions,
                         check_path.c_str());
            return 1;
        }
    }
    return 0;
}
