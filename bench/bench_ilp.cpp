// BENCH_ilp.json: the solver-core perf harness.
//
// Times the solver core — the revised simplex under the deterministic
// best-first search — over (a) the four paper applications' generated MILPs
// at multiple unroll depths, each solved to proven optimality, and (b)
// synthetic placement-style LPs whose size/sparsity mirror deeply unrolled
// programs. Emits median/p95 wall time and pivot and node counts per
// instance (in the report's "sparse" arm).
//
// Usage:
//   bench_ilp [--out BENCH_ilp.json] [--reps N] [--check baseline.json]
//
// --check compares this run's sparse medians against the committed baseline
// (tests/golden/bench_baseline.json) and exits 1 on a >25% regression.
#include <cstring>
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
/// row per tenth column — the shape the simplex folds into bounds). Mirrors the structure ilpgen emits: very tall, very
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
            // assume-style singleton row: the simplex folds it to a bound.
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
/// branch-and-bound with — the configuration the compiler actually ships.
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
    rep.sparse = bench::measure(reps, [&] {
        const ilp::LpResult r = ilp::solve_lp_sparse(model);
        return std::pair<std::int64_t, std::int64_t>(r.iterations, 0);
    });
    return rep;
}

/// Solve-to-completion measurement at default options on every core, under
/// a generous wall-clock budget; the recorded time is the actual solve time.
bench::InstanceReport bench_milp(const std::string& name, const AppMilp& inst, int reps,
                                 double budget_seconds) {
    bench::InstanceReport rep;
    rep.name = name;
    rep.kind = "milp";
    rep.vars = inst.model.num_vars();
    rep.rows = inst.model.num_constraints();
    ilp::SolveOptions o;
    o.threads = 0;  // hardware concurrency
    o.warm_start = inst.warm_start;
    o.time_limit_seconds = budget_seconds;
    rep.sparse = bench::measure(reps, [&] {
        const ilp::Solution s = ilp::solve_milp(inst.model, o);
        return std::pair<std::int64_t, std::int64_t>(s.lp_iterations, s.nodes);
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
    // depth (sketchlearn levels, conquest snapshots) swept upward, each
    // warm-started from the greedy layout and timed to proven optimality.
    instances.push_back(
        bench_milp("netcache", app_milp(apps::netcache_source(), "netcache"), reps, 5.0));
    instances.push_back(bench_milp(
        "sketchlearn-l4", app_milp(apps::sketchlearn_source(4), "sketchlearn"), reps, 5.0));
    instances.push_back(bench_milp(
        "sketchlearn-l6", app_milp(apps::sketchlearn_source(6), "sketchlearn"), reps, 5.0));
    instances.push_back(
        bench_milp("precision", app_milp(apps::precision_source(), "precision"), reps, 5.0));
    instances.push_back(
        bench_milp("conquest-s4", app_milp(apps::conquest_source(4), "conquest"), reps, 5.0));
    instances.push_back(
        bench_milp("conquest-s6", app_milp(apps::conquest_source(6), "conquest"), reps, 5.0));

    // Synthetic placement-style LPs of growing size.
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
