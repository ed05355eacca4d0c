// Micro-benchmarks for the MILP substrate: the revised simplex on dense and
// placement-shaped LPs of growing size, branch-and-bound on knapsacks, and
// the effect of cost perturbation on a degeneracy-heavy placement-style LP.
#include <benchmark/benchmark.h>

#include "ilp/solver.hpp"
#include "support/rng.hpp"

namespace {

using namespace p4all::ilp;

/// Random dense feasible LP: n vars in [0, 10], m cover-style rows.
Model random_lp(int n, int m, std::uint64_t seed) {
    p4all::support::Xoshiro256 rng(seed);
    Model model;
    std::vector<Var> vars;
    vars.reserve(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
        vars.push_back(model.add_continuous("x" + std::to_string(j), 0, 10));
    }
    for (int i = 0; i < m; ++i) {
        LinExpr e;
        for (const Var v : vars) {
            const auto c = static_cast<double>(rng.next_below(5));
            if (c != 0.0) e.add(v, c);
        }
        model.add_le(std::move(e), static_cast<double>(10 + rng.next_below(50)));
    }
    LinExpr obj;
    for (const Var v : vars) obj.add(v, 1.0 + static_cast<double>(rng.next_below(9)));
    model.set_objective(obj);
    return model;
}

void BM_SimplexDenseLp(benchmark::State& state) {
    // Dense random LPs are the revised simplex's worst case: its per-pivot
    // cost grows with the nonzeros (see BM_SimplexPlacementShape).
    const int n = static_cast<int>(state.range(0));
    const Model model = random_lp(n, n, 42);
    for (auto _ : state) {
        const LpResult r = solve_lp_sparse(model);
        benchmark::DoNotOptimize(r.objective);
    }
    state.SetLabel("n=m=" + std::to_string(n));
}
BENCHMARK(BM_SimplexDenseLp)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

/// Placement-shaped LP: tall and sparse (each column touches 3 rows), the
/// regime unrolled P4All programs put the solver in.
Model placement_lp(int rows, int cols, std::uint64_t seed) {
    p4all::support::Xoshiro256 rng(seed);
    Model model;
    std::vector<LinExpr> row_exprs(static_cast<std::size_t>(rows));
    LinExpr obj;
    for (int j = 0; j < cols; ++j) {
        const Var v = model.add_continuous("x" + std::to_string(j), 0, 6);
        for (int t = 0; t < 3; ++t) {
            const auto r =
                static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(rows)));
            row_exprs[r].add(v, static_cast<double>(1 + rng.next_below(4)));
        }
        obj.add(v, static_cast<double>(1 + rng.next_below(9)));
    }
    for (auto& e : row_exprs) model.add_le(std::move(e), 50.0);
    model.set_objective(obj);
    return model;
}

void BM_SimplexPlacementShape(benchmark::State& state) {
    const int rows = static_cast<int>(state.range(0));
    const Model model = placement_lp(rows, rows * 12, 5);
    for (auto _ : state) {
        const LpResult r = solve_lp_sparse(model);
        benchmark::DoNotOptimize(r.objective);
    }
    state.SetLabel(std::to_string(rows) + "x" + std::to_string(rows * 12));
}
BENCHMARK(BM_SimplexPlacementShape)->Arg(40)->Arg(100);

void BM_BestFirstParallelKnapsack(benchmark::State& state) {
    // Deterministic parallel best-first search; arg is the thread count
    // (results identical across all of them, by contract).
    p4all::support::Xoshiro256 rng(9);
    Model model;
    LinExpr weight;
    LinExpr value;
    for (int j = 0; j < 20; ++j) {
        const Var v = model.add_binary("b" + std::to_string(j));
        weight.add(v, static_cast<double>(1 + rng.next_below(20)));
        value.add(v, static_cast<double>(1 + rng.next_below(30)));
    }
    model.add_le(std::move(weight), 100.0);
    model.set_objective(value);
    SolveOptions o;
    o.threads = static_cast<int>(state.range(0));
    for (auto _ : state) {
        const Solution s = solve_milp(model, o);
        benchmark::DoNotOptimize(s.objective);
    }
}
BENCHMARK(BM_BestFirstParallelKnapsack)->Arg(1)->Arg(2)->Arg(4);

void BM_BranchBoundKnapsack(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    p4all::support::Xoshiro256 rng(9);
    Model model;
    LinExpr weight;
    LinExpr value;
    for (int j = 0; j < n; ++j) {
        const Var v = model.add_binary("b" + std::to_string(j));
        weight.add(v, static_cast<double>(1 + rng.next_below(20)));
        value.add(v, static_cast<double>(1 + rng.next_below(30)));
    }
    model.add_le(std::move(weight), 5.0 * n);
    model.set_objective(value);
    for (auto _ : state) {
        const Solution s = solve_milp(model);
        benchmark::DoNotOptimize(s.objective);
    }
}
BENCHMARK(BM_BranchBoundKnapsack)->Arg(12)->Arg(20)->Arg(28);

void BM_PerturbationOnDegenerateLp(benchmark::State& state) {
    // Assignment-polytope-style LP with massive dual degeneracy: many
    // identical-cost columns. perturbation on (arg 0) vs off (arg 1).
    const int groups = 12;
    const int slots = 12;
    Model model;
    std::vector<std::vector<Var>> x(groups);
    for (int g = 0; g < groups; ++g) {
        LinExpr one;
        for (int s = 0; s < slots; ++s) {
            const Var v = model.add_binary("x" + std::to_string(g) + "_" + std::to_string(s));
            x[static_cast<std::size_t>(g)].push_back(v);
            one.add(v, 1.0);
        }
        model.add_eq(std::move(one), 1.0);
    }
    for (int s = 0; s < slots; ++s) {
        LinExpr cap;
        for (int g = 0; g < groups; ++g) cap.add(x[static_cast<std::size_t>(g)][static_cast<std::size_t>(s)], 1.0);
        model.add_le(std::move(cap), 1.0);
    }
    LinExpr obj;
    for (int g = 0; g < groups; ++g) {
        for (int s = 0; s < slots; ++s) obj.add(x[static_cast<std::size_t>(g)][static_cast<std::size_t>(s)], 1.0);
    }
    model.set_objective(obj);

    LpOptions lp;
    lp.perturbation = state.range(0) == 0 ? 1e-7 : 0.0;
    for (auto _ : state) {
        const LpResult r = solve_lp_sparse(model, nullptr, nullptr, lp);
        benchmark::DoNotOptimize(r.iterations);
    }
    state.SetLabel(state.range(0) == 0 ? "perturbed" : "unperturbed");
}
BENCHMARK(BM_PerturbationOnDegenerateLp)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
