// Ablation: stage-window presolve in the ILP generator (x variables
// restricted to dependency-feasible stages). It must leave the optimum
// unchanged; the table shows its effect on model size and solve effort.
#include <cstdio>

#include "apps/netcache.hpp"
#include "compiler/compiler.hpp"

using namespace p4all;

int main() {
    std::printf("Ablation: ILP presolve devices on NetCache (Tofino-like target)\n\n");
    std::printf("%-28s %8s %8s %10s %10s %10s\n", "configuration", "vars", "constrs",
                "bb-nodes", "solve (s)", "utility");

    struct Config {
        const char* label;
        bool windows;
    };
    const std::string source = apps::netcache_source();
    for (const Config cfg : {Config{"stage windows", true}, Config{"no windows", false}}) {
        compiler::CompileOptions opts;
        opts.target = target::tofino_like();
        opts.ilpgen.stage_windows = cfg.windows;
        opts.solve.time_limit_seconds = 30;
        try {
            const compiler::CompileResult r = compiler::compile_source(source, opts, "netcache");
            std::printf("%-28s %8d %8d %10lld %10.2f %10.1f\n", cfg.label, r.stats.ilp_vars,
                        r.stats.ilp_constraints, static_cast<long long>(r.stats.bb_nodes),
                        r.stats.solve_seconds, r.utility);
        } catch (const std::exception& e) {
            std::printf("%-28s FAILED: %s\n", cfg.label, e.what());
        }
    }
    return 0;
}
