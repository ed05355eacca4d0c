// BENCH_compile.json: end-to-end ILP compile latency of every application
// on every core (the configuration every ILP rung of the resilient
// portfolio runs), each compile proved optimal. Same schema and --check
// gate as bench_ilp, so CI can hold compile latency to the committed
// baseline.
//
// The `<app>-opt` instances hold the IR optimizer to its overhead budget:
// dense = the same compile at -O0, sparse = at -O1
// (dataflow analyses + rewrite passes + certificate emission included), so
// the baseline gate fails if optimizing ever costs more than the usual
// 25% + 5 ms over a non-optimizing compile.
//
// Usage:
//   bench_compile [--out BENCH_compile.json] [--reps N] [--check baseline.json]
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "apps/applications.hpp"
#include "apps/netcache.hpp"
#include "bench_json.hpp"
#include "compiler/compiler.hpp"
#include "fleet/fleet.hpp"
#include "runtime/drivers.hpp"
#include "runtime/runtime.hpp"
#include "workload/trace.hpp"

namespace {

using namespace p4all;

bench::InstanceReport bench_app(const std::string& name, const std::string& source, int reps,
                                double budget_seconds) {
    bench::InstanceReport rep;
    rep.name = name;
    rep.kind = "compile";
    compiler::CompileOptions o;
    o.backend = compiler::Backend::Ilp;
    o.solve.threads = 0;
    o.solve.time_limit_seconds = budget_seconds;
    rep.sparse = bench::measure(reps, [&] {
        const compiler::CompileResult r = compiler::compile_source(source, o, name);
        rep.vars = r.stats.ilp_vars;
        rep.rows = r.stats.ilp_constraints;
        return std::pair<std::int64_t, std::int64_t>(r.stats.lp_iterations, r.stats.bb_nodes);
    });
    return rep;
}

/// Optimizer-overhead A/B: the identical compile with the IR optimizer off
/// (dense column) and on (sparse column).
bench::InstanceReport bench_app_opt_level(const std::string& name, const std::string& source,
                                          int reps, double budget_seconds) {
    bench::InstanceReport rep;
    rep.name = name + "-opt";
    rep.kind = "compile-opt";

    const auto run = [&](int opt_level) {
        compiler::CompileOptions o;
        o.backend = compiler::Backend::Ilp;
        o.solve.threads = 0;
        o.solve.time_limit_seconds = budget_seconds;
        o.opt_level = opt_level;
        const compiler::CompileResult r = compiler::compile_source(source, o, name);
        rep.vars = r.stats.ilp_vars;
        rep.rows = r.stats.ilp_constraints;
        return std::pair<std::int64_t, std::int64_t>(r.stats.lp_iterations, r.stats.bb_nodes);
    };

    rep.dense = bench::measure(reps, [&] { return run(0); });
    rep.sparse = bench::measure(reps, [&] { return run(1); });
    return rep;
}

/// Post-recovery warm restart: a cold daemon start (fresh compile +
/// journal bring-up, dense) against ElasticRuntime::recover() from a
/// committed journal (sparse). Recovery recompiles the proven epoch and
/// additionally restores + checksums its snapshot, so the gate holds the
/// crash-restart path to cold-start latency plus the usual allowance — an
/// operator must never fear that recovering is slower than starting over.
bench::InstanceReport bench_app_recover(const std::string& name, int reps) {
    bench::InstanceReport rep;
    rep.name = name + "-recover";
    rep.kind = "compile-recover";

    runtime::AppDriver driver = runtime::make_driver(name);
    runtime::RuntimeOptions options;
    options.compile.backend = compiler::Backend::Greedy;
    options.exact_portfolio = false;
    options.auto_reconfigure = false;

    const std::string cold_dir =
        (std::filesystem::temp_directory_path() / ("p4all_bench_cold_" + name)).string();
    const std::string warm_dir =
        (std::filesystem::temp_directory_path() / ("p4all_bench_warm_" + name)).string();

    // One committed journal for every warm rep (recovery is idempotent).
    std::filesystem::remove_all(warm_dir);
    {
        runtime::RuntimeOptions warm = options;
        warm.journal_dir = warm_dir;
        runtime::ElasticRuntime rt(driver.name, driver.source, warm, driver.profile);
        rep.vars = static_cast<std::int64_t>(rt.pipeline().reg_rows().size());
    }

    rep.dense = bench::measure(reps, [&] {
        std::filesystem::remove_all(cold_dir);
        runtime::RuntimeOptions cold = options;
        cold.journal_dir = cold_dir;
        runtime::ElasticRuntime rt(driver.name, driver.source, cold, driver.profile);
        return std::pair<std::int64_t, std::int64_t>(
            static_cast<std::int64_t>(rt.epoch()), 1);
    });
    rep.sparse = bench::measure(reps, [&] {
        runtime::RuntimeOptions warm = options;
        warm.journal_dir = warm_dir;
        runtime::RecoveryReport report;
        auto rt = runtime::ElasticRuntime::recover(driver.name, driver.source, warm,
                                                   driver.profile, &report);
        return std::pair<std::int64_t, std::int64_t>(
            static_cast<std::int64_t>(rt->epoch()),
            static_cast<std::int64_t>(report.journal_records));
    });
    std::filesystem::remove_all(cold_dir);
    std::filesystem::remove_all(warm_dir);
    return rep;
}

/// Fleet failover latency: a cold two-switch fleet bring-up (dense) against
/// one supervised failover (sparse) — kill the tenant's home, let the
/// controller journal-replay it onto the survivor, revive the old home.
/// Failover re-proves the committed epoch (recompile + snapshot restore +
/// checksum) under the breaker/backoff machinery, so the gate holds the
/// whole detect-evacuate-install path to cold-start latency plus the usual
/// allowance: losing a switch must never cost more than starting over.
bench::InstanceReport bench_app_failover(const std::string& name, int reps) {
    bench::InstanceReport rep;
    rep.name = name + "-failover";
    rep.kind = "fleet-failover";

    fleet::FleetOptions options;
    options.runtime.compile.backend = compiler::Backend::Greedy;
    options.runtime.exact_portfolio = false;
    options.runtime.auto_reconfigure = false;
    const std::vector<fleet::SwitchSpec> switches = {{"swA", 0}, {"swB", 0}};
    const std::vector<fleet::TenantSpec> tenants = {{"t0", name}};

    const std::string cold_root =
        (std::filesystem::temp_directory_path() / ("p4all_bench_fleet_cold_" + name)).string();
    const std::string warm_root =
        (std::filesystem::temp_directory_path() / ("p4all_bench_fleet_warm_" + name)).string();

    rep.dense = bench::measure(reps, [&] {
        std::filesystem::remove_all(cold_root);
        fleet::FleetOptions cold = options;
        cold.journal_root = cold_root;
        fleet::FleetController fc(cold, switches, tenants);
        return std::pair<std::int64_t, std::int64_t>(
            static_cast<std::int64_t>(fc.events().size()), 1);
    });

    // One long-lived fleet with a committed journal; each rep kills the
    // current home (timing the synchronous failover) and revives it so the
    // next rep fails over in the other direction.
    std::filesystem::remove_all(warm_root);
    fleet::FleetOptions warm = options;
    warm.journal_root = warm_root;
    fleet::FleetController fc(warm, switches, tenants);
    const workload::Trace trace = workload::zipf_trace(512, 128, 1.1, 37);
    for (const std::uint64_t key : trace.keys) fc.step("t0", key);
    runtime::require_committed(fc.runtime_of("t0")->reconfigure("bench checkpoint"));
    rep.vars = static_cast<std::int64_t>(fc.runtime_of("t0")->pipeline().reg_rows().size());

    rep.sparse = bench::measure(reps, [&] {
        const std::string dead = fc.home_of("t0");
        fc.kill_switch(dead);
        fc.revive_switch(dead);
        return std::pair<std::int64_t, std::int64_t>(
            static_cast<std::int64_t>(fc.events().size()),
            static_cast<std::int64_t>(fc.packets_routed()));
    });

    std::filesystem::remove_all(cold_root);
    std::filesystem::remove_all(warm_root);
    return rep;
}

}  // namespace

int main(int argc, char** argv) {
    std::string out_path = "BENCH_compile.json";
    std::string check_path;
    int reps = 7;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
            check_path = argv[++i];
        } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            reps = std::atoi(argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: bench_compile [--out file] [--reps N] [--check baseline]\n");
            return 2;
        }
    }

    std::vector<bench::InstanceReport> instances;
    instances.push_back(bench_app("netcache", apps::netcache_source(), reps, 5.0));
    instances.push_back(bench_app("sketchlearn-l4", apps::sketchlearn_source(4), reps, 5.0));
    instances.push_back(bench_app("sketchlearn-l6", apps::sketchlearn_source(6), reps, 5.0));
    instances.push_back(bench_app("precision", apps::precision_source(), reps, 5.0));
    instances.push_back(bench_app("conquest-s4", apps::conquest_source(4), reps, 5.0));
    instances.push_back(bench_app("conquest-s6", apps::conquest_source(6), reps, 5.0));
    instances.push_back(bench_app_opt_level("netcache", apps::netcache_source(), reps, 5.0));
    instances.push_back(
        bench_app_opt_level("sketchlearn-l4", apps::sketchlearn_source(4), reps, 5.0));
    instances.push_back(bench_app_opt_level("precision", apps::precision_source(), reps, 5.0));
    instances.push_back(
        bench_app_opt_level("conquest-s4", apps::conquest_source(4), reps, 5.0));
    instances.push_back(bench_app_recover("netcache", reps));
    instances.push_back(bench_app_recover("sketchlearn", reps));
    instances.push_back(bench_app_recover("precision", reps));
    instances.push_back(bench_app_recover("conquest", reps));
    instances.push_back(bench_app_failover("netcache", reps));
    instances.push_back(bench_app_failover("sketchlearn", reps));
    instances.push_back(bench_app_failover("precision", reps));
    instances.push_back(bench_app_failover("conquest", reps));

    bench::print_table(instances);

    if (!bench::write_report(bench::report_json("compile", instances), out_path)) return 1;
    std::printf("wrote %s\n", out_path.c_str());

    if (!check_path.empty()) {
        const int regressions = bench::check_against_baseline(instances, check_path, "compile");
        if (regressions > 0) {
            std::fprintf(stderr, "bench_compile: %d regression(s) vs %s\n", regressions,
                         check_path.c_str());
            return 1;
        }
    }
    return 0;
}
