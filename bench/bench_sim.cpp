// BENCH_sim.json: per-packet simulation throughput with and without the
// abstract-interpretation bounds proofs — the checked pipeline (every
// register access re-validated per packet, the historical default) against
// the proved pipeline (accesses the dataflow engine discharged statically
// run without the per-packet check). Same schema and --check gate as
// bench_ilp / bench_compile: dense = checked, sparse = proved, so the
// committed baseline holds the proved path's throughput.
//
// The `<app>-opt` instances are the IR-optimizer series: dense = the
// program as written (-O0), sparse = the rewritten program (-O1) run over
// the transplanted layout, sizes pinned so the constant-propagation
// rewrites fire. Besides the baseline --check, an in-binary gate fails the
// run if any optimized pipeline is slower than its unoptimized twin beyond
// the usual 25% + 5 ms allowance — the optimizer only removes work, so a
// slowdown is a bug.
//
// Usage:
//   bench_sim [--out BENCH_sim.json] [--reps N] [--packets N]
//             [--check baseline.json]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apps/applications.hpp"
#include "apps/netcache.hpp"
#include "bench_json.hpp"
#include "compiler/artifacts.hpp"
#include "compiler/compiler.hpp"
#include "opt/optimizer.hpp"
#include "sim/pipeline.hpp"
#include "support/rng.hpp"
#include "workload/trace.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace p4all;

/// Deterministic packet stream: every benchmark app keys on its packet
/// fields, so fully random field values exercise the hash + register path.
std::vector<sim::Packet> make_trace(const ir::Program& prog, int packets) {
    support::Xoshiro256 rng(0xBE4C);
    std::vector<sim::Packet> trace;
    trace.reserve(static_cast<std::size_t>(packets));
    for (int i = 0; i < packets; ++i) {
        sim::Packet pkt(prog.packet_fields.size(), 0);
        for (std::size_t f = 0; f < pkt.size(); ++f) pkt[f] = 1 + rng.next_below(1'000'000);
        trace.push_back(std::move(pkt));
    }
    return trace;
}

bench::InstanceReport bench_app(const std::string& name, const std::string& source, int reps,
                                int packets) {
    compiler::CompileOptions options;
    options.backend = compiler::Backend::Greedy;
    const compiler::CompileResult r = compiler::compile_source(source, options, name);

    bench::InstanceReport rep;
    rep.name = name;
    rep.kind = "sim";
    rep.vars = static_cast<std::int64_t>(r.artifacts->proofs.size());
    rep.rows = packets;

    const std::vector<sim::Packet> trace = make_trace(r.program, packets);

    const auto run = [&](const sim::Pipeline& fresh) {
        using Clock = std::chrono::steady_clock;
        sim::Pipeline pipe = fresh;
        const auto t0 = Clock::now();
        for (const sim::Packet& pkt : trace) pipe.process(pkt);
        return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    };
    const auto stats_of = [&](std::vector<double> ms, std::int64_t elided) {
        std::sort(ms.begin(), ms.end());
        bench::RunStats s;
        s.median_ms = ms[ms.size() / 2];
        const std::size_t p95 = std::min(
            ms.size() - 1,
            static_cast<std::size_t>(std::ceil(0.95 * static_cast<double>(ms.size()))) - 1);
        s.p95_ms = ms[p95];
        // The stat columns: pivots = bounds checks elided by the proofs,
        // nodes = packets processed per rep.
        s.pivots = elided;
        s.nodes = static_cast<std::int64_t>(trace.size());
        return s;
    };

    const sim::Pipeline checked(r.program, r.layout);
    std::span<const verify::ProofFact> proofs;
    if (r.artifacts) proofs = r.artifacts->proofs;
    const sim::Pipeline proved(r.program, r.layout, proofs);

    // The per-access delta (the index wrap the proofs elide) is a few
    // percent of a packet's interpreter cost, so the two pipelines run in
    // strict alternation: scheduler and frequency drift then lands on both
    // sides equally instead of biasing whichever block ran second.
    run(checked);
    run(proved);  // warm-up: fault in code, trace, and register rows
    std::vector<double> checked_ms, proved_ms;
    for (int i = 0; i < reps; ++i) {
        // Swap the A/B order every other rep so a one-sided slot cost
        // (e.g. the rep right after a timer tick) cannot favour either.
        if (i % 2 == 0) {
            checked_ms.push_back(run(checked));
            proved_ms.push_back(run(proved));
        } else {
            proved_ms.push_back(run(proved));
            checked_ms.push_back(run(checked));
        }
    }
    rep.dense = stats_of(std::move(checked_ms),
                         static_cast<std::int64_t>(checked.bounds_checks_elided()));
    rep.sparse = stats_of(std::move(proved_ms),
                          static_cast<std::int64_t>(proved.bounds_checks_elided()));
    return rep;
}

/// The trace-replay A/B: the same key stream fed from memory (dense)
/// against streamed off the sealed binary trace file through
/// workload::TraceReader (sparse). The delta is the whole record/replay
/// tax — header validation, per-record reads — which the baseline gate
/// holds to the usual allowance so deterministic repro stays cheap enough
/// to run on every chaos failure.
bench::InstanceReport bench_app_replay(const std::string& name, const std::string& source,
                                       int reps, int packets) {
    compiler::CompileOptions options;
    options.backend = compiler::Backend::Greedy;
    const compiler::CompileResult r = compiler::compile_source(source, options, name);

    bench::InstanceReport rep;
    rep.name = name + "-replay";
    rep.kind = "sim-replay";
    rep.rows = packets;

    const workload::Trace trace =
        workload::zipf_trace(static_cast<std::size_t>(packets), 600, 1.2, 0xBE4C);
    const std::string trace_path =
        (std::filesystem::temp_directory_path() / ("p4all_bench_" + name + ".trc")).string();
    workload::save_binary_trace(trace, trace_path);
    rep.vars = static_cast<std::int64_t>(trace.counts.size());

    // Every packet field derives from the key, so both sides process the
    // exact same packets and finish in the exact same register state.
    const auto feed = [&](sim::Pipeline& pipe, std::uint64_t key) {
        sim::Packet pkt(r.program.packet_fields.size(), 0);
        for (std::size_t f = 0; f < pkt.size(); ++f) pkt[f] = 1 + (key + f) % 1'000'000;
        pipe.process(pkt);
    };
    const sim::Pipeline fresh(r.program, r.layout);
    const auto run_memory = [&] {
        using Clock = std::chrono::steady_clock;
        sim::Pipeline pipe = fresh;
        const auto t0 = Clock::now();
        for (const std::uint64_t key : trace.keys) feed(pipe, key);
        return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    };
    const auto run_replay = [&] {
        using Clock = std::chrono::steady_clock;
        sim::Pipeline pipe = fresh;
        const auto t0 = Clock::now();
        workload::TraceReader reader(trace_path);
        std::uint64_t key = 0;
        while (reader.next(key)) feed(pipe, key);
        return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    };
    const auto stats_of = [&](std::vector<double> ms) {
        std::sort(ms.begin(), ms.end());
        bench::RunStats s;
        s.median_ms = ms[ms.size() / 2];
        const std::size_t p95 = std::min(
            ms.size() - 1,
            static_cast<std::size_t>(std::ceil(0.95 * static_cast<double>(ms.size()))) - 1);
        s.p95_ms = ms[p95];
        s.nodes = static_cast<std::int64_t>(trace.size());
        return s;
    };

    run_memory();
    run_replay();  // warm-up: fault in code, file cache, register rows
    std::vector<double> memory_ms, replay_ms;
    for (int i = 0; i < reps; ++i) {
        if (i % 2 == 0) {
            memory_ms.push_back(run_memory());
            replay_ms.push_back(run_replay());
        } else {
            replay_ms.push_back(run_replay());
            memory_ms.push_back(run_memory());
        }
    }
    rep.dense = stats_of(std::move(memory_ms));
    rep.sparse = stats_of(std::move(replay_ms));
    std::filesystem::remove(trace_path);
    return rep;
}

std::string pin(const std::string& sym, std::int64_t value) {
    return "assume " + sym + " == " + std::to_string(value) + ";\n";
}

/// The optimizer A/B: the -O0 program against its -O1 rewrite, both over
/// the same physical layout. `pins` fixes every symbolic size (the
/// rewrites need a singleton sizing view to fire).
bench::InstanceReport bench_app_optimized(const std::string& name, const std::string& source,
                                          const std::string& pins, int reps, int packets) {
    compiler::CompileOptions options;
    options.backend = compiler::Backend::Greedy;
    options.opt_level = 0;
    const compiler::CompileResult r = compiler::compile_source(source + pins, options, name);
    const opt::OptResult o = opt::optimize(r.program);
    const compiler::Layout mapped = compiler::remap_layout_for_optimized(r.layout, o);

    bench::InstanceReport rep;
    rep.name = name + "-opt";
    rep.kind = "sim-opt";
    rep.vars = static_cast<std::int64_t>(o.rewrites.size());
    rep.rows = packets;

    const std::vector<sim::Packet> trace = make_trace(r.program, packets);
    const auto run = [&](const sim::Pipeline& fresh) {
        using Clock = std::chrono::steady_clock;
        sim::Pipeline pipe = fresh;
        const auto t0 = Clock::now();
        for (const sim::Packet& pkt : trace) pipe.process(pkt);
        return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    };
    const auto stats_of = [&](std::vector<double> ms, std::int64_t ops) {
        std::sort(ms.begin(), ms.end());
        bench::RunStats s;
        s.median_ms = ms[ms.size() / 2];
        const std::size_t p95 = std::min(
            ms.size() - 1,
            static_cast<std::size_t>(std::ceil(0.95 * static_cast<double>(ms.size()))) - 1);
        s.p95_ms = ms[p95];
        // pivots = compiled op count of the pipeline, nodes = packets/rep.
        s.pivots = ops;
        s.nodes = static_cast<std::int64_t>(trace.size());
        return s;
    };

    const sim::Pipeline unopt(r.program, r.layout);
    const sim::Pipeline optim(o.program, mapped);
    run(unopt);
    run(optim);  // warm-up
    std::vector<double> unopt_ms, optim_ms;
    for (int i = 0; i < reps; ++i) {
        if (i % 2 == 0) {
            unopt_ms.push_back(run(unopt));
            optim_ms.push_back(run(optim));
        } else {
            optim_ms.push_back(run(optim));
            unopt_ms.push_back(run(unopt));
        }
    }
    rep.dense = stats_of(std::move(unopt_ms),
                         static_cast<std::int64_t>(unopt.compiled_op_count()));
    rep.sparse = stats_of(std::move(optim_ms),
                          static_cast<std::int64_t>(optim.compiled_op_count()));
    return rep;
}

}  // namespace

int main(int argc, char** argv) {
    std::string out_path = "BENCH_sim.json";
    std::string check_path;
    int reps = 21;
    int packets = 30000;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
            check_path = argv[++i];
        } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            reps = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--packets") == 0 && i + 1 < argc) {
            packets = std::atoi(argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: bench_sim [--out file] [--reps N] [--packets N] "
                         "[--check baseline]\n");
            return 2;
        }
    }

    std::string sketchlearn_pins, conquest_pins;
    for (int l = 0; l < 4; ++l) {
        sketchlearn_pins += pin("lvl" + std::to_string(l) + "_rows", 2) +
                            pin("lvl" + std::to_string(l) + "_cols", 128);
        conquest_pins += pin("snap" + std::to_string(l) + "_rows", 2) +
                         pin("snap" + std::to_string(l) + "_cols", 128);
    }
    const std::string netcache_pins = pin("cms_rows", 2) + pin("cms_cols", 256) +
                                      pin("kv_ways", 2) + pin("kv_slots", 64);

    std::vector<bench::InstanceReport> instances;
    instances.push_back(bench_app("netcache", apps::netcache_source(), reps, packets));
    instances.push_back(bench_app("sketchlearn-l4", apps::sketchlearn_source(4), reps, packets));
    instances.push_back(bench_app("precision", apps::precision_source(), reps, packets));
    instances.push_back(bench_app("conquest-s4", apps::conquest_source(4), reps, packets));
    instances.push_back(bench_app_optimized("netcache", apps::netcache_source(), netcache_pins,
                                            reps, packets));
    instances.push_back(bench_app_optimized("sketchlearn-l4", apps::sketchlearn_source(4),
                                            sketchlearn_pins, reps, packets));
    instances.push_back(bench_app_optimized("precision", apps::precision_source(),
                                            pin("hh_ways", 2) + pin("hh_slots", 128), reps,
                                            packets));
    instances.push_back(bench_app_optimized("conquest-s4", apps::conquest_source(4),
                                            conquest_pins, reps, packets));
    instances.push_back(bench_app_replay("netcache", apps::netcache_source(), reps, packets));
    instances.push_back(
        bench_app_replay("sketchlearn-l4", apps::sketchlearn_source(4), reps, packets));
    instances.push_back(bench_app_replay("precision", apps::precision_source(), reps, packets));
    instances.push_back(bench_app_replay("conquest-s4", apps::conquest_source(4), reps, packets));

    bench::print_table(instances);

    // Direct gate: an optimized pipeline must not run slower than its
    // unoptimized twin (same allowance as the baseline check).
    int slower = 0;
    for (const bench::InstanceReport& inst : instances) {
        if (inst.kind != "sim-opt") continue;
        const double allowed = inst.dense.median_ms * 1.25 + 5.0;
        if (inst.sparse.median_ms > allowed) {
            std::fprintf(stderr, "bench_sim: %s optimized %.3f ms > unoptimized allowance %.3f ms\n",
                         inst.name.c_str(), inst.sparse.median_ms, allowed);
            ++slower;
        }
    }
    if (slower > 0) return 1;

    if (!bench::write_report(bench::report_json("sim", instances), out_path)) return 1;
    std::printf("wrote %s\n", out_path.c_str());

    if (!check_path.empty()) {
        const int regressions = bench::check_against_baseline(instances, check_path, "sim");
        if (regressions > 0) {
            std::fprintf(stderr, "bench_sim: %d regression(s) vs %s\n", regressions,
                         check_path.c_str());
            return 1;
        }
    }
    return 0;
}
