// Shared plumbing for the BENCH_*.json perf harness (bench_ilp,
// bench_compile): repeated-run timing statistics, the JSON report shape,
// and the --check regression gate against a committed baseline.
//
// Report schema (BENCH_ilp.json / BENCH_compile.json):
//
//   {
//     "schema": "p4all-bench/1",
//     "suite": "ilp" | "compile",
//     "instances": [
//       { "name": "...", "kind": "lp" | "milp" | "compile",
//         "vars": 1234, "rows": 56,
//         "dense":  { "median_ms": ..., "p95_ms": ..., "pivots": ..., "nodes": ... },
//         "sparse": { "median_ms": ..., "p95_ms": ..., "pivots": ..., "nodes": ... },
//         "speedup": dense.median_ms / sparse.median_ms }
//     ]
//   }
//
// "sparse" is the measured arm. "dense" is the comparison arm of the A/B
// instances (checked vs proved, -O0 vs -O1, cold start vs recovery, ...);
// the solver instances have none, and their "dense" and "speedup" keys are
// left out.
//
// --check <baseline.json> compares the current run's sparse median against
// the committed baseline ("sparse_ms") per instance name and fails (exit 1)
// on a regression of more than 25% plus a 5 ms absolute floor (the floor
// keeps few-millisecond instances from tripping the gate on scheduler
// noise).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace p4all::bench {

struct RunStats {
    double median_ms = 0.0;
    double p95_ms = 0.0;
    std::int64_t pivots = 0;  // LP iterations of the final run
    std::int64_t nodes = 0;   // branch-and-bound nodes of the final run
};

/// Runs `body` `reps` times and collects wall-time order statistics.
/// `body` returns (pivots, nodes) for the stat columns.
inline RunStats measure(int reps,
                        const std::function<std::pair<std::int64_t, std::int64_t>()>& body) {
    using Clock = std::chrono::steady_clock;
    RunStats stats;
    std::vector<double> ms;
    ms.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        const auto [pivots, nodes] = body();
        ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
        stats.pivots = pivots;
        stats.nodes = nodes;
    }
    std::sort(ms.begin(), ms.end());
    stats.median_ms = ms[ms.size() / 2];
    const std::size_t p95 =
        std::min(ms.size() - 1,
                 static_cast<std::size_t>(std::ceil(0.95 * static_cast<double>(ms.size()))) - 1);
    stats.p95_ms = ms[p95];
    return stats;
}

inline support::Json to_json(const RunStats& s) {
    support::Json j = support::Json::object();
    j.set("median_ms", s.median_ms);
    j.set("p95_ms", s.p95_ms);
    j.set("pivots", s.pivots);
    j.set("nodes", s.nodes);
    return j;
}

struct InstanceReport {
    std::string name;
    std::string kind;
    std::int64_t vars = 0;
    std::int64_t rows = 0;
    RunStats dense;  // comparison arm; median_ms == 0 when there is none
    RunStats sparse;

    [[nodiscard]] double speedup() const {
        return sparse.median_ms > 0.0 ? dense.median_ms / sparse.median_ms : 0.0;
    }
};

inline support::Json report_json(const std::string& suite,
                                 const std::vector<InstanceReport>& instances) {
    support::Json doc = support::Json::object();
    doc.set("schema", "p4all-bench/1");
    doc.set("suite", suite);
    support::Json arr = support::Json::array();
    for (const InstanceReport& inst : instances) {
        support::Json j = support::Json::object();
        j.set("name", inst.name);
        j.set("kind", inst.kind);
        j.set("vars", inst.vars);
        j.set("rows", inst.rows);
        if (inst.dense.median_ms > 0.0) j.set("dense", to_json(inst.dense));
        j.set("sparse", to_json(inst.sparse));
        if (inst.dense.median_ms > 0.0) j.set("speedup", inst.speedup());
        arr.push_back(std::move(j));
    }
    doc.set("instances", std::move(arr));
    return doc;
}

inline void print_table(const std::vector<InstanceReport>& instances) {
    std::printf("%-28s %10s %10s %10s %10s %8s\n", "instance", "dense ms", "sparse ms",
                "pivots", "nodes", "speedup");
    for (const InstanceReport& i : instances) {
        if (i.dense.median_ms > 0.0) {
            std::printf("%-28s %10.3f %10.3f %10lld %10lld %7.2fx\n", i.name.c_str(),
                        i.dense.median_ms, i.sparse.median_ms,
                        static_cast<long long>(i.sparse.pivots),
                        static_cast<long long>(i.sparse.nodes), i.speedup());
        } else {
            std::printf("%-28s %10s %10.3f %10lld %10lld %8s\n", i.name.c_str(), "-",
                        i.sparse.median_ms, static_cast<long long>(i.sparse.pivots),
                        static_cast<long long>(i.sparse.nodes), "-");
        }
    }
}

/// Regression gate: compares each instance's sparse median against the
/// committed baseline (by name; instances missing from the baseline are
/// informational only). Returns the number of regressions found.
inline int check_against_baseline(const std::vector<InstanceReport>& instances,
                                  const std::string& baseline_path, const std::string& suite) {
    std::ifstream in(baseline_path);
    if (!in) {
        std::fprintf(stderr, "bench: cannot read baseline '%s'\n", baseline_path.c_str());
        return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const support::Json base = support::Json::parse(buf.str());
    const support::Json* section = &base;
    // The committed baseline bundles both suites under their names.
    if (base.contains(suite)) section = &base.at(suite);

    int regressions = 0;
    for (const InstanceReport& inst : instances) {
        if (!section->contains(inst.name)) {
            std::printf("check: %-28s (no baseline, recorded %.3f ms)\n", inst.name.c_str(),
                        inst.sparse.median_ms);
            continue;
        }
        const double base_sparse = section->at(inst.name).at("sparse_ms").as_number();
        // +25% and a 5 ms noise floor.
        const double allowed = base_sparse * 1.25 + 5.0;
        if (inst.sparse.median_ms > allowed) {
            std::printf("check: %-28s REGRESSED %.3f ms > allowed %.3f ms\n",
                        inst.name.c_str(), inst.sparse.median_ms, allowed);
            ++regressions;
        } else {
            std::printf("check: %-28s ok (%.3f ms <= %.3f ms)\n", inst.name.c_str(),
                        inst.sparse.median_ms, allowed);
        }
    }
    return regressions;
}

inline bool write_report(const support::Json& doc, const std::string& path) {
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "bench: cannot write '%s'\n", path.c_str());
        return false;
    }
    out << doc.dump(2) << "\n";
    return static_cast<bool>(out);
}

}  // namespace p4all::bench
