// Regression: plain compile() — default CompileOptions, as p4allc runs it —
// proves every compile-apps program optimal at its recorded utility within
// a 10 s solve cap. The equal-size and memory-pigeonhole rows of the ILP
// generator are what close netcache, sketchlearn-l6 and conquest-s6.
//
// The drift profiles the elastic runtime recompiles under must prove just as
// quickly: netcache's root bound is already tight at 9 ways, and the
// fix-and-propagate heuristic finds the 9-way placement in a few nodes.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "apps/applications.hpp"
#include "apps/netcache.hpp"
#include "compiler/compiler.hpp"
#include "ilp/solver.hpp"
#include "runtime/drivers.hpp"
#include "workload/trace.hpp"

namespace p4all::compiler {
namespace {

struct RecordedApp {
    const char* name;
    std::string source;
    double utility;
};

std::vector<RecordedApp> recorded_apps() {
    return {
        {"netcache", apps::netcache_source(), 128512.2},
        {"sketchlearn_l4", apps::sketchlearn_source(4), 109374},
        {"sketchlearn_l6", apps::sketchlearn_source(6), 54697.94},
        {"precision", apps::precision_source(), 109372},
        {"conquest_s4", apps::conquest_source(4), 109374},
        {"conquest_s6", apps::conquest_source(6), 54697.94},
        {"flowradar", apps::flowradar_source(), 3527343},
    };
}

class AppOptimality : public ::testing::TestWithParam<int> {};

TEST_P(AppOptimality, DefaultCompileProvesRecordedUtility) {
    const RecordedApp app = recorded_apps()[static_cast<std::size_t>(GetParam())];
    CompileOptions options;
    options.solve.time_limit_seconds = 10.0;
    const CompileResult r = compile_source(app.source, options, app.name);
    ASSERT_NE(r.artifacts, nullptr) << app.name;
    ASSERT_TRUE(r.artifacts->has_ilp) << app.name;
    EXPECT_TRUE(r.artifacts->solution.optimal())
        << app.name << ": " << r.artifacts->solution.error_detail;
    // Utilities are recorded to the two decimals p4allc prints.
    EXPECT_NEAR(r.utility, app.utility, 0.005) << app.name;
}

INSTANTIATE_TEST_SUITE_P(CompileApps, AppOptimality, ::testing::Range(0, 7),
                         [](const ::testing::TestParamInfo<int>& info) {
                             return std::string(
                                 recorded_apps()[static_cast<std::size_t>(info.param)].name);
                         });

struct DriftProfile {
    std::string name;
    std::string source;  // driver source + the profile's assumes
    bool netcache = false;
};

std::string netcache_profile(int cols, int slots) {
    return apps::netcache_source() + "\nassume cms_rows == 2;\nassume cms_cols == " +
           std::to_string(cols) + ";\nassume kv_slots == " + std::to_string(slots) + ";\n";
}

std::vector<DriftProfile> drift_profiles() {
    std::vector<DriftProfile> out;
    // (cms_cols, kv_slots): the driver's cols = 4 x slots diagonal and its
    // neighbours, across the whole clamp range.
    const int pins[][2] = {{256, 128},   {512, 128},   {512, 256},   {1024, 256},
                           {1024, 512},  {2048, 512},  {2048, 1024}, {4096, 1024},
                           {4096, 2048}, {8192, 2048}, {8192, 128}};
    for (const auto& [cols, slots] : pins) {
        out.push_back({"netcache_c" + std::to_string(cols) + "_s" + std::to_string(slots),
                       netcache_profile(cols, slots), true});
    }
    const workload::Trace zipf = workload::zipf_trace(4096, 600, 1.2, 7);
    for (const char* app : {"sketchlearn", "precision", "conquest"}) {
        const runtime::AppDriver d = runtime::make_driver(app);
        out.push_back(
            {std::string(app) + "_empty", d.source + "\n" + d.profile(workload::Trace{}), false});
        out.push_back({std::string(app) + "_zipf600", d.source + "\n" + d.profile(zipf), false});
    }
    return out;
}

class DriftProfileOptimality : public ::testing::TestWithParam<int> {};

TEST_P(DriftProfileOptimality, DefaultCompileProvesInAFewNodes) {
    const DriftProfile p = drift_profiles()[static_cast<std::size_t>(GetParam())];
    CompileOptions options;
    options.solve.time_limit_seconds = 10.0;
    const CompileResult r = compile_source(p.source, options, p.name);
    ASSERT_NE(r.artifacts, nullptr) << p.name;
    ASSERT_TRUE(r.artifacts->has_ilp) << p.name;
    const ilp::Solution& s = r.artifacts->solution;
    EXPECT_TRUE(s.optimal()) << p.name << ": " << s.error_detail;
    // Node counts are deterministic where wall time is not.
    EXPECT_LE(s.nodes, 8) << p.name;
    if (p.netcache) {
        EXPECT_EQ(r.layout.binding(r.program.find_symbol("kv_ways")), 9) << p.name;
    }
}

// 17 = 11 netcache pins + 3 drivers x 2 windows.
INSTANTIATE_TEST_SUITE_P(DriftProfiles, DriftProfileOptimality, ::testing::Range(0, 17),
                         [](const ::testing::TestParamInfo<int>& info) {
                             return drift_profiles()[static_cast<std::size_t>(info.param)].name;
                         });

TEST(DriftProfileDeterminism, NetcacheSearchIsThreadCountInvariant) {
    // The heuristic runs in the serial commit section, so 1, 2 and 8 worker
    // threads walk the same tree to bit-identical results. No warm start:
    // the incumbent is the heuristic's own.
    for (const auto& [cols, slots] : {std::pair{1024, 256}, std::pair{4096, 1024}}) {
        const std::string label = "netcache " + std::to_string(cols) + "/" + std::to_string(slots);
        const CompileResult r = compile_source(netcache_profile(cols, slots), {}, "netcache");
        ASSERT_NE(r.artifacts, nullptr) << label;
        ilp::Solution at[3];
        const int threads[3] = {1, 2, 8};
        for (int t = 0; t < 3; ++t) {
            ilp::SolveOptions opts;
            opts.time_limit_seconds = 10.0;
            opts.threads = threads[t];
            at[t] = ilp::solve_milp(r.artifacts->ilp.model, opts);
        }
        ASSERT_TRUE(at[0].optimal()) << label << ": " << at[0].error_detail;
        for (int t = 1; t < 3; ++t) {
            const std::string where = label + " threads " + std::to_string(threads[t]);
            ASSERT_EQ(at[t].status, at[0].status) << where;
            // Bit-identical: plain == on the doubles, no tolerance.
            EXPECT_EQ(at[t].values, at[0].values) << where;
            EXPECT_EQ(at[t].nodes, at[0].nodes) << where;
            EXPECT_EQ(at[t].lp_iterations, at[0].lp_iterations) << where;
            EXPECT_EQ(at[t].root_duals, at[0].root_duals) << where;
        }
    }
}

}  // namespace
}  // namespace p4all::compiler
