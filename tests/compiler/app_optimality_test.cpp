// Regression: plain compile() — default CompileOptions, as p4allc runs it —
// proves every compile-apps program optimal at its recorded utility within
// a 10 s solve cap. The equal-size and memory-pigeonhole rows of the ILP
// generator are what close netcache, sketchlearn-l6 and conquest-s6.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "apps/applications.hpp"
#include "apps/netcache.hpp"
#include "compiler/compiler.hpp"

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

}  // namespace
}  // namespace p4all::compiler
