// Fleet chaos matrix: kill the CONTROLLER at every fleet.* fault point,
// then prove FleetController::recover rebuilds the same fleet from
// fleet.log + the per-tenant journals — placements, levels, and state
// digests intact. Follows the fork/EXPECT_EXIT idiom of
// tests/runtime/chaos_test.cpp (and skips under TSan for the same reason).
//
// The second half is the degradation soak the acceptance bar names: a
// 3-switch / 6-tenant fleet loses a switch, serves every tenant at reduced
// profiles (no tenant lost while capacity suffices), and climbs back to
// full profiles when the switch rejoins.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/temp_path.hpp"
#include "fleet/fleet.hpp"
#include "support/faultpoint.hpp"
#include "workload/cluster.hpp"
#include "workload/trace.hpp"

#if defined(__SANITIZE_THREAD__)
#define P4ALL_CHAOS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define P4ALL_CHAOS_TSAN 1
#endif
#endif

namespace p4all::fleet {
namespace {

FleetOptions chaos_options(const std::string& dir) {
    FleetOptions options;
    options.runtime.compile.backend = compiler::Backend::Greedy;
    options.runtime.exact_portfolio = false;
    options.runtime.drift.window = 256;
    options.runtime.drift.top_k = 16;
    options.journal_root = dir;
    return options;
}

const std::vector<SwitchSpec> kTwoSwitches = {{"sw0", 0}, {"sw1", 0}};
const std::vector<TenantSpec> kOneTenant = {{"t0", "netcache"}};

/// The doomed controller: brings up the fleet, feeds traffic, checkpoints,
/// then walks into a crash armed at `point`. Exits 42 only if the armed
/// point never fired.
[[noreturn]] void crash_child(const std::string& dir, const std::string& point) {
    FleetController fleet(chaos_options(dir), kTwoSwitches, kOneTenant);
    const workload::Trace trace = workload::zipf_trace(512, 128, 1.1, 29);
    for (const std::uint64_t key : trace.keys) fleet.step("t0", key);
    runtime::require_committed(fleet.runtime_of("t0")->reconfigure("checkpoint"));

    support::FaultRegistry::instance().configure(point + ":after=1:crash");
    if (point == "fleet.route") {
        fleet.step("t0", 99);  // dies inside the routing fault check
    } else if (point == "fleet.heartbeat") {
        fleet.tick();  // dies inside the heartbeat probe
    } else {
        fleet.kill_switch(fleet.home_of("t0"));  // dies inside the install
    }
    std::_Exit(42);
}

class FleetChaosMatrix : public ::testing::TestWithParam<std::string> {
protected:
    void TearDown() override {
        support::FaultRegistry::instance().clear();
        std::filesystem::remove_all(dir_);
    }
    std::string dir_ = test_util::temp_path("p4all_fleet_chaos");
};

TEST_P(FleetChaosMatrix, ControllerCrashThenRecoverPreservesTheFleet) {
#if defined(P4ALL_CHAOS_TSAN)
    GTEST_SKIP() << "fork-based chaos cells are not TSan-compatible";
#else
    const std::string point = GetParam();
    std::filesystem::remove_all(dir_);
    EXPECT_EXIT(crash_child(dir_, point), ::testing::KilledBySignal(SIGABRT), "action=crash")
        << point;

    // Restart the controller against the journals the crash left behind.
    FleetRecoveryReport report;
    auto fleet = FleetController::recover(chaos_options(dir_), kTwoSwitches, kOneTenant, &report);
    EXPECT_GT(report.events_replayed, 0u) << point;
    EXPECT_FALSE(fleet->parked("t0")) << point;
    EXPECT_FALSE(fleet->home_of("t0").empty()) << point;
    const std::uint64_t digest = fleet->digest("t0");
    EXPECT_NE(digest, 0u) << point;
    const std::string home = fleet->home_of("t0");

    // The recovered fleet serves and supervises.
    fleet->step("t0", 123);
    fleet->tick();
    EXPECT_GT(fleet->packets_routed(), 0u) << point;

    // Idempotence: recovering again (no traffic in between) lands on the
    // same placement and the identical register state.
    fleet.reset();
    auto again = FleetController::recover(chaos_options(dir_), kTwoSwitches, kOneTenant);
    EXPECT_EQ(again->home_of("t0"), home) << point;
    EXPECT_EQ(again->digest("t0"), digest) << point;
#endif
}

INSTANTIATE_TEST_SUITE_P(AllFleetPoints, FleetChaosMatrix,
                         ::testing::Values("fleet.heartbeat", "fleet.swap", "fleet.route"),
                         [](const auto& info) {
                             std::string name = info.param;
                             for (char& c : name) {
                                 if (c == '.') c = '_';
                             }
                             return name;
                         });

/// 3 switches, 6 tenants, one death, one rejoin: every tenant keeps serving
/// (degraded, never lost — the survivors' SRAM suffices at reduced
/// profiles), and the rejoin restores every tenant to its full profile.
TEST(FleetDegradationSoak, LoseOneOfThreeSwitchesThenClimbBack) {
    const std::string dir = test_util::temp_path("p4all_fleet_soak");
    std::filesystem::remove_all(dir);

    const std::vector<SwitchSpec> switches = {{"sw0", 150000}, {"sw1", 150000},
                                              {"sw2", 150000}};
    const std::vector<TenantSpec> tenants = {{"n0", "netcache"},  {"n1", "netcache"},
                                             {"n2", "netcache"},  {"p0", "precision"},
                                             {"p1", "precision"}, {"p2", "precision"}};
    std::vector<std::string> names;
    for (const TenantSpec& spec : tenants) names.push_back(spec.name);

    FleetController fleet(chaos_options(dir), switches, tenants);
    for (const std::string& name : names) {
        EXPECT_FALSE(fleet.parked(name)) << name;
        EXPECT_EQ(fleet.level_of(name), 0) << name << " admitted degraded on an empty fleet";
    }

    const workload::Trace trace = workload::zipf_drifting_trace(3072, 400, 1.2, 31, 4);
    const auto cluster = workload::split_by_flow(trace, names, 31);

    std::uint64_t fed = 0;
    for (const auto& packet : cluster) {
        if (fed == 1024) fleet.kill_switch("sw2");
        if (fed == 2048) fleet.revive_switch("sw2");
        fleet.step(packet.tenant, packet.key);
        ++fed;
        if (fed % 256 == 0) fleet.tick();

        if (fed == 2048) {
            // Between death and rejoin: everyone still serves, somebody
            // had to shrink, and both survivors honor their budgets.
            for (const std::string& name : names) {
                EXPECT_FALSE(fleet.parked(name)) << name << " lost while capacity sufficed";
            }
            int degraded = 0;
            for (const std::string& name : names) degraded += fleet.level_of(name) > 0 ? 1 : 0;
            EXPECT_GT(degraded, 0) << "two switches cannot hold six full profiles";
        }
    }

    // After the rejoin the ladder climbs all the way back.
    for (const std::string& name : names) {
        EXPECT_FALSE(fleet.parked(name)) << name;
        EXPECT_EQ(fleet.level_of(name), 0) << name << " never restored to its full profile";
        EXPECT_NE(fleet.digest(name), 0u) << name;
    }
    EXPECT_TRUE([&] {
        for (const FleetEvent& event : fleet.events()) {
            if (event.kind == FleetEventKind::Restore) return true;
        }
        return false;
    }()) << "the ascent must be journaled";
    EXPECT_EQ(fleet.packets_dropped(), 0u) << "no packet loss outside parked tenants";

    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace p4all::fleet
