// Adversarial workload soak: each app survives three back-to-back live
// swaps while being fed the hostile traffic families from
// workload/adversarial.hpp — a hash-collision flood aimed at its *placed*
// register moduli, a cache-thrash rotation, and a drift storm. Rollbacks
// are allowed (they are the runtime doing its job); corruption never is:
// the committed epoch count must track the serving epoch, every committed
// swap must have preserved its module invariants, the register state must
// snapshot/restore bit-identically, and a crash-style recovery from the
// journal must land on the exact committed epoch.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/temp_path.hpp"
#include "runtime/drivers.hpp"
#include "runtime/runtime.hpp"
#include "runtime/snapshot.hpp"
#include "workload/adversarial.hpp"
#include "workload/trace.hpp"

namespace p4all::runtime {
namespace {

class AdversarialSoak : public ::testing::TestWithParam<std::string> {
protected:
    void TearDown() override { std::filesystem::remove_all(dir_); }
    std::string dir_ = test_util::temp_path("p4all_adversarial");
};

TEST_P(AdversarialSoak, ThreeLiveSwapsUnderHostileTrafficNeverCorruptState) {
    const std::string app = GetParam();
    std::filesystem::remove_all(dir_);

    RuntimeOptions options;
    options.compile.backend = compiler::Backend::Greedy;
    options.exact_portfolio = false;
    options.auto_reconfigure = false;
    options.drift.window = 256;
    options.journal_dir = dir_;

    AppDriver driver = make_driver(app);
    ElasticRuntime rt(driver.name, driver.source, options, driver.profile);

    // Aim the collision flood at a modulus the layout actually placed.
    std::uint64_t modulus = 509;
    for (const sim::RegRowInfo& row : rt.pipeline().reg_rows()) {
        if (row.elems > 1) {
            modulus = static_cast<std::uint64_t>(row.elems);
            break;
        }
    }
    const std::vector<workload::Trace> assault = {
        workload::collision_flood_trace(1024, 16, modulus, 1, 7),
        workload::cache_thrash_trace(1024, 32, 7),
        workload::drift_storm_trace(1024, 128, 1.2, 7, 2),
    };

    for (const workload::Trace& trace : assault) {
        for (const std::uint64_t key : trace.keys) driver.step(rt, key);
        const SwapEvent event = rt.reconfigure("adversarial");
        // Rollbacks are allowed; a committed swap must be a *clean* one.
        if (event.committed) {
            EXPECT_TRUE(event.invariants_preserved) << app << ": " << event.detail;
        }
    }
    EXPECT_GE(rt.history().size(), 3u);
    EXPECT_EQ(rt.epoch(), rt.swaps_committed()) << app;

    // Corruption check 1: the serving state round-trips bit-identically.
    const std::string snap_path = dir_ + "/soak_final.json";
    const Snapshot live = take_snapshot(rt.pipeline(), rt.epoch());
    save_snapshot(live, snap_path);
    EXPECT_TRUE(load_snapshot(snap_path).state_identical(live)) << app;

    // Corruption check 2: recovery from the journal this soak wrote lands
    // exactly on the committed epoch, proven against its checksummed
    // snapshot — the state an operator would get back after a crash.
    const std::uint64_t committed_epoch = rt.epoch();
    RecoveryReport report;
    auto recovered =
        ElasticRuntime::recover(driver.name, driver.source, options, driver.profile, &report);
    EXPECT_EQ(report.outcome, RecoveryReport::Outcome::Committed) << report.to_string();
    EXPECT_EQ(recovered->epoch(), committed_epoch) << app;
    const Snapshot journaled =
        load_snapshot(dir_ + "/epoch_" + std::to_string(committed_epoch) + ".json");
    EXPECT_TRUE(
        journaled.state_identical(take_snapshot(recovered->pipeline(), committed_epoch)))
        << app;
}

INSTANTIATE_TEST_SUITE_P(AllApps, AdversarialSoak,
                         ::testing::Values("netcache", "sketchlearn", "precision", "conquest"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace p4all::runtime
