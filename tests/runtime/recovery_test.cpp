// Regression: recovery with a journaled-durable epoch whose snapshot file
// has vanished must degrade with a typed P4ALL-0408 note naming the missing
// file — not die inside the generic restore path.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/temp_path.hpp"
#include "runtime/drivers.hpp"
#include "runtime/runtime.hpp"
#include "workload/trace.hpp"

namespace p4all::runtime {
namespace {

RuntimeOptions journaled_options(const std::string& dir) {
    RuntimeOptions o;
    o.compile.backend = compiler::Backend::Greedy;
    o.auto_reconfigure = false;
    o.drift.window = 256;
    o.exact_portfolio = false;
    o.journal_dir = dir;
    return o;
}

class MissingSnapshotTest : public ::testing::Test {
protected:
    void SetUp() override {
        std::filesystem::remove_all(dir_);
        // Commit epoch 1 so the journal records two durable epochs.
        AppDriver driver = make_driver("netcache");
        ElasticRuntime rt(driver.name, driver.source, journaled_options(dir_), driver.profile);
        const workload::Trace trace = workload::zipf_trace(512, 128, 1.1, 17);
        for (const std::uint64_t key : trace.keys) driver.step(rt, key);
        require_committed(rt.reconfigure("test"));
        ASSERT_EQ(rt.epoch(), 1u);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string dir_ = test_util::temp_path("p4all_missing_snap");
};

bool any_note_mentions(const RecoveryReport& rep, const std::string& needle) {
    for (const std::string& note : rep.notes) {
        if (note.find(needle) != std::string::npos) return true;
    }
    return false;
}

TEST_F(MissingSnapshotTest, DegradesPastTheEpochWithATypedNote) {
    ASSERT_TRUE(std::filesystem::remove(dir_ + "/epoch_1.json"));

    AppDriver driver = make_driver("netcache");
    RecoveryReport rep;
    auto rt = ElasticRuntime::recover(driver.name, driver.source, journaled_options(dir_),
                                      driver.profile, &rep);
    EXPECT_EQ(rep.outcome, RecoveryReport::Outcome::Degraded) << rep.to_string();
    EXPECT_EQ(rt->epoch(), 0u);
    EXPECT_TRUE(any_note_mentions(rep, "P4ALL-0408")) << rep.to_string();
    EXPECT_TRUE(any_note_mentions(rep, "epoch_1.json' is missing")) << rep.to_string();
}

TEST_F(MissingSnapshotTest, AllSnapshotsGoneFallsToAFreshEpochZero) {
    ASSERT_TRUE(std::filesystem::remove(dir_ + "/epoch_0.json"));
    ASSERT_TRUE(std::filesystem::remove(dir_ + "/epoch_1.json"));

    AppDriver driver = make_driver("netcache");
    RecoveryReport rep;
    auto rt = ElasticRuntime::recover(driver.name, driver.source, journaled_options(dir_),
                                      driver.profile, &rep);
    EXPECT_EQ(rt->epoch(), 0u);
    EXPECT_TRUE(any_note_mentions(rep, "P4ALL-0408")) << rep.to_string();
    EXPECT_TRUE(any_note_mentions(rep, "state lost")) << rep.to_string();
    // The recovered runtime still serves and can swap again.
    AppDriver fresh = make_driver("netcache");
    const workload::Trace trace = workload::zipf_trace(512, 128, 1.2, 19);
    for (const std::uint64_t key : trace.keys) fresh.step(*rt, key);
    require_committed(rt->reconfigure("post-degraded-recovery"));
}

}  // namespace
}  // namespace p4all::runtime
