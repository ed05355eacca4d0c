// Chaos harness: kill-at-every-journal-point × restart × verify, over all
// four application drivers. Each cell forks (gtest death test), arms a
// `crash` fault at one of the four journaling points, drives a journaled
// runtime into a reconfiguration, and dies by std::abort() at the exact
// point. The parent then runs ElasticRuntime::recover() against the
// fsync'd journal the child left behind and checks the decision table:
//
//   killed at                 journal tail           recovery
//   runtime.journal.intent    (no attempt record)    committed epoch 0
//   runtime.journal.migrate   Intent                 roll back to epoch 0
//   runtime.journal.snapshot  Intent+MigrateDone     roll back to epoch 0
//   runtime.journal.commit    ...+SnapshotDone       roll FORWARD to epoch 1
//
// Recovery must also be idempotent: a second recover() lands on the same
// epoch with a plain `committed` outcome.
//
// Fork-based cells are skipped under ThreadSanitizer (the child compiles
// with worker threads after fork, which TSan's die_after_fork forbids);
// the non-fork journal/recovery tests in journal_test.cpp still ride TSan.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/temp_path.hpp"
#include "runtime/drivers.hpp"
#include "runtime/journal.hpp"
#include "runtime/runtime.hpp"
#include "runtime/snapshot.hpp"
#include "support/faultpoint.hpp"
#include "workload/trace.hpp"

#if defined(__SANITIZE_THREAD__)
#define P4ALL_CHAOS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define P4ALL_CHAOS_TSAN 1
#endif
#endif

namespace p4all::runtime {
namespace {

RuntimeOptions chaos_options(const std::string& dir) {
    RuntimeOptions o;
    o.compile.backend = compiler::Backend::Greedy;
    o.auto_reconfigure = false;
    o.drift.window = 256;
    // Chaos cells measure crash consistency, not layout optimality: the
    // greedy-first portfolio keeps each kill/restart cycle cheap.
    o.exact_portfolio = false;
    o.journal_dir = dir;
    return o;
}

/// The doomed process: brings up a journaled runtime for `app`, feeds half
/// a window of traffic, and attempts one reconfiguration with a crash armed
/// at `point`. Exits 42 only if the armed point never fired.
[[noreturn]] void crash_child(const std::string& app, const std::string& dir,
                              const std::string& point) {
    support::FaultRegistry::instance().configure(point + ":after=1:crash");
    AppDriver driver = make_driver(app);
    ElasticRuntime rt(driver.name, driver.source, chaos_options(dir), driver.profile);
    const workload::Trace trace = workload::zipf_trace(512, 128, 1.1, 11);
    for (const std::uint64_t key : trace.keys) driver.step(rt, key);
    (void)rt.reconfigure("chaos");
    std::_Exit(42);
}

struct ChaosCell {
    const char* point;
    RecoveryReport::Outcome outcome;
    std::uint64_t epoch;
};

constexpr ChaosCell kMatrix[] = {
    {"runtime.journal.intent", RecoveryReport::Outcome::Committed, 0},
    {"runtime.journal.migrate", RecoveryReport::Outcome::RolledBack, 0},
    {"runtime.journal.snapshot", RecoveryReport::Outcome::RolledBack, 0},
    {"runtime.journal.commit", RecoveryReport::Outcome::RolledForward, 1},
};

class ChaosMatrix : public ::testing::TestWithParam<std::string> {
protected:
    void TearDown() override {
        support::FaultRegistry::instance().clear();
        std::filesystem::remove_all(dir_);
    }
    std::string dir_ = test_util::temp_path("p4all_chaos");
};

TEST_P(ChaosMatrix, KillAtEveryJournalPointThenRecover) {
#if defined(P4ALL_CHAOS_TSAN)
    GTEST_SKIP() << "fork-based chaos cells are not TSan-compatible";
#else
    const std::string app = GetParam();
    for (const ChaosCell& cell : kMatrix) {
        std::filesystem::remove_all(dir_);
        // Kill: the child aborts at the armed point; its journal survives.
        EXPECT_EXIT(crash_child(app, dir_, cell.point),
                    ::testing::KilledBySignal(SIGABRT), "action=crash")
            << app << " @ " << cell.point;

        // Restart: recovery classifies the tail per the decision table.
        AppDriver driver = make_driver(app);
        RecoveryReport rep;
        auto rt = ElasticRuntime::recover(driver.name, driver.source, chaos_options(dir_),
                                          driver.profile, &rep);
        EXPECT_EQ(rep.outcome, cell.outcome) << app << " @ " << cell.point << "\n"
                                             << rep.to_string();
        EXPECT_EQ(rt->epoch(), cell.epoch) << app << " @ " << cell.point;
        EXPECT_TRUE(rep.journal_clean) << rep.to_string();

        // Verify: the serving state is bit-identical to the journaled
        // epoch snapshot, and the pipeline still serves packets.
        const Snapshot on_disk =
            load_snapshot(dir_ + "/epoch_" + std::to_string(cell.epoch) + ".json");
        EXPECT_TRUE(on_disk.state_identical(take_snapshot(rt->pipeline(), cell.epoch)))
            << app << " @ " << cell.point;
        EXPECT_NO_THROW(rt->pipeline().process(
            std::vector<std::uint64_t>(rt->pipeline().program().packet_fields.size(), 1)));

        // Idempotence: recovering again lands on the same epoch, now as a
        // plain committed restore.
        rt.reset();
        RecoveryReport again;
        auto rt2 = ElasticRuntime::recover(driver.name, driver.source, chaos_options(dir_),
                                           driver.profile, &again);
        EXPECT_EQ(again.outcome, RecoveryReport::Outcome::Committed)
            << app << " @ " << cell.point << "\n"
            << again.to_string();
        EXPECT_EQ(rt2->epoch(), cell.epoch) << app << " @ " << cell.point;
    }
#endif
}

INSTANTIATE_TEST_SUITE_P(AllApps, ChaosMatrix,
                         ::testing::Values("netcache", "sketchlearn", "precision", "conquest"),
                         [](const auto& info) { return info.param; });

/// Crash → recover → keep reconfiguring → crash again: the journal keeps
/// absorbing restarts without ever losing the committed lineage.
TEST(ChaosCycle, SurvivesRepeatedCrashRestartCycles) {
#if defined(P4ALL_CHAOS_TSAN)
    GTEST_SKIP() << "fork-based chaos cells are not TSan-compatible";
#else
    const std::string dir = test_util::temp_path("p4all_chaos_cycle");
    std::filesystem::remove_all(dir);

    // Cycle 1: die at the commit record of the first swap.
    EXPECT_EXIT(crash_child("netcache", dir, "runtime.journal.commit"),
                ::testing::KilledBySignal(SIGABRT), "action=crash");

    AppDriver driver = make_driver("netcache");
    RecoveryReport rep;
    auto rt = ElasticRuntime::recover(driver.name, driver.source, chaos_options(dir),
                                      driver.profile, &rep);
    EXPECT_EQ(rt->epoch(), 1u) << rep.to_string();

    // The recovered runtime keeps swapping: epoch 2 commits normally.
    const workload::Trace trace = workload::zipf_trace(512, 128, 1.2, 13);
    for (const std::uint64_t key : trace.keys) driver.step(*rt, key);
    require_committed(rt->reconfigure("post-recovery"));
    EXPECT_EQ(rt->epoch(), 2u);
    rt.reset();

    // Cycle 2: a fresh recovery finds the epoch-2 commit at the tail.
    RecoveryReport rep2;
    auto rt2 = ElasticRuntime::recover(driver.name, driver.source, chaos_options(dir),
                                       driver.profile, &rep2);
    EXPECT_EQ(rep2.outcome, RecoveryReport::Outcome::Committed) << rep2.to_string();
    EXPECT_EQ(rt2->epoch(), 2u);
    std::filesystem::remove_all(dir);
#endif
}

}  // namespace
}  // namespace p4all::runtime
