// ElasticRuntime: hitless live reconfiguration end to end — commit paths,
// every rollback path (compile, migration, invariant gate, snapshot gate,
// swap fault), crash-safe save/restore, and the drift-driven recompile loop
// running a real application driver.
#include "runtime/runtime.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "audit/audit.hpp"
#include "common/temp_path.hpp"
#include "runtime/drivers.hpp"
#include "runtime/snapshot.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "support/hash.hpp"
#include "workload/trace.hpp"

namespace p4all::runtime {
namespace {

/// Minimal elastic CMS (the compiler's running example): hash seeds are the
/// row index, so controller-side point queries are easy to reproduce.
const char* kCms = R"(
symbolic int rows;
symbolic int cols;
assume rows >= 1 && rows <= 4;
assume cols >= 64;
packet { bit<32> flow_id; }
metadata {
    bit<32>[rows] index;
    bit<32>[rows] count;
    bit<32> min_val;
}
register<bit<32>>[cols][rows] cms;
action init_min() { set(meta.min_val, 4294967295); }
action incr()[int i] {
    hash(meta.index[i], i, pkt.flow_id, cms[i]);
    reg_add(cms[i], meta.index[i], 1, meta.count[i]);
}
action take_min()[int i] { min(meta.min_val, meta.count[i]); }
control hash_inc { apply { init_min(); for (i < rows) { incr()[i]; } } }
control find_min { apply { for (i < rows) { take_min()[i]; } } }
control ingress { apply { hash_inc.apply(); find_min.apply(); } }
optimize rows * cols;
)";

/// A runtime over kCms whose profile pins the geometry to `*cols` — tests
/// steer reconfigurations by writing the shared value, exactly how a real
/// profile right-sizes to an observed window.
struct CmsHarness {
    std::shared_ptr<std::int64_t> cols = std::make_shared<std::int64_t>(256);
    std::unique_ptr<ElasticRuntime> rt;

    explicit CmsHarness(RuntimeOptions options = {}) {
        options.compile.backend = compiler::Backend::Greedy;
        options.auto_reconfigure = false;
        auto pinned = cols;
        rt = std::make_unique<ElasticRuntime>(
            "cms", kCms, options, [pinned](const workload::Trace&) {
                return "assume rows == 2;\nassume cols == " + std::to_string(*pinned) + ";\n";
            });
    }

    void feed(const workload::Trace& trace) {
        for (const std::uint64_t key : trace.keys) rt->pipeline().process({key});
    }

    std::uint64_t estimate(std::uint64_t key) const {
        const sim::Pipeline& pipe = rt->pipeline();
        std::uint64_t best = ~0ULL;
        for (std::int64_t row = 0;; ++row) {
            const std::int64_t cols_placed = pipe.reg_size("cms", row);
            if (cols_placed == 0) break;
            const auto idx = static_cast<std::int64_t>(support::hash_index(
                key, static_cast<std::uint64_t>(row), static_cast<std::uint64_t>(cols_placed)));
            best = std::min(best, pipe.reg_read("cms", row, idx));
        }
        return best;
    }
};

struct FaultGuard {
    explicit FaultGuard(const std::string& spec) {
        support::FaultRegistry::instance().configure(spec);
    }
    ~FaultGuard() { support::FaultRegistry::instance().clear(); }
};

void expect_audit_clean(const ElasticRuntime& rt) {
    ASSERT_NE(rt.compiled().artifacts, nullptr);
    const verify::LintResult audit =
        audit::audit_artifacts(rt.program(), *rt.compiled().artifacts);
    EXPECT_FALSE(audit.has_errors()) << audit.render();
}

TEST(ElasticRuntime, GrowSwapIsHitlessAndExact) {
    CmsHarness h;
    EXPECT_EQ(h.rt->epoch(), 0u);
    expect_audit_clean(*h.rt);

    const workload::Trace trace = workload::zipf_trace(3000, 250, 1.1, 31);
    h.feed(trace);
    std::map<std::uint64_t, std::uint64_t> before;
    for (const auto& [key, count] : trace.counts) before[key] = h.estimate(key);

    *h.cols = 1024;
    const SwapEvent event = h.rt->reconfigure("grow");
    EXPECT_TRUE(event.committed) << event.detail;
    EXPECT_NO_THROW(require_committed(event));
    EXPECT_TRUE(event.migration_exact);
    EXPECT_TRUE(event.invariants_preserved);
    EXPECT_EQ(event.entries_dropped, 0);
    EXPECT_EQ(event.from_epoch, 0u);
    EXPECT_EQ(event.to_epoch, 1u);
    EXPECT_EQ(h.rt->epoch(), 1u);
    expect_audit_clean(*h.rt);

    // Hitless: every pre-swap estimate reads back unchanged from the new
    // epoch, and the new epoch keeps counting on top of the migrated state.
    for (const auto& [key, est] : before) ASSERT_EQ(h.estimate(key), est) << "key " << key;
    const std::uint64_t probe = trace.keys.front();
    h.rt->pipeline().process({probe});
    EXPECT_EQ(h.estimate(probe), before.at(probe) + 1);
}

TEST(ElasticRuntime, ShrinkSwapKeepsNoUndercount) {
    CmsHarness h;
    *h.cols = 1024;
    require_committed(h.rt->reconfigure("setup"));

    const workload::Trace trace = workload::zipf_trace(3000, 250, 1.1, 37);
    h.feed(trace);

    *h.cols = 256;
    const SwapEvent event = h.rt->reconfigure("shrink");
    EXPECT_TRUE(event.committed) << event.detail;
    EXPECT_FALSE(event.migration_exact);      // folding merges counters
    EXPECT_TRUE(event.invariants_preserved);  // ... but never undercounts
    for (const auto& [key, count] : trace.counts)
        ASSERT_GE(h.estimate(key), count) << "undercount for key " << key;
}

TEST(ElasticRuntime, InvariantGateRejectsNonDivisibleShrink) {
    CmsHarness h;
    h.feed(workload::zipf_trace(500, 100, 1.1, 41));
    const Snapshot before = take_snapshot(h.rt->pipeline());

    *h.cols = 192;  // 256 % 192 != 0: the fold would break no-undercount
    const SwapEvent event = h.rt->reconfigure("bad-shrink");
    EXPECT_FALSE(event.committed);
    EXPECT_NE(event.detail.find("invariant"), std::string::npos) << event.detail;
    EXPECT_EQ(h.rt->epoch(), 0u);
    EXPECT_TRUE(before.state_identical(take_snapshot(h.rt->pipeline())));

    try {
        require_committed(event);
        FAIL() << "expected SwapRejected";
    } catch (const support::Error& e) {
        EXPECT_EQ(e.code(), support::Errc::SwapRejected);
    }
}

TEST(ElasticRuntime, CompileFailureRollsBackCleanly) {
    CmsHarness h;
    h.feed(workload::zipf_trace(500, 100, 1.1, 43));
    const Snapshot before = take_snapshot(h.rt->pipeline());

    *h.cols = 32;  // violates `assume cols >= 64`: the recompile must fail
    const SwapEvent event = h.rt->reconfigure("bad-profile");
    EXPECT_FALSE(event.committed);
    EXPECT_FALSE(event.detail.empty());
    EXPECT_EQ(h.rt->epoch(), 0u);
    EXPECT_TRUE(before.state_identical(take_snapshot(h.rt->pipeline())));
    EXPECT_NO_THROW(h.rt->pipeline().process({1}));  // still serving
}

TEST(ElasticRuntime, SwapAndMigrateFaultsRollBackBitIdentically) {
    for (const char* spec : {"runtime.swap:after=1", "runtime.migrate:after=1"}) {
        CmsHarness h;
        h.feed(workload::zipf_trace(800, 150, 1.1, 47));
        const Snapshot before = take_snapshot(h.rt->pipeline());

        *h.cols = 512;
        {
            FaultGuard guard(spec);
            const SwapEvent event = h.rt->reconfigure("faulted");
            EXPECT_FALSE(event.committed) << spec;
            EXPECT_EQ(h.rt->epoch(), 0u) << spec;
        }
        EXPECT_TRUE(before.state_identical(take_snapshot(h.rt->pipeline()))) << spec;

        // The same reconfiguration succeeds once the fault is disarmed.
        const SwapEvent retry = h.rt->reconfigure("retry");
        EXPECT_TRUE(retry.committed) << spec << ": " << retry.detail;
        EXPECT_EQ(h.rt->epoch(), 1u) << spec;
        EXPECT_EQ(h.rt->history().size(), 2u);
        EXPECT_EQ(h.rt->swaps_committed(), 1u);
    }
}

TEST(ElasticRuntime, SnapshotGateAbortsSwapAndSaveRestoreRoundTrips) {
    const std::string path = test_util::temp_path("runtime_epoch.json");
    std::remove(path.c_str());

    RuntimeOptions options;
    options.snapshot_path = path;
    CmsHarness h(options);
    h.feed(workload::zipf_trace(800, 150, 1.1, 53));

    // A swap whose post-migration snapshot cannot persist is not crash-safe
    // and must not commit.
    *h.cols = 512;
    {
        FaultGuard guard("runtime.snapshot:after=1");
        const SwapEvent event = h.rt->reconfigure("snap-fault");
        EXPECT_FALSE(event.committed);
        EXPECT_NE(event.detail.find("snapshot"), std::string::npos) << event.detail;
        EXPECT_EQ(h.rt->epoch(), 0u);
    }

    const SwapEvent event = h.rt->reconfigure("snap-ok");
    EXPECT_TRUE(event.committed) << event.detail;
    const Snapshot on_disk = load_snapshot(path);
    EXPECT_EQ(on_disk.epoch, 1u);
    EXPECT_TRUE(on_disk.state_identical(take_snapshot(h.rt->pipeline())));

    // Explicit save/restore round trip: state perturbed after the save is
    // rolled back by restore; an injected read failure leaves it untouched.
    h.rt->save();
    h.rt->pipeline().process({12345});
    EXPECT_FALSE(load_snapshot(path).state_identical(take_snapshot(h.rt->pipeline())));
    {
        FaultGuard guard("runtime.restore:after=1");
        EXPECT_THROW(h.rt->restore(), support::Error);
    }
    h.rt->restore();
    EXPECT_TRUE(load_snapshot(path).state_identical(take_snapshot(h.rt->pipeline())));
    std::remove(path.c_str());
}

TEST(ElasticRuntime, DriftLoopReconfiguresUnderDriftingWorkload) {
    AppDriver driver = make_driver("netcache");
    RuntimeOptions options;
    options.drift.window = 512;
    options.drift.top_k = 16;
    options.drift.min_hit_samples = 128;
    ElasticRuntime rt(driver.name, driver.source, options, driver.profile);

    // Four back-to-back Zipf phases over the same universe; every phase
    // boundary rotates the hot set completely, which is exactly the top-k
    // churn signal the detector watches.
    const workload::Trace trace = workload::zipf_drifting_trace(4096, 600, 1.2, 61, 4);
    for (const std::uint64_t key : trace.keys) driver.step(rt, key);

    EXPECT_GE(rt.drift().windows_sampled(), 4u);
    EXPECT_GE(rt.swaps_committed(), 1u) << "drift never triggered a reconfiguration";
    for (const SwapEvent& event : rt.history()) {
        EXPECT_NE(event.trigger.find("drift"), std::string::npos) << event.trigger;
        if (event.committed) {
            EXPECT_TRUE(event.invariants_preserved) << event.detail;
        }
    }
    EXPECT_EQ(rt.packets_total(), trace.keys.size());
    // The serving epoch is a proved optimum, not an incumbent shipped when
    // the recompile budget ran out.
    EXPECT_FALSE(rt.compiled().resilience.anytime);
    expect_audit_clean(rt);
}

TEST(ElasticRuntime, DriverRegistryCoversAllFourApps) {
    EXPECT_EQ(driver_names().size(), 4u);
    for (const std::string& name : driver_names()) {
        const AppDriver driver = make_driver(name);
        EXPECT_EQ(driver.name, name);
        EXPECT_FALSE(driver.source.empty());
        EXPECT_TRUE(static_cast<bool>(driver.step));
        EXPECT_TRUE(static_cast<bool>(driver.profile));
        EXPECT_FALSE(driver.profile(workload::Trace{}).empty());
    }
    EXPECT_THROW((void)make_driver("no-such-app"), support::Error);
}

}  // namespace
}  // namespace p4all::runtime
