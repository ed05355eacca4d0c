// The static migration planner (ISSUE tentpole): its verdicts must track
// the dynamic migrator row-for-row on the power-of-two lattice — a row is
// Unsafe exactly when migrate_state reports the invariant lost, and a
// static Exact row must migrate exactly — and ElasticRuntime must use the
// plan to reject an unsafe swap before the migrator ever executes.
#include "runtime/migrate_static.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "apps/applications.hpp"
#include "apps/netcache.hpp"
#include "compiler/compiler.hpp"
#include "runtime/migrate.hpp"
#include "runtime/runtime.hpp"
#include "runtime/snapshot.hpp"
#include "sim/pipeline.hpp"
#include "support/faultpoint.hpp"
#include "support/rng.hpp"
#include "verify/lint.hpp"
#include "workload/trace.hpp"

namespace p4all::runtime {
namespace {

compiler::CompileResult compile_pinned(const std::string& source, const std::string& pins,
                                       const std::string& name) {
    compiler::CompileOptions options;
    options.backend = compiler::Backend::Greedy;
    return compiler::compile_source(source + pins, options, name);
}

std::string pin(const std::string& sym, std::int64_t value) {
    return "assume " + sym + " == " + std::to_string(value) + ";\n";
}

/// One from->to resize case over a named app source.
struct LatticeCase {
    const char* label;
    std::string source;
    std::string from_pins;
    std::string to_pins;
};

std::vector<LatticeCase> lattice_cases() {
    const std::string nc = apps::netcache_source();
    const std::string pr = apps::precision_source();
    const auto nc_pins = [](std::int64_t cols, std::int64_t slots) {
        return pin("cms_rows", 2) + pin("cms_cols", cols) + pin("kv_ways", 2) +
               pin("kv_slots", slots);
    };
    const auto pr_pins = [](std::int64_t slots) {
        return pin("hh_ways", 2) + pin("hh_slots", slots);
    };
    // The inter-level / inter-snapshot equality assumes propagate the
    // level-0 / snapshot-0 pins.
    const std::string sl = apps::sketchlearn_source();
    const auto sl_pins = [](std::int64_t rows, std::int64_t cols) {
        return pin("lvl0_rows", rows) + pin("lvl0_cols", cols);
    };
    const std::string cq = apps::conquest_source();
    const auto cq_pins = [](std::int64_t rows, std::int64_t cols) {
        return pin("snap0_rows", rows) + pin("snap0_cols", cols);
    };
    return {
        {"netcache-identical", nc, nc_pins(256, 64), nc_pins(256, 64)},
        {"netcache-pow2-grow", nc, nc_pins(256, 64), nc_pins(1024, 256)},
        {"netcache-pow2-shrink", nc, nc_pins(1024, 256), nc_pins(256, 64)},
        {"netcache-offlattice-shrink", nc, nc_pins(256, 64), nc_pins(192, 64)},
        {"precision-pow2-grow", pr, pr_pins(128), pr_pins(512)},
        {"precision-pow2-shrink", pr, pr_pins(512), pr_pins(64)},
        {"sketchlearn-pow2-grow", sl, sl_pins(2, 128), sl_pins(2, 512)},
        {"sketchlearn-pow2-shrink", sl, sl_pins(2, 512), sl_pins(2, 64)},
        {"sketchlearn-offlattice-grow", sl, sl_pins(2, 128), sl_pins(2, 192)},
        {"sketchlearn-added-row", sl, sl_pins(1, 128), sl_pins(2, 128)},
        {"conquest-pow2-grow", cq, cq_pins(2, 64), cq_pins(2, 256)},
        {"conquest-pow2-shrink", cq, cq_pins(2, 256), cq_pins(2, 128)},
        {"conquest-offlattice-shrink", cq, cq_pins(2, 256), cq_pins(2, 192)},
    };
}

/// Pours deterministic traffic into a pipeline through its first packet
/// field (every benchmark app keys on it).
void feed(const ir::Program& prog, sim::Pipeline& pipe, std::uint64_t seed) {
    support::Xoshiro256 rng(seed);
    sim::Packet pkt(prog.packet_fields.size(), 0);
    for (int i = 0; i < 500; ++i) {
        for (std::size_t f = 0; f < pkt.size(); ++f) pkt[f] = 1 + rng.next_below(100'000);
        pipe.process(pkt);
    }
}

TEST(MigrateStatic, VerdictsTrackTheDynamicMigratorRowForRow) {
    for (const LatticeCase& c : lattice_cases()) {
        const auto from = compile_pinned(c.source, c.from_pins, "lattice");
        const auto to = compile_pinned(c.source, c.to_pins, "lattice");

        const StaticMigrationPlan plan =
            plan_migration(from.program, from.layout, to.program, to.layout);
        ASSERT_FALSE(plan.rows.empty()) << c.label;

        sim::Pipeline src(from.program, from.layout);
        feed(from.program, src, 0xFEED);
        sim::Pipeline dst(to.program, to.layout);
        const MigrationReport report = migrate_state(src, dst);

        std::map<std::pair<std::string, std::int64_t>, const RowMigration*> dynamic;
        for (const RowMigration& row : report.rows) dynamic[{row.reg, row.instance}] = &row;

        for (const StaticRowVerdict& v : plan.rows) {
            const auto it = dynamic.find({v.reg, v.instance});
            ASSERT_NE(it, dynamic.end())
                << c.label << ": static row " << v.reg << "_" << v.instance
                << " missing from the dynamic report";
            const RowMigration& d = *it->second;
            EXPECT_EQ(v.policy, d.policy) << c.label << ": " << v.reg << "_" << v.instance;
            EXPECT_EQ(v.old_elems, d.old_elems) << c.label << ": " << v.reg;
            EXPECT_EQ(v.new_elems, d.new_elems) << c.label << ": " << v.reg;
            // The contract (migrate_static.hpp): Unsafe <=> invariant lost,
            // and a static Exact promise must hold dynamically.
            EXPECT_EQ(v.safety != MigrationSafety::Unsafe, d.invariant_preserved)
                << c.label << ": " << v.reg << "_" << v.instance << " (" << v.policy << " "
                << v.old_elems << " -> " << v.new_elems << ")";
            if (v.safety == MigrationSafety::Exact) {
                EXPECT_TRUE(d.exact)
                    << c.label << ": " << v.reg << "_" << v.instance << " promised exact";
            }
        }
        EXPECT_EQ(plan.invariants_preserved(), report.invariants_preserved()) << c.label;
        // Dynamic rows are exactly the destination rows the plan covered.
        EXPECT_EQ(plan.rows.size(), report.rows.size()) << c.label;
    }
}

TEST(MigrateStatic, OffLatticeShrinkIsUnsafeWithAReason) {
    const std::string nc = apps::netcache_source();
    const auto a = compile_pinned(nc,
                                  pin("cms_rows", 2) + pin("cms_cols", 256) +
                                      pin("kv_ways", 2) + pin("kv_slots", 64),
                                  "a");
    const auto b = compile_pinned(nc,
                                  pin("cms_rows", 2) + pin("cms_cols", 192) +
                                      pin("kv_ways", 2) + pin("kv_slots", 64),
                                  "b");
    const StaticMigrationPlan plan = plan_migration(a.program, a.layout, b.program, b.layout);
    EXPECT_FALSE(plan.invariants_preserved());
    bool unsafe_fold = false;
    for (const StaticRowVerdict& v : plan.rows) {
        if (v.safety != MigrationSafety::Unsafe) continue;
        EXPECT_FALSE(v.reason.empty());
        if (v.policy == "fold-sum") {
            unsafe_fold = true;
            EXPECT_NE(v.reason.find("non-divisible"), std::string::npos) << v.reason;
        }
    }
    EXPECT_TRUE(unsafe_fold) << plan.to_string();
    EXPECT_NE(plan.to_string().find("unsafe"), std::string::npos);
}

TEST(MigrateStatic, LintPassReportsUnsafeRowsThroughTheRegistry) {
    register_runtime_passes(verify::PassRegistry::global());
    const std::string nc = apps::netcache_source();
    const auto a = compile_pinned(nc,
                                  pin("cms_rows", 2) + pin("cms_cols", 256) +
                                      pin("kv_ways", 2) + pin("kv_slots", 64),
                                  "a");
    const auto b = compile_pinned(nc,
                                  pin("cms_rows", 2) + pin("cms_cols", 192) +
                                      pin("kv_ways", 2) + pin("kv_slots", 64),
                                  "b");
    MigrationPairPayload payload;
    payload.from_prog = &a.program;
    payload.from_layout = &a.layout;
    payload.to_prog = &b.program;
    payload.to_layout = &b.layout;
    verify::LintOptions options;
    options.checks = {"migration-safety-static"};
    options.payload = &payload;
    const verify::LintResult bad = verify::run_lint(b.program, options);
    EXPECT_TRUE(bad.has_errors()) << bad.render();
    for (const verify::Finding& f : bad.findings) {
        EXPECT_EQ(f.check, "migration-safety-static");
    }

    // The same pair on the divisible lattice is clean of errors.
    payload.to_prog = &a.program;
    payload.to_layout = &a.layout;
    const verify::LintResult good = verify::run_lint(a.program, options);
    EXPECT_FALSE(good.has_errors()) << good.render();

    // A source-only lint run (no payload) must not trip the pass.
    options.payload = nullptr;
    const verify::LintResult none = verify::run_lint(a.program, options);
    EXPECT_TRUE(none.findings.empty()) << none.render();
}

TEST(MigrateStatic, RuntimeRejectsUnsafeSwapWithoutRunningTheMigrator) {
    // The CmsHarness pattern from runtime_test: the profile pins geometry to
    // a shared value the test rewrites between reconfigurations.
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
    auto cols = std::make_shared<std::int64_t>(256);
    RuntimeOptions options;
    options.compile.backend = compiler::Backend::Greedy;
    options.auto_reconfigure = false;
    ElasticRuntime rt("cms", kCms, options, [cols](const workload::Trace&) {
        return "assume rows == 2;\nassume cols == " + std::to_string(*cols) + ";\n";
    });
    for (std::uint64_t key = 1; key <= 200; ++key) rt.pipeline().process({key});
    const Snapshot before = take_snapshot(rt.pipeline());

    // Arm the migrate fault: if the migrator ran at all, the swap would fail
    // with an injected-fault detail instead of the static plan's verdict.
    support::FaultRegistry::instance().configure("runtime.migrate:after=1");
    *cols = 192;  // 256 % 192 != 0: statically unsafe
    const SwapEvent event = rt.reconfigure("off-lattice shrink");
    support::FaultRegistry::instance().clear();

    EXPECT_FALSE(event.committed);
    EXPECT_FALSE(event.invariants_preserved);
    EXPECT_NE(event.detail.find("static migration plan"), std::string::npos) << event.detail;
    EXPECT_NE(event.detail.find("invariant"), std::string::npos) << event.detail;
    // The armed fault never fired: the reject happened before migrate_state.
    EXPECT_EQ(event.detail.find("injected"), std::string::npos) << event.detail;
    EXPECT_EQ(event.detail.find("migration failed"), std::string::npos) << event.detail;
    EXPECT_EQ(rt.epoch(), 0u);
    EXPECT_TRUE(before.state_identical(take_snapshot(rt.pipeline())));
}

}  // namespace
}  // namespace p4all::runtime
