// State-migration invariants (ISSUE satellite: migration correctness).
//
// The contract under test (migrate.hpp): counters survive a divisible grow
// *exactly* (every estimate unchanged), a divisible shrink preserves the
// CMS no-undercount invariant, and key tables rehash their entries into the
// new geometry with counts preserved. Classification is structural — it
// must recover each module's kind from the IR alone.
#include "runtime/migrate.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "apps/applications.hpp"
#include "apps/modules.hpp"
#include "apps/netcache.hpp"
#include "compiler/compiler.hpp"
#include "runtime/snapshot.hpp"
#include "sim/pipeline.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "workload/trace.hpp"

namespace p4all::runtime {
namespace {

/// Compiles `source` with extra pinning assumes appended (greedy backend —
/// the sizes are fully pinned, layout search is irrelevant here).
compiler::CompileResult compile_pinned(const std::string& source, const std::string& pins,
                                       const std::string& name) {
    compiler::CompileOptions options;
    options.backend = compiler::Backend::Greedy;
    return compiler::compile_source(source + pins, options, name);
}

std::string pin(const std::string& sym, std::int64_t value) {
    return "assume " + sym + " == " + std::to_string(value) + ";\n";
}

/// Controller-side CMS point query against a pipeline's `cms_cms` rows.
std::uint64_t cms_estimate(const sim::Pipeline& pipe, std::uint64_t key) {
    std::uint64_t best = ~0ULL;
    for (std::int64_t row = 0;; ++row) {
        const std::int64_t cols = pipe.reg_size("cms_cms", row);
        if (cols == 0) break;
        const std::uint64_t idx =
            support::hash_index(key, apps::kCmsSeedBase + static_cast<std::uint64_t>(row),
                                static_cast<std::uint64_t>(cols));
        best = std::min(best, pipe.reg_read("cms_cms", row, static_cast<std::int64_t>(idx)));
    }
    return best;
}

/// RAII fault-registry arm/disarm so a failing assertion cannot leak an
/// armed fault point into later tests.
struct FaultGuard {
    explicit FaultGuard(const std::string& spec) {
        support::FaultRegistry::instance().configure(spec);
    }
    ~FaultGuard() { support::FaultRegistry::instance().clear(); }
};

const std::string kNetcachePins = pin("cms_rows", 2) + pin("cms_cols", 256) +
                                  pin("kv_ways", 2) + pin("kv_slots", 64);

TEST(Classify, StructuralKindsRecoveredFromIr) {
    // NetCache: a count-min sketch plus a key/value store. The KVS key row
    // is read into a field compared against the packet key (Cache); the CMS
    // rows are hash-indexed reg_adds (Counter).
    const auto classify_all = [](const ir::Program& prog) {
        std::map<std::string, ModuleKind> kinds;
        for (const auto& [reg, kind] : classify_registers(prog).kind)
            kinds[prog.reg(reg).name] = kind;
        return kinds;
    };

    const auto nc = compile_pinned(apps::netcache_source(), kNetcachePins, "netcache");
    const auto kinds = classify_all(nc.program);
    EXPECT_EQ(kinds.at("cms_cms"), ModuleKind::Counter);
    EXPECT_EQ(kinds.at("kv_keys"), ModuleKind::Cache);
    EXPECT_EQ(kinds.at("kv_vals"), ModuleKind::Cache);

    // Precision: the companion row is a reg_add counter, so the group is a
    // heavy-hitter table, not a cache.
    const auto pr = compile_pinned(apps::precision_source(),
                                   pin("hh_ways", 2) + pin("hh_slots", 128), "precision");
    const auto pr_kinds = classify_all(pr.program);
    EXPECT_EQ(pr_kinds.at("hh_keys"), ModuleKind::HeavyHitter);
    EXPECT_EQ(pr_kinds.at("hh_cnts"), ModuleKind::HeavyHitter);

    // FlowRadar: 1-bit hash-indexed rows are a Bloom filter.
    const auto fr = compile_pinned(apps::flowradar_source(),
                                   pin("ff_hashes", 2) + pin("ff_bits", 256) +
                                       pin("fc_ways", 2) + pin("fc_slots", 128),
                                   "flowradar");
    EXPECT_EQ(classify_all(fr.program).at("ff_bf"), ModuleKind::Bloom);
}

TEST(Migrate, DivisibleGrowPreservesCmsEstimatesExactly) {
    const auto small = compile_pinned(apps::netcache_source(), kNetcachePins, "netcache");
    sim::Pipeline from(small.program, small.layout);

    const workload::Trace trace = workload::zipf_trace(4000, 300, 1.1, 17);
    sim::Packet pkt(small.program.packet_fields.size(), 0);
    const auto key_field = static_cast<std::size_t>(small.program.find_packet("key"));
    for (const std::uint64_t key : trace.keys) {
        pkt[key_field] = key + 1;
        from.process(pkt);
    }

    const auto big = compile_pinned(apps::netcache_source(),
                                    pin("cms_rows", 2) + pin("cms_cols", 1024) +
                                        pin("kv_ways", 2) + pin("kv_slots", 256),
                                    "netcache");
    sim::Pipeline to(big.program, big.layout);
    const MigrationReport report = migrate_state(from, to);

    EXPECT_TRUE(report.exact()) << report.to_string();
    EXPECT_TRUE(report.invariants_preserved());
    EXPECT_EQ(report.entries_dropped(), 0);
    bool saw_replicate = false;
    for (const RowMigration& row : report.rows)
        if (row.policy == "replicate-up") saw_replicate = true;
    EXPECT_TRUE(saw_replicate) << report.to_string();

    // Every estimate recorded before the migration reads back unchanged.
    for (const auto& [key, count] : trace.counts)
        ASSERT_EQ(cms_estimate(to, key + 1), cms_estimate(from, key + 1)) << "key " << key;
}

TEST(Migrate, DivisibleShrinkKeepsNoUndercountInvariant) {
    const auto big = compile_pinned(apps::netcache_source(),
                                    pin("cms_rows", 2) + pin("cms_cols", 1024) +
                                        pin("kv_ways", 2) + pin("kv_slots", 256),
                                    "netcache");
    sim::Pipeline from(big.program, big.layout);

    const workload::Trace trace = workload::zipf_trace(4000, 300, 1.1, 23);
    sim::Packet pkt(big.program.packet_fields.size(), 0);
    const auto key_field = static_cast<std::size_t>(big.program.find_packet("key"));
    for (const std::uint64_t key : trace.keys) {
        pkt[key_field] = key + 1;
        from.process(pkt);
    }

    const auto small = compile_pinned(apps::netcache_source(), kNetcachePins, "netcache");
    sim::Pipeline to(small.program, small.layout);
    const MigrationReport report = migrate_state(from, to);

    EXPECT_FALSE(report.exact());  // folding merges counters
    EXPECT_TRUE(report.invariants_preserved()) << report.to_string();
    bool saw_fold = false;
    for (const RowMigration& row : report.rows)
        if (row.policy == "fold-sum") {
            saw_fold = true;
            EXPECT_TRUE(row.invariant_preserved);
        }
    EXPECT_TRUE(saw_fold) << report.to_string();

    // No-undercount must survive: folded estimates only ever grow.
    for (const auto& [key, count] : trace.counts) {
        ASSERT_GE(cms_estimate(to, key + 1), count) << "undercount for key " << key;
        ASSERT_GE(cms_estimate(to, key + 1), cms_estimate(from, key + 1));
    }
}

TEST(Migrate, NonDivisibleShrinkIsFlaggedNotExact) {
    // 256 -> 192 columns: 256 % 192 != 0, so the fold cannot preserve the
    // no-undercount invariant. The migrator must say so (the runtime's
    // invariant gate turns this flag into a rejected swap).
    const auto a = compile_pinned(apps::netcache_source(), kNetcachePins, "netcache");
    const auto b = compile_pinned(apps::netcache_source(),
                                  pin("cms_rows", 2) + pin("cms_cols", 192) +
                                      pin("kv_ways", 2) + pin("kv_slots", 64),
                                  "netcache");
    sim::Pipeline from(a.program, a.layout);
    sim::Packet pkt(a.program.packet_fields.size(), 0);
    pkt[static_cast<std::size_t>(a.program.find_packet("key"))] = 7;
    for (int i = 0; i < 100; ++i) from.process(pkt);

    sim::Pipeline to(b.program, b.layout);
    const MigrationReport report = migrate_state(from, to);
    EXPECT_FALSE(report.exact());
    EXPECT_FALSE(report.invariants_preserved()) << report.to_string();
}

TEST(Migrate, NonDivisibleCounterGrowCopiesThePrefixAndIsFlaggedLossy) {
    // 256 -> 320 columns: 320 % 256 != 0, so hash slots remap and old keys'
    // estimates may dip. The old cells survive as a prefix, the tail is zero.
    const auto a = compile_pinned(apps::netcache_source(), kNetcachePins, "netcache");
    const auto b = compile_pinned(apps::netcache_source(),
                                  pin("cms_rows", 2) + pin("cms_cols", 320) +
                                      pin("kv_ways", 2) + pin("kv_slots", 64),
                                  "netcache");
    sim::Pipeline from(a.program, a.layout);
    sim::Packet pkt(a.program.packet_fields.size(), 0);
    const auto key_field = static_cast<std::size_t>(a.program.find_packet("key"));
    for (std::uint64_t key = 1; key <= 200; ++key) {
        pkt[key_field] = key;
        from.process(pkt);
    }

    sim::Pipeline to(b.program, b.layout);
    const MigrationReport report = migrate_state(from, to);
    EXPECT_FALSE(report.invariants_preserved()) << report.to_string();
    int prefix_rows = 0;
    for (const RowMigration& row : report.rows) {
        if (row.reg != "cms_cms") continue;
        EXPECT_EQ(row.policy, "copy-prefix") << report.to_string();
        EXPECT_FALSE(row.exact);
        EXPECT_FALSE(row.invariant_preserved);
        EXPECT_EQ(row.old_elems, 256);
        EXPECT_EQ(row.new_elems, 320);
        for (std::int64_t j = 0; j < row.new_elems; ++j) {
            const std::uint64_t want =
                j < row.old_elems ? from.reg_read("cms_cms", row.instance, j) : 0;
            ASSERT_EQ(to.reg_read("cms_cms", row.instance, j), want) << "cell " << j;
        }
        ++prefix_rows;
    }
    EXPECT_EQ(prefix_rows, 2);
    EXPECT_NE(report.to_string().find("copy-prefix 256 -> 320 [inexact, lossy]"),
              std::string::npos)
        << report.to_string();
}

/// FlowRadar's flow filter: 2 Bloom rows of `bits` cells beside a fixed
/// flow table.
std::string flowradar_pins(std::int64_t bits) {
    return pin("ff_hashes", 2) + pin("ff_bits", bits) + pin("fc_ways", 2) +
           pin("fc_slots", 128);
}

/// True when every Bloom row of `pipe` has `key`'s bit set.
bool bloom_contains(const sim::Pipeline& pipe, std::uint64_t key) {
    for (std::int64_t row = 0; row < 2; ++row) {
        const std::int64_t bits = pipe.reg_size("ff_bf", row);
        const auto idx = static_cast<std::int64_t>(support::hash_index(
            key, apps::kBloomSeedBase + static_cast<std::uint64_t>(row),
            static_cast<std::uint64_t>(bits)));
        if (pipe.reg_read("ff_bf", row, idx) == 0) return false;
    }
    return true;
}

/// Runs `keys` distinct flows through a FlowRadar pipeline with `bits`-cell
/// Bloom rows, migrates into `to_bits`, and returns the report after
/// checking that no inserted flow became a false negative.
MigrationReport migrate_flowradar(std::int64_t bits, std::int64_t to_bits, std::uint64_t keys) {
    const auto a = compile_pinned(apps::flowradar_source(), flowradar_pins(bits), "flowradar");
    const auto b = compile_pinned(apps::flowradar_source(), flowradar_pins(to_bits), "flowradar");
    sim::Pipeline from(a.program, a.layout);
    sim::Packet pkt(a.program.packet_fields.size(), 0);
    const auto flow_field = static_cast<std::size_t>(a.program.find_packet("flow_id"));
    for (std::uint64_t key = 1; key <= keys; ++key) {
        pkt[flow_field] = key * 7919;
        from.process(pkt);
    }
    for (std::uint64_t key = 1; key <= keys; ++key) {
        EXPECT_TRUE(bloom_contains(from, key * 7919)) << "key " << key << " before migration";
    }

    sim::Pipeline to(b.program, b.layout);
    MigrationReport report = migrate_state(from, to);
    for (std::uint64_t key = 1; key <= keys; ++key) {
        EXPECT_TRUE(bloom_contains(to, key * 7919)) << "false negative for key " << key;
    }
    return report;
}

TEST(Migrate, BloomDivisibleShrinkFoldsWithOrAndKeepsEveryMember) {
    const MigrationReport report = migrate_flowradar(512, 128, 60);
    EXPECT_TRUE(report.invariants_preserved()) << report.to_string();
    int folded = 0;
    for (const RowMigration& row : report.rows) {
        if (row.reg != "ff_bf") continue;
        EXPECT_EQ(row.kind, ModuleKind::Bloom);
        EXPECT_EQ(row.policy, "fold-or") << report.to_string();
        EXPECT_FALSE(row.exact);  // false positives grow
        EXPECT_TRUE(row.invariant_preserved);
        ++folded;
    }
    EXPECT_EQ(folded, 2);
}

TEST(Migrate, BloomDivisibleGrowReplicatesExactly) {
    const MigrationReport report = migrate_flowradar(128, 512, 60);
    EXPECT_TRUE(report.invariants_preserved()) << report.to_string();
    int replicated = 0;
    for (const RowMigration& row : report.rows) {
        if (row.reg != "ff_bf") continue;
        EXPECT_EQ(row.policy, "replicate-up") << report.to_string();
        EXPECT_TRUE(row.exact);
        EXPECT_TRUE(row.invariant_preserved);
        ++replicated;
    }
    EXPECT_EQ(replicated, 2);
}

TEST(Migrate, ResizedOpaqueRowIsZeroedAndFlaggedLossy) {
    // A write-only log row outside any key group: nothing says how its
    // cells map across a resize, so it resets.
    const char* kLog = R"(
symbolic int slots;
assume slots >= 64;
packet { bit<32> flow_id; }
metadata { bit<32> idx; }
register<bit<32>>[slots] last_seen;
action stamp() {
    hash(meta.idx, 7, pkt.flow_id, last_seen);
    reg_write(last_seen, meta.idx, pkt.flow_id);
}
control ingress { apply { stamp(); } }
optimize slots;
)";
    const auto a = compile_pinned(kLog, pin("slots", 128), "log");
    const auto b = compile_pinned(kLog, pin("slots", 256), "log");
    const ir::RegisterId reg = a.program.find_register("last_seen");
    ASSERT_NE(reg, ir::kNoId);
    EXPECT_EQ(classify_registers(a.program).kind.at(reg), ModuleKind::Opaque);

    sim::Pipeline from(a.program, a.layout);
    for (std::uint64_t key = 1; key <= 50; ++key) from.process({key});
    sim::Pipeline to(b.program, b.layout);
    const MigrationReport report = migrate_state(from, to);

    ASSERT_EQ(report.rows.size(), 1u) << report.to_string();
    const RowMigration& row = report.rows.front();
    EXPECT_EQ(row.policy, "zero");
    EXPECT_EQ(row.kind, ModuleKind::Opaque);
    EXPECT_FALSE(row.exact);
    EXPECT_FALSE(row.invariant_preserved);
    EXPECT_FALSE(report.invariants_preserved());
    for (std::int64_t j = 0; j < 256; ++j) ASSERT_EQ(to.reg_read("last_seen", 0, j), 0u);
    EXPECT_NE(report.to_string().find("[inexact, lossy]"), std::string::npos);
}

TEST(Migrate, KeyTableRehashKeepsEntriesReachableWithCounts) {
    const std::string src = apps::precision_source();
    const auto a = compile_pinned(src, pin("hh_ways", 2) + pin("hh_slots", 128), "precision");
    sim::Pipeline from(a.program, a.layout);

    // Populate the table the way the controller does: key + count pairs at
    // each key's hash slot, skipping occupied slots (no overwrites).
    std::map<std::uint64_t, std::uint64_t> inserted;
    support::Xoshiro256 rng(5);
    for (int i = 0; i < 120; ++i) {
        const std::uint64_t key = 1 + rng.next_below(1'000'000);
        if (inserted.count(key) != 0) continue;
        for (std::int64_t way = 0; way < 2; ++way) {
            const std::int64_t slots = from.reg_size("hh_keys", way);
            ASSERT_GT(slots, 0);
            const auto idx = static_cast<std::int64_t>(support::hash_index(
                key, apps::kPrecisionSeedBase + static_cast<std::uint64_t>(way),
                static_cast<std::uint64_t>(slots)));
            if (from.reg_read("hh_keys", way, idx) != 0) continue;
            const std::uint64_t count = 1 + rng.next_below(5000);
            from.reg_write("hh_keys", way, idx, key);
            from.reg_write("hh_cnts", way, idx, count);
            inserted[key] = count;
            break;
        }
    }
    ASSERT_GT(inserted.size(), 50u);

    const auto b = compile_pinned(src, pin("hh_ways", 2) + pin("hh_slots", 512), "precision");
    sim::Pipeline to(b.program, b.layout);
    const MigrationReport report = migrate_state(from, to);

    // Growing the table rehashes every entry; nothing may be lost, and each
    // key must sit at its own hash slot in the new geometry with its count.
    EXPECT_EQ(report.entries_dropped(), 0) << report.to_string();
    std::int64_t moved = 0;
    for (const RowMigration& row : report.rows)
        if (row.policy == "rehash") moved += row.entries_moved;
    EXPECT_EQ(moved, static_cast<std::int64_t>(inserted.size()));

    for (const auto& [key, count] : inserted) {
        bool found = false;
        for (std::int64_t way = 0; way < 2 && !found; ++way) {
            const std::int64_t slots = to.reg_size("hh_keys", way);
            const auto idx = static_cast<std::int64_t>(support::hash_index(
                key, apps::kPrecisionSeedBase + static_cast<std::uint64_t>(way),
                static_cast<std::uint64_t>(slots)));
            if (to.reg_read("hh_keys", way, idx) == key) {
                EXPECT_EQ(to.reg_read("hh_cnts", way, idx), count) << "key " << key;
                found = true;
            }
        }
        EXPECT_TRUE(found) << "entry lost for key " << key;
    }
}

TEST(Migrate, ShrinkingTableAccountsForEveryEntry) {
    const std::string src = apps::precision_source();
    const auto a = compile_pinned(src, pin("hh_ways", 2) + pin("hh_slots", 256), "precision");
    sim::Pipeline from(a.program, a.layout);

    std::int64_t populated = 0;
    support::Xoshiro256 rng(9);
    for (int i = 0; i < 300; ++i) {
        const std::uint64_t key = 1 + rng.next_below(1'000'000);
        const std::int64_t way = static_cast<std::int64_t>(rng.next_below(2));
        const std::int64_t slots = from.reg_size("hh_keys", way);
        const auto idx = static_cast<std::int64_t>(support::hash_index(
            key, apps::kPrecisionSeedBase + static_cast<std::uint64_t>(way),
            static_cast<std::uint64_t>(slots)));
        if (from.reg_read("hh_keys", way, idx) != 0) continue;
        from.reg_write("hh_keys", way, idx, key);
        from.reg_write("hh_cnts", way, idx, 1 + rng.next_below(100));
        ++populated;
    }
    ASSERT_GT(populated, 100);

    const auto b = compile_pinned(src, pin("hh_ways", 2) + pin("hh_slots", 64), "precision");
    sim::Pipeline to(b.program, b.layout);
    const MigrationReport report = migrate_state(from, to);

    std::int64_t moved = 0, dropped = 0;
    for (const RowMigration& row : report.rows)
        if (row.policy == "rehash") {
            moved += row.entries_moved;
            dropped += row.entries_dropped;
        }
    // Conservation: each entry is placed at most once (duplicates merge),
    // and every entry is either placed or shows up in the drop count (a
    // displaced incumbent is counted dropped after having been moved, so
    // moved + dropped can exceed the population but never undershoot it).
    EXPECT_LE(moved, populated);
    EXPECT_GE(moved + dropped, populated);
    EXPECT_GT(moved, 0);
    EXPECT_GT(dropped, 0);  // 4x fewer slots than entries: losses expected
    EXPECT_TRUE(report.invariants_preserved());  // survivors are reachable

    // The table can hold at most as many residents as were ever placed.
    std::int64_t residents = 0;
    for (std::int64_t way = 0; way < 2; ++way) {
        const std::int64_t slots = to.reg_size("hh_keys", way);
        for (std::int64_t s = 0; s < slots; ++s)
            if (to.reg_read("hh_keys", way, s) != 0) ++residents;
    }
    EXPECT_LE(residents, moved);
    EXPECT_GT(residents, 0);

    // Each surviving slot holds the key that actually hashes there.
    for (std::int64_t way = 0; way < 2; ++way) {
        const std::int64_t slots = to.reg_size("hh_keys", way);
        for (std::int64_t s = 0; s < slots; ++s) {
            const std::uint64_t key = to.reg_read("hh_keys", way, s);
            if (key == 0) continue;
            EXPECT_EQ(static_cast<std::int64_t>(support::hash_index(
                          key, apps::kPrecisionSeedBase + static_cast<std::uint64_t>(way),
                          static_cast<std::uint64_t>(slots))),
                      s);
        }
    }
}

TEST(Migrate, IdenticalLayoutIsAVerbatimCopy) {
    const auto r = compile_pinned(apps::netcache_source(), kNetcachePins, "netcache");
    sim::Pipeline from(r.program, r.layout);
    sim::Packet pkt(r.program.packet_fields.size(), 0);
    pkt[static_cast<std::size_t>(r.program.find_packet("key"))] = 99;
    for (int i = 0; i < 50; ++i) from.process(pkt);

    sim::Pipeline to(r.program, r.layout);
    const MigrationReport report = migrate_state(from, to);
    EXPECT_TRUE(report.exact());
    EXPECT_TRUE(take_snapshot(from).state_identical(take_snapshot(to)));
}

TEST(Migrate, MismatchedProgramsAreRejected) {
    const auto nc = compile_pinned(apps::netcache_source(), kNetcachePins, "netcache");
    const auto pr = compile_pinned(apps::precision_source(),
                                   pin("hh_ways", 2) + pin("hh_slots", 128), "precision");
    sim::Pipeline from(nc.program, nc.layout);
    sim::Pipeline to(pr.program, pr.layout);
    try {
        (void)migrate_state(from, to);
        FAIL() << "expected MigrationError";
    } catch (const support::Error& e) {
        EXPECT_EQ(e.code(), support::Errc::MigrationError);
    }
}

TEST(Migrate, FaultPointAbortsWithoutTouchingSource) {
    const auto r = compile_pinned(apps::netcache_source(), kNetcachePins, "netcache");
    sim::Pipeline from(r.program, r.layout);
    sim::Packet pkt(r.program.packet_fields.size(), 0);
    pkt[static_cast<std::size_t>(r.program.find_packet("key"))] = 3;
    for (int i = 0; i < 20; ++i) from.process(pkt);
    const Snapshot before = take_snapshot(from);

    sim::Pipeline to(r.program, r.layout);
    FaultGuard guard("runtime.migrate:after=1");
    try {
        (void)migrate_state(from, to);
        FAIL() << "expected FaultInjected";
    } catch (const support::Error& e) {
        EXPECT_EQ(e.code(), support::Errc::FaultInjected);
    }
    EXPECT_TRUE(before.state_identical(take_snapshot(from)));
}

}  // namespace
}  // namespace p4all::runtime
