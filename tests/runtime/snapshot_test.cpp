// Snapshot/restore: crash-safety and corruption detection.
#include "runtime/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>

#include "apps/netcache.hpp"
#include "common/temp_path.hpp"
#include "compiler/compiler.hpp"
#include "sim/pipeline.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "workload/trace.hpp"

namespace p4all::runtime {
namespace {

compiler::CompileResult compile_netcache(std::int64_t cols, std::int64_t slots) {
    compiler::CompileOptions options;
    options.backend = compiler::Backend::Greedy;
    const std::string pins = "assume cms_rows == 2;\nassume cms_cols == " +
                             std::to_string(cols) + ";\nassume kv_ways == 2;\nassume kv_slots == " +
                             std::to_string(slots) + ";\n";
    return compiler::compile_source(apps::netcache_source() + pins, options, "netcache");
}

void feed(sim::Pipeline& pipe, std::uint64_t seed) {
    const workload::Trace trace = workload::zipf_trace(1500, 200, 1.1, seed);
    sim::Packet pkt(pipe.program().packet_fields.size(), 0);
    const auto key = static_cast<std::size_t>(pipe.program().find_packet("key"));
    for (const std::uint64_t k : trace.keys) {
        pkt[key] = k + 1;
        pipe.process(pkt);
    }
}

support::Errc code_of(const std::function<void()>& fn) {
    try {
        fn();
    } catch (const support::Error& e) {
        return e.code();
    }
    return support::Errc::None;
}

struct FaultGuard {
    explicit FaultGuard(const std::string& spec) {
        support::FaultRegistry::instance().configure(spec);
    }
    ~FaultGuard() { support::FaultRegistry::instance().clear(); }
};

using test_util::temp_path;

TEST(Snapshot, SerializeParseRoundTripsBitIdentically) {
    const auto r = compile_netcache(256, 64);
    sim::Pipeline pipe(r.program, r.layout);
    feed(pipe, 3);

    const Snapshot snap = take_snapshot(pipe, /*epoch=*/5);
    const Snapshot back = parse_snapshot(serialize_snapshot(snap));
    EXPECT_EQ(back.program, snap.program);
    EXPECT_EQ(back.epoch, 5u);
    EXPECT_EQ(back.packets, pipe.packets_processed());
    EXPECT_TRUE(back.state_identical(snap));
    EXPECT_EQ(back.checksum(), snap.checksum());

    sim::Pipeline fresh(r.program, r.layout);
    apply_snapshot(back, fresh);
    EXPECT_TRUE(take_snapshot(fresh).state_identical(snap));
}

TEST(Snapshot, ChecksumCatchesBitFlips) {
    const auto r = compile_netcache(256, 64);
    sim::Pipeline pipe(r.program, r.layout);
    feed(pipe, 4);
    std::string text = serialize_snapshot(take_snapshot(pipe));

    // Flip one hex digit inside a row payload.
    const std::size_t pos = text.find("\"data\"");
    ASSERT_NE(pos, std::string::npos);
    const std::size_t digit = text.find_first_of("0123456789abcdef", text.find('"', pos + 6) + 1);
    ASSERT_NE(digit, std::string::npos);
    text[digit] = text[digit] == '0' ? '1' : '0';
    EXPECT_EQ(code_of([&] { (void)parse_snapshot(text); }), support::Errc::SnapshotError);

    EXPECT_EQ(code_of([] { (void)parse_snapshot("not json at all"); }),
              support::Errc::SnapshotError);
    EXPECT_EQ(code_of([] { (void)parse_snapshot("{\"format\":\"bogus-v9\"}"); }),
              support::Errc::SnapshotError);
}

TEST(Snapshot, ApplyRejectsLayoutMismatchWithoutSideEffects) {
    const auto small = compile_netcache(256, 64);
    const auto big = compile_netcache(512, 128);
    sim::Pipeline from(small.program, small.layout);
    feed(from, 5);
    const Snapshot snap = take_snapshot(from);

    sim::Pipeline other(big.program, big.layout);
    const Snapshot before = take_snapshot(other);
    EXPECT_EQ(code_of([&] { apply_snapshot(snap, other); }), support::Errc::SnapshotError);
    EXPECT_TRUE(before.state_identical(take_snapshot(other)));  // untouched
}

TEST(Snapshot, SaveIsCrashSafeUnderInjectedFailure) {
    const auto r = compile_netcache(256, 64);
    sim::Pipeline pipe(r.program, r.layout);
    feed(pipe, 6);
    const std::string path = temp_path("snap_crash_safe.json");
    std::remove(path.c_str());

    const Snapshot v1 = take_snapshot(pipe, 1);
    save_snapshot(v1, path);

    // Second save fails after the temp file is written; the v1 file must
    // survive byte-for-byte and no temp file may be left behind.
    feed(pipe, 7);
    const Snapshot v2 = take_snapshot(pipe, 2);
    {
        FaultGuard guard("runtime.snapshot:after=1");
        EXPECT_EQ(code_of([&] { save_snapshot(v2, path); }), support::Errc::FaultInjected);
    }
    const Snapshot on_disk = load_snapshot(path);
    EXPECT_TRUE(on_disk.state_identical(v1));
    EXPECT_FALSE(on_disk.state_identical(v2));
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good()) << "temp file leaked";
    std::remove(path.c_str());
}

TEST(Snapshot, RestoreFaultFailsCleanly) {
    const auto r = compile_netcache(256, 64);
    sim::Pipeline pipe(r.program, r.layout);
    feed(pipe, 8);
    const std::string path = temp_path("snap_restore_fault.json");
    save_snapshot(take_snapshot(pipe), path);

    {
        FaultGuard guard("runtime.restore:after=1");
        EXPECT_EQ(code_of([&] { (void)load_snapshot(path); }), support::Errc::FaultInjected);
    }
    // The file itself is fine once the fault is disarmed.
    EXPECT_TRUE(load_snapshot(path).state_identical(take_snapshot(pipe)));
    std::remove(path.c_str());

    EXPECT_EQ(code_of([] { (void)load_snapshot("/nonexistent/p4all/snap.json"); }),
              support::Errc::SnapshotError);
}

}  // namespace
}  // namespace p4all::runtime
