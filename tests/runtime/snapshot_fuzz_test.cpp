// Restore-path hardening: a snapshot file is untrusted input. Whatever
// bytes are thrown at parse_snapshot / load_snapshot, the outcome must be
// either a successful parse of bit-identical register state or a typed
// Error(Errc::SnapshotError) — never a crash, never another exception
// type, and never silently perturbed state.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/temp_path.hpp"
#include "runtime/snapshot.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace p4all::runtime {
namespace {

using support::Errc;
using support::Error;

Snapshot make_snapshot() {
    Snapshot snap;
    snap.program = "fuzz";
    snap.epoch = 3;
    snap.packets = 1234;
    for (int r = 0; r < 3; ++r) {
        SnapshotRow row;
        row.reg = "cms";
        row.instance = r;
        row.width = 32;
        for (int i = 0; i < 8; ++i) {
            row.data.push_back(static_cast<std::uint64_t>(r * 100 + i * 7));
        }
        snap.rows.push_back(std::move(row));
    }
    return snap;
}

/// The fuzz property: parse either round-trips the state or throws the one
/// typed error the restore path promises.
void expect_parse_is_total(const std::string& text, const Snapshot& original) {
    try {
        const Snapshot parsed = parse_snapshot(text);
        EXPECT_TRUE(parsed.state_identical(original))
            << "a mutated snapshot parsed successfully with DIFFERENT state";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), Errc::SnapshotError) << e.what();
    } catch (const std::exception& e) {
        FAIL() << "untyped exception escaped parse_snapshot: " << e.what();
    }
}

TEST(SnapshotFuzz, RandomByteMutationsNeverEscapeTheContract) {
    const Snapshot snap = make_snapshot();
    const std::string base = serialize_snapshot(snap);
    support::Xoshiro256 rng(2026);
    for (int iter = 0; iter < 2000; ++iter) {
        std::string text = base;
        const int edits = 1 + static_cast<int>(rng.next_below(4));
        for (int e = 0; e < edits; ++e) {
            const std::size_t at = rng.next_below(text.size());
            text[at] = static_cast<char>(rng() & 0xFF);
        }
        expect_parse_is_total(text, snap);
    }
}

TEST(SnapshotFuzz, EveryTruncationIsRejectedOrIdentical) {
    const Snapshot snap = make_snapshot();
    const std::string base = serialize_snapshot(snap);
    for (std::size_t cut = 0; cut < base.size(); cut += 7) {
        expect_parse_is_total(base.substr(0, cut), snap);
    }
    expect_parse_is_total(base, snap);  // the unmutated document parses
}

TEST(SnapshotFuzz, RandomGarbageIsRejectedTyped) {
    const Snapshot snap = make_snapshot();
    support::Xoshiro256 rng(7);
    for (int iter = 0; iter < 200; ++iter) {
        std::string text(rng.next_below(512), '\0');
        for (char& c : text) c = static_cast<char>(rng() & 0xFF);
        expect_parse_is_total(text, snap);
    }
}

std::string replace_first(std::string text, const std::string& from, const std::string& to) {
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
}

TEST(SnapshotFuzz, ImpossibleWidthsAreRejected) {
    const Snapshot snap = make_snapshot();
    const std::string base = serialize_snapshot(snap);
    for (const char* bad : {"\"width\": 0", "\"width\": 65", "\"width\": -3"}) {
        const std::string text = replace_first(base, "\"width\": 32", bad);
        try {
            (void)parse_snapshot(text);
            FAIL() << bad;
        } catch (const Error& e) {
            EXPECT_EQ(e.code(), Errc::SnapshotError);
            EXPECT_NE(std::string(e.what()).find("width"), std::string::npos) << e.what();
        }
    }
}

TEST(SnapshotFuzz, HugeClaimedElementCountIsRejectedBeforeDecoding) {
    const Snapshot snap = make_snapshot();
    // A claimed element count past the sanity cap must be refused up front
    // — the decoder's allocation must never be driven by corrupt metadata.
    const std::string text =
        replace_first(serialize_snapshot(snap), "\"elems\": 8", "\"elems\": 999999999999");
    try {
        (void)parse_snapshot(text);
        FAIL();
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), Errc::SnapshotError);
    }
}

TEST(SnapshotFuzz, ElementCountDataDisagreementIsRejected) {
    const Snapshot snap = make_snapshot();
    const std::string text =
        replace_first(serialize_snapshot(snap), "\"elems\": 8", "\"elems\": 7");
    try {
        (void)parse_snapshot(text);
        FAIL();
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), Errc::SnapshotError);
        EXPECT_NE(std::string(e.what()).find("disagrees"), std::string::npos) << e.what();
    }
}

TEST(SnapshotFuzz, FlippedDataCellFailsTheChecksum) {
    const Snapshot snap = make_snapshot();
    std::string text = serialize_snapshot(snap);
    // Flip one hex digit inside a row's data payload.
    const std::size_t data_at = text.find("\"data\": \"");
    ASSERT_NE(data_at, std::string::npos);
    const std::size_t digit = data_at + 9;
    text[digit] = text[digit] == '0' ? '1' : '0';
    try {
        (void)parse_snapshot(text);
        FAIL();
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), Errc::SnapshotError);
        EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
    }
}

TEST(SnapshotFuzz, OnDiskCorruptionSurfacesThroughLoadSnapshot) {
    const std::string path = test_util::temp_path("p4all_snapshot_fuzz.json");
    const Snapshot snap = make_snapshot();
    save_snapshot(snap, path);
    EXPECT_TRUE(load_snapshot(path).state_identical(snap));
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << "trailing garbage that breaks the document";
    }
    try {
        (void)load_snapshot(path);
        FAIL();
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), Errc::SnapshotError);
    }
    std::remove(path.c_str());
}

}  // namespace
}  // namespace p4all::runtime
