// Binary trace record/replay: the format every chaos or soak failure is
// reproduced from. A sealed file must replay bit-identically forever; an
// unsealed file (the recorder crashed) must still replay its complete
// prefix; any corruption must surface as the typed P4ALL-0409 error.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/temp_path.hpp"
#include "support/error.hpp"
#include "workload/trace.hpp"
#include "workload/trace_io.hpp"

namespace p4all::workload {
namespace {

using support::Errc;
using support::Error;

using test_util::temp_path;

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(TraceBinary, SealedRoundTripPreservesKeysAndCounts) {
    const std::string path = temp_path("p4all_trace_bin.trc");
    const Trace trace = zipf_trace(4096, 300, 1.1, 7);
    save_binary_trace(trace, path);

    const Trace back = load_binary_trace(path);
    EXPECT_EQ(back.keys, trace.keys);
    EXPECT_EQ(back.counts, trace.counts);

    TraceReader reader(path);
    EXPECT_TRUE(reader.sealed());
    EXPECT_EQ(reader.count(), trace.keys.size());
    std::remove(path.c_str());
}

TEST(TraceBinary, RecordingIsByteDeterministic) {
    const std::string a = temp_path("p4all_trace_det_a.trc");
    const std::string b = temp_path("p4all_trace_det_b.trc");
    const Trace trace = zipf_trace(512, 64, 1.3, 9);
    save_binary_trace(trace, a);
    save_binary_trace(trace, b);
    EXPECT_EQ(read_bytes(a), read_bytes(b));
    // Replaying twice is bit-identical too — the replay determinism the CI
    // chaos job asserts end to end.
    EXPECT_EQ(load_binary_trace(a).keys, load_binary_trace(a).keys);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(TraceBinary, EmptyTraceRoundTrips) {
    const std::string path = temp_path("p4all_trace_empty.trc");
    save_binary_trace(Trace{}, path);
    const Trace back = load_binary_trace(path);
    EXPECT_TRUE(back.keys.empty());
    EXPECT_TRUE(TraceReader(path).sealed());
    std::remove(path.c_str());
}

TEST(TraceBinary, UnsealedCrashFileReplaysItsCompletePrefix) {
    const std::string path = temp_path("p4all_trace_unsealed.trc");
    {
        // Simulate a recorder that died before close(): write records, then
        // drop the writer without sealing by copying the pre-seal bytes.
        TraceWriter writer(path);
        for (std::uint64_t k = 0; k < 100; ++k) writer.append(k * 3);
        writer.close();
    }
    std::string bytes = read_bytes(path);
    // Un-seal the header (count back to ~0, checksum to 0) and tear the
    // last record in half — the on-disk shape of a crashed recorder.
    for (int i = 12; i < 20; ++i) bytes[i] = static_cast<char>(0xFF);
    for (int i = 20; i < 28; ++i) bytes[i] = 0;
    bytes.resize(bytes.size() - 3);
    write_bytes(path, bytes);

    TraceReader reader(path);
    EXPECT_FALSE(reader.sealed());
    EXPECT_EQ(reader.count(), 99u);  // the torn 100th record is dropped
    const Trace back = load_binary_trace(path);
    ASSERT_EQ(back.keys.size(), 99u);
    EXPECT_EQ(back.keys.front(), 0u);
    EXPECT_EQ(back.keys.back(), 98u * 3);
    std::remove(path.c_str());
}

TEST(TraceBinary, SealedFileWithMissingRecordsIsRefused) {
    const std::string path = temp_path("p4all_trace_short.trc");
    save_binary_trace(zipf_trace(64, 16, 1.0, 3), path);
    std::string bytes = read_bytes(path);
    bytes.resize(bytes.size() - 8);  // drop one whole record, keep the seal
    write_bytes(path, bytes);
    try {
        TraceReader reader(path);
        FAIL() << "a sealed trace missing records must not open";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), Errc::TraceError);
        EXPECT_NE(std::string(e.what()).find("disagrees"), std::string::npos) << e.what();
    }
    std::remove(path.c_str());
}

TEST(TraceBinary, TamperedRecordFailsTheSealedChecksum) {
    const std::string path = temp_path("p4all_trace_tamper.trc");
    save_binary_trace(zipf_trace(64, 16, 1.0, 3), path);
    std::string bytes = read_bytes(path);
    bytes[28 + 8 * 10] ^= 0x40;  // flip one bit in the 11th record
    write_bytes(path, bytes);
    try {
        TraceReader reader(path);
        FAIL() << "a tampered sealed trace must not open";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), Errc::TraceError);
        EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
    }
    std::remove(path.c_str());
}

TEST(TraceBinary, GarbageAndMissingFilesAreTypedErrors) {
    const std::string path = temp_path("p4all_trace_garbage.trc");
    write_bytes(path, "this is not a trace file at all, sorry");
    for (const std::string& p : {path, temp_path("p4all_trace_nonexistent.trc")}) {
        try {
            TraceReader reader(p);
            FAIL() << p;
        } catch (const Error& e) {
            EXPECT_EQ(e.code(), Errc::TraceError);
        }
    }
    std::remove(path.c_str());
}

TEST(TraceBinary, CloseThrowsWhenTheSealCannotBeMadeDurable) {
#if !defined(__linux__)
    GTEST_SKIP() << "relies on fsync(/dev/null) failing with EINVAL, as on Linux";
#else
    TraceWriter writer("/dev/null");
    writer.append(1);
    try {
        writer.close();
        FAIL() << "close() returned although the records could not be synced";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), Errc::TraceError) << e.what();
    }
#endif
}

TEST(TraceBinary, ChecksumMatchesTheSealedHeader) {
    const Trace trace = zipf_trace(256, 32, 1.2, 5);
    const std::string path = temp_path("p4all_trace_sum.trc");
    save_binary_trace(trace, path);
    const std::string bytes = read_bytes(path);
    std::uint64_t sealed = 0;
    for (int i = 0; i < 8; ++i) {
        sealed |= std::uint64_t{static_cast<unsigned char>(bytes[20 + i])} << (8 * i);
    }
    EXPECT_EQ(sealed, trace_checksum(trace.keys));
    std::remove(path.c_str());
}

}  // namespace
}  // namespace p4all::workload
