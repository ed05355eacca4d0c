// support/durable: the record log under every torn tail, atomic replace,
// the shared sync calls, and the little-endian codecs. The journal and
// fleet.log inherit their crash behaviour from the record log, so its
// byte-offset matrix is the base of theirs.
#include "support/durable.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/temp_path.hpp"
#include "support/error.hpp"

#if defined(__linux__)
#include <sys/resource.h>
#endif

#if defined(__SANITIZE_THREAD__)
#define P4ALL_DURABLE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define P4ALL_DURABLE_TSAN 1
#endif
#endif

namespace p4all::support {
namespace {

namespace fs = std::filesystem;

/// A format whose code no real log uses, so every test can tell that the
/// error it sees carries the caller's code and not a default.
constexpr LogFormat kTestLog{"P4TESTLG", 3, Errc::SnapshotError};

Errc code_of(const std::function<void()>& fn) {
    try {
        fn();
    } catch (const Error& e) {
        return e.code();
    } catch (...) {
        return Errc::Internal;
    }
    return Errc::None;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

TEST(DurableCodecs, RoundTripLittleEndian) {
    std::string out;
    put_u32(out, 0x01020304u);
    put_u64(out, 0x8877665544332211ull);
    ASSERT_EQ(out.size(), 12u);
    EXPECT_EQ(out[0], '\x04');
    EXPECT_EQ(out[3], '\x01');
    EXPECT_EQ(out[4], '\x11');
    EXPECT_EQ(out[11], '\x88');
    EXPECT_EQ(get_u32(out.data()), 0x01020304u);
    EXPECT_EQ(get_u64(out.data() + 4), 0x8877665544332211ull);

    std::string ones;
    put_u64(ones, ~std::uint64_t{0});
    EXPECT_EQ(get_u64(ones.data()), ~std::uint64_t{0});
}

class DurableLog : public ::testing::Test {
protected:
    void SetUp() override { fs::remove(path_); }
    void TearDown() override {
        fs::remove(path_);
        fs::remove(path_ + ".tmp");
    }
    std::string path_ = test_util::temp_path("p4all_durable.log");
};

TEST_F(DurableLog, OpeningAMissingLogCreatesItsHeader) {
    LogScan opened;
    { RecordLog log(path_, kTestLog, &opened); }
    EXPECT_TRUE(opened.clean);
    EXPECT_TRUE(opened.records.empty());
    EXPECT_EQ(opened.valid_bytes, 0u) << "the file did not exist before";

    const std::string bytes = read_file(path_);
    ASSERT_EQ(bytes.size(), 12u);
    EXPECT_EQ(bytes.substr(0, 8), "P4TESTLG");
    EXPECT_EQ(get_u32(bytes.data() + 8), 3u);
    EXPECT_FALSE(fs::exists(path_ + ".tmp"));

    const LogScan scan = scan_log(path_, kTestLog);
    EXPECT_TRUE(scan.clean);
    EXPECT_TRUE(scan.records.empty());
    EXPECT_EQ(scan.valid_bytes, 12u);
}

TEST_F(DurableLog, MissingLogScansAsEmptyAndClean) {
    const LogScan scan = scan_log(path_, kTestLog);
    EXPECT_TRUE(scan.clean);
    EXPECT_TRUE(scan.records.empty());
    EXPECT_EQ(scan.valid_bytes, 0u);
    EXPECT_FALSE(fs::exists(path_)) << "scanning must not create the log";
}

TEST_F(DurableLog, CleanReopenAppendsAfterEveryRecord) {
    const std::string binary("\0\xff\n\r", 4);
    {
        RecordLog log(path_, kTestLog);
        log.append("one");
        log.append("");
        log.append(binary);
    }
    LogScan opened;
    {
        RecordLog log(path_, kTestLog, &opened);
        log.append("four");
    }
    EXPECT_TRUE(opened.clean) << opened.damage;
    EXPECT_EQ(opened.records, (std::vector<std::string>{"one", "", binary}));

    const LogScan scan = scan_log(path_, kTestLog);
    EXPECT_TRUE(scan.clean) << scan.damage;
    EXPECT_EQ(scan.records, (std::vector<std::string>{"one", "", binary, "four"}));
    EXPECT_EQ(scan.valid_bytes, fs::file_size(path_));
}

TEST_F(DurableLog, EveryTornOffsetOfTheLastRecordIsCutAndLaterAppendsSurvive) {
    {
        RecordLog log(path_, kTestLog);
        log.append("alpha");
        log.append("bravo");
    }
    const std::uint64_t last_start = fs::file_size(path_);
    {
        RecordLog log(path_, kTestLog);
        log.append("charlie, the record a crash tears");
    }
    const std::string full = read_file(path_);
    ASSERT_GT(full.size(), last_start);

    for (std::size_t cut = last_start; cut < full.size(); ++cut) {
        write_file(path_, full.substr(0, cut));

        // Reading reports the damage and leaves the file alone.
        const LogScan seen = scan_log(path_, kTestLog);
        EXPECT_EQ(seen.records, (std::vector<std::string>{"alpha", "bravo"})) << "cut " << cut;
        EXPECT_EQ(seen.clean, cut == last_start) << "cut " << cut;
        EXPECT_EQ(seen.damage.empty(), seen.clean) << "cut " << cut;
        EXPECT_EQ(seen.valid_bytes, last_start) << "cut " << cut;
        EXPECT_EQ(fs::file_size(path_), cut) << "cut " << cut;

        // Opening cuts the torn bytes, so appends land on the valid prefix.
        LogScan opened;
        {
            RecordLog log(path_, kTestLog, &opened);
            log.append("after-1");
            log.append("after-2");
        }
        EXPECT_EQ(opened.records, seen.records) << "cut " << cut;
        EXPECT_EQ(opened.clean, seen.clean) << "cut " << cut;

        const LogScan after = scan_log(path_, kTestLog);
        EXPECT_TRUE(after.clean) << "cut " << cut << ": " << after.damage;
        EXPECT_EQ(after.records,
                  (std::vector<std::string>{"alpha", "bravo", "after-1", "after-2"}))
            << "cut " << cut;
    }
}

TEST_F(DurableLog, EveryFlippedByteEndsThePrefixAtItsRecord) {
    const std::vector<std::string> records = {"first", "second", "third"};
    std::vector<std::uint64_t> ends;  // byte offset just past each frame
    {
        RecordLog log(path_, kTestLog);
        std::uint64_t end = 12;
        for (const std::string& r : records) {
            log.append(r);
            end += 12 + r.size();
            ends.push_back(end);
        }
    }
    const std::string full = read_file(path_);
    ASSERT_EQ(full.size(), ends.back());
    for (std::size_t at = 12; at < full.size(); ++at) {
        std::string bytes = full;
        bytes[at] = static_cast<char>(bytes[at] ^ 0x5A);
        write_file(path_, bytes);
        std::size_t hit = 0;
        while (at >= ends[hit]) ++hit;
        LogScan scan;
        ASSERT_NO_THROW(scan = scan_log(path_, kTestLog)) << "byte " << at;
        EXPECT_FALSE(scan.clean) << "byte " << at;
        ASSERT_EQ(scan.records.size(), hit) << "byte " << at;
        EXPECT_EQ(scan.valid_bytes, hit == 0 ? 12u : ends[hit - 1]) << "byte " << at;
    }
}

TEST_F(DurableLog, BadHeadersAreRefusedWithTheCallersCode) {
    std::string wrong_version("P4TESTLG", 8);
    put_u32(wrong_version, 4);
    std::string foreign("P4OTHERL", 8);
    put_u32(foreign, 3);
    for (const std::string& bytes :
         {std::string(), std::string("P4TEST"), foreign, wrong_version,
          std::string("{\"seq\":1,\"kind\":\"admit\"}\n")}) {
        write_file(path_, bytes);
        EXPECT_EQ(code_of([&] { (void)scan_log(path_, kTestLog); }), Errc::SnapshotError)
            << "header '" << bytes << "'";
        EXPECT_EQ(code_of([&] { RecordLog log(path_, kTestLog); }), Errc::SnapshotError)
            << "header '" << bytes << "'";
        EXPECT_EQ(read_file(path_), bytes) << "a refused file must be left untouched";
    }
}

TEST_F(DurableLog, RejectedPayloadEndsThePrefixLikeATornRecord) {
    {
        RecordLog log(path_, kTestLog);
        log.append("good");
        log.append("bad");
        log.append("later");
    }
    LogFormat checked = kTestLog;
    checked.accepts = [](std::string_view payload) { return payload != "bad"; };
    const LogScan scan = scan_log(path_, checked);
    EXPECT_FALSE(scan.clean);
    EXPECT_NE(scan.damage.find("decode"), std::string::npos) << scan.damage;
    EXPECT_EQ(scan.records, (std::vector<std::string>{"good"}));

    {
        RecordLog log(path_, checked);
        log.append("next");
    }
    const LogScan after = scan_log(path_, checked);
    EXPECT_TRUE(after.clean) << after.damage;
    EXPECT_EQ(after.records, (std::vector<std::string>{"good", "next"}));
}

TEST_F(DurableLog, OversizedRecordsAreRefusedBeforeAnyByteIsWritten) {
    RecordLog log(path_, kTestLog);
    EXPECT_EQ(code_of([&] { log.append(std::string(kMaxRecordBytes + 1, 'x')); }),
              Errc::SnapshotError);
    log.append("fits");
    const LogScan scan = scan_log(path_, kTestLog);
    EXPECT_TRUE(scan.clean) << scan.damage;
    EXPECT_EQ(scan.records, (std::vector<std::string>{"fits"}));
}

#if defined(__linux__)
/// The child of the partial-append test: appends one record, then one that
/// crosses a file-size limit set just past the log, then — with the limit
/// lifted — one more through the same handle. Exits 0 only when the second
/// append failed with the caller's code and left the file at its
/// acknowledged size.
[[noreturn]] void append_across_a_size_limit(const std::string& path) {
    std::signal(SIGXFSZ, SIG_IGN);  // a write past the limit fails with EFBIG instead
    RecordLog log(path, kTestLog);
    log.append("acked-2");
    const auto acked = fs::file_size(path);
    rlimit limit{};
    if (getrlimit(RLIMIT_FSIZE, &limit) != 0) std::_Exit(2);
    const rlim_t original = limit.rlim_cur;
    limit.rlim_cur = acked + 5;  // the next frame's first 5 bytes fit
    if (setrlimit(RLIMIT_FSIZE, &limit) != 0) std::_Exit(2);
    if (code_of([&] { log.append(std::string(64, 'x')); }) != Errc::SnapshotError) std::_Exit(3);
    if (fs::file_size(path) != acked) std::_Exit(4);
    limit.rlim_cur = original;
    if (setrlimit(RLIMIT_FSIZE, &limit) != 0) std::_Exit(2);
    log.append("acked-3");
    std::_Exit(0);
}
#endif

TEST_F(DurableLog, AppendFailingPartWayLeavesNoTornBytesForLaterAppends) {
#if !defined(__linux__)
    GTEST_SKIP() << "relies on RLIMIT_FSIZE and SIGXFSZ";
#elif defined(P4ALL_DURABLE_TSAN)
    GTEST_SKIP() << "fork-based cells are not TSan-compatible";
#else
    {
        RecordLog log(path_, kTestLog);
        log.append("acked-1");
    }
    // Forked: the size limit and the ignored signal must not leak into the
    // rest of the suite.
    EXPECT_EXIT(append_across_a_size_limit(path_), ::testing::ExitedWithCode(0), "");

    const LogScan scan = scan_log(path_, kTestLog);
    EXPECT_TRUE(scan.clean) << scan.damage;
    EXPECT_EQ(scan.records, (std::vector<std::string>{"acked-1", "acked-2", "acked-3"}));
    LogScan opened;
    { RecordLog log(path_, kTestLog, &opened); }
    EXPECT_TRUE(opened.clean) << opened.damage;
    EXPECT_EQ(opened.records, scan.records);
#endif
}

TEST(DurableReplace, ReplacesTheWholeFileAndLeavesNoTemp) {
    const std::string path = test_util::temp_path("p4all_replace.txt");
    atomic_replace(path, "first version, longer", Errc::SnapshotError);
    EXPECT_EQ(read_file(path), "first version, longer");
    atomic_replace(path, "second", Errc::SnapshotError);
    EXPECT_EQ(read_file(path), "second");
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    fs::remove(path);
}

TEST(DurableReplace, FailureCarriesTheCallersCodeAndLeavesNoTemp) {
    const std::string dir = test_util::temp_path("p4all_replace_missing_dir");
    fs::remove_all(dir);
    const std::string path = dir + "/file";
    EXPECT_EQ(code_of([&] { atomic_replace(path, "x", Errc::TraceError); }), Errc::TraceError);
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(DurableSync, FailuresCarryTheCallersCode) {
#if !defined(__linux__)
    GTEST_SKIP() << "relies on Linux directory syncs and on fsync(/dev/null) failing";
#else
    const std::string missing = test_util::temp_path("p4all_no_such_dir");
    fs::remove_all(missing);
    EXPECT_EQ(code_of([&] { sync_dir(missing, Errc::JournalError); }), Errc::JournalError);
    EXPECT_EQ(code_of([] { sync_dir("", Errc::JournalError); }), Errc::None)
        << "the empty name is the current directory";
    // Linux refuses fsync on /dev/null with EINVAL.
    std::FILE* f = std::fopen("/dev/null", "wb");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(code_of([&] { sync_file(f, "/dev/null", Errc::TraceError); }), Errc::TraceError);
    std::fclose(f);
#endif
}

}  // namespace
}  // namespace p4all::support
