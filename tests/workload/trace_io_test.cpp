#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/temp_path.hpp"
#include "workload/trace.hpp"

namespace p4all::workload {
namespace {

class TraceIo : public ::testing::Test {
protected:
    void TearDown() override { std::remove(path_.c_str()); }
    std::string path_ = test_util::temp_path("p4all_trace_io_test.txt");
};

TEST_F(TraceIo, SaveLoadRoundTrip) {
    const Trace original = zipf_trace(5000, 300, 1.1, 77);
    save_trace(original, path_);
    const Trace loaded = load_trace(path_);
    EXPECT_EQ(loaded.keys, original.keys);
    EXPECT_EQ(loaded.counts, original.counts);
}

TEST_F(TraceIo, LoadSkipsCommentsAndBlankLines) {
    {
        std::ofstream out(path_);
        out << "# header comment\n\n42\n7\n# trailing\n42\n";
    }
    const Trace t = load_trace(path_);
    ASSERT_EQ(t.keys.size(), 3u);
    EXPECT_EQ(t.keys[0], 42u);
    EXPECT_EQ(t.keys[1], 7u);
    EXPECT_EQ(t.counts.at(42), 2u);
}

TEST_F(TraceIo, LoadRejectsMalformedLines) {
    {
        std::ofstream out(path_);
        out << "12\nnot-a-number\n";
    }
    EXPECT_THROW((void)load_trace(path_), std::runtime_error);
}

TEST_F(TraceIo, MissingFileThrows) {
    EXPECT_THROW((void)load_trace("/nonexistent/dir/trace.txt"), std::runtime_error);
}

TEST_F(TraceIo, SaveToUnwritablePathThrows) {
    const Trace t = zipf_trace(10, 5, 1.0, 1);
    EXPECT_THROW(save_trace(t, "/nonexistent/dir/trace.txt"), std::runtime_error);
}

}  // namespace
}  // namespace p4all::workload
