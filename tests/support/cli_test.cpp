// The strict CLI cursor (support/cli.hpp): every malformed command line
// must surface as the stable P4ALL-0105 usage error, never as a silently
// mis-parsed value.
#include "support/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/error.hpp"

namespace p4all::support {
namespace {

CliArgs make_args(std::vector<const char*> tokens) {
    tokens.insert(tokens.begin(), "prog");
    return CliArgs(static_cast<int>(tokens.size()), tokens.data(), 1);
}

std::string usage_message(const std::function<void()>& body) {
    try {
        body();
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), Errc::CliUsage);
        return e.what();
    }
    ADD_FAILURE() << "expected Error(Errc::CliUsage)";
    return "";
}

TEST(CliArgsTest, WalksFlagsInOrder) {
    CliArgs args = make_args({"--alpha", "--beta"});
    ASSERT_TRUE(args.next());
    EXPECT_TRUE(args.is("--alpha"));
    ASSERT_TRUE(args.next());
    EXPECT_EQ(args.flag(), "--beta");
    EXPECT_FALSE(args.next());
}

TEST(CliArgsTest, UnknownFlagThrowsTypedUsageError) {
    CliArgs args = make_args({"--no-such-flag"});
    ASSERT_TRUE(args.next());
    const std::string message = usage_message([&] { args.unknown(); });
    EXPECT_NE(message.find("P4ALL-0105"), std::string::npos);
    EXPECT_NE(message.find("--no-such-flag"), std::string::npos);
}

TEST(CliArgsTest, MissingValueThrows) {
    CliArgs args = make_args({"--packets"});
    ASSERT_TRUE(args.next());
    const std::string message = usage_message([&] { (void)args.value(); });
    EXPECT_NE(message.find("--packets"), std::string::npos);
}

TEST(CliArgsTest, ValueConsumesTheNextToken) {
    CliArgs args = make_args({"--out", "file.json", "--next"});
    ASSERT_TRUE(args.next());
    EXPECT_EQ(args.value(), "file.json");
    ASSERT_TRUE(args.next());
    EXPECT_TRUE(args.is("--next"));
}

TEST(CliArgsTest, UintParsesStrictly) {
    CliArgs args = make_args({"--n", "12345"});
    ASSERT_TRUE(args.next());
    EXPECT_EQ(args.uint_value(), 12345u);
}

TEST(CliArgsTest, UintRejectsTrailingGarbage) {
    CliArgs args = make_args({"--n", "10x"});
    ASSERT_TRUE(args.next());
    const std::string message = usage_message([&] { (void)args.uint_value(); });
    EXPECT_NE(message.find("10x"), std::string::npos);
}

TEST(CliArgsTest, UintRejectsNegative) {
    CliArgs args = make_args({"--n", "-3"});
    ASSERT_TRUE(args.next());
    (void)usage_message([&] { (void)args.uint_value(); });
}

TEST(CliArgsTest, UintRejectsEmptyAndOverflow) {
    {
        CliArgs args = make_args({"--n", ""});
        ASSERT_TRUE(args.next());
        (void)usage_message([&] { (void)args.uint_value(); });
    }
    {
        CliArgs args = make_args({"--n", "99999999999999999999999999"});
        ASSERT_TRUE(args.next());
        (void)usage_message([&] { (void)args.uint_value(); });
    }
}

TEST(CliArgsTest, UintEnforcesRange) {
    CliArgs args = make_args({"--opt-level", "7"});
    ASSERT_TRUE(args.next());
    const std::string message = usage_message([&] { (void)args.uint_value(0, 1); });
    EXPECT_NE(message.find("[0, 1]"), std::string::npos);
}

TEST(CliArgsTest, DoubleParsesStrictly) {
    CliArgs args = make_args({"--alpha", "1.25"});
    ASSERT_TRUE(args.next());
    EXPECT_DOUBLE_EQ(args.double_value(), 1.25);
}

TEST(CliArgsTest, DoubleRejectsGarbageAndNonFinite) {
    {
        CliArgs args = make_args({"--alpha", "fast"});
        ASSERT_TRUE(args.next());
        (void)usage_message([&] { (void)args.double_value(); });
    }
    {
        CliArgs args = make_args({"--alpha", "1e999"});
        ASSERT_TRUE(args.next());
        (void)usage_message([&] { (void)args.double_value(); });
    }
}

TEST(CliArgsTest, CliUsageCodeIsStable) {
    EXPECT_STREQ(errc_code(Errc::CliUsage), "P4ALL-0105");
    EXPECT_STREQ(errc_name(Errc::CliUsage), "cli-usage");
}

}  // namespace
}  // namespace p4all::support
