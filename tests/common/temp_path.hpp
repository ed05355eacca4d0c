// Per-test scratch paths for tests that touch the filesystem.
//
// gtest_discover_tests runs every TEST as its own process, and `ctest -j`
// runs those processes side by side, so a fixed name under TempDir() is
// shared by every test that uses it: one test's TearDown deletes the
// directory another is still writing. temp_path() names each path by suite,
// test and process id instead.
#pragma once

#include <gtest/gtest.h>

#include <string>

#if defined(_WIN32)
#include <process.h>
#else
#include <unistd.h>
#endif

namespace p4all::test_util {

/// TempDir() + `stem` + "_<suite>_<test>_<pid>" (before `stem`'s extension,
/// if it has one), with '/' in parameterized names replaced by '_'.
inline std::string temp_path(const std::string& stem) {
    const std::size_t dot = stem.rfind('.');
    std::string name = stem.substr(0, dot);
    if (const auto* info = ::testing::UnitTest::GetInstance()->current_test_info()) {
        name += std::string("_") + info->test_suite_name() + "_" + info->name();
    }
#if defined(_WIN32)
    name += "_" + std::to_string(::_getpid());
#else
    name += "_" + std::to_string(::getpid());
#endif
    for (char& c : name) {
        if (c == '/') c = '_';
    }
    if (dot != std::string::npos) name += stem.substr(dot);
    return ::testing::TempDir() + name;
}

}  // namespace p4all::test_util
