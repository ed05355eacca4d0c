// EpochCache: keys never alias, the LRU bound holds, only audited compiles
// are cached, and runtimes sharing a cache share the compile result but
// never the data plane.
#include "runtime/epoch_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "runtime/drivers.hpp"
#include "runtime/runtime.hpp"
#include "runtime/snapshot.hpp"
#include "support/error.hpp"
#include "workload/trace.hpp"

namespace p4all::runtime {
namespace {

/// A distinguishable stand-in for a compile result: the cache never looks
/// inside one.
EpochCache::Result result(double utility) {
    auto r = std::make_shared<compiler::CompileResult>();
    r->utility = utility;
    return r;
}

TEST(EpochCache, DifferentNamesOrSourcesNeverShareAnEntry) {
    EpochCache cache(8);
    const auto a = result(1.0);
    cache.insert("t0", "source", a);
    EXPECT_EQ(cache.find("t0", "source"), a);
    EXPECT_EQ(cache.find("t1", "source"), nullptr) << "same source, other program";
    EXPECT_EQ(cache.find("t0", "source\nassume cols == 64;"), nullptr)
        << "same program, other assume profile";
    EXPECT_EQ(cache.find("t", "0source"), nullptr) << "the name/source boundary is part of the key";

    const auto b = result(2.0);
    cache.insert("t1", "source", b);
    EXPECT_EQ(cache.find("t0", "source"), a);
    EXPECT_EQ(cache.find("t1", "source"), b);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.hits(), 3u);
    EXPECT_EQ(cache.misses(), 3u);
}

TEST(EpochCache, LruBoundHolds) {
    EpochCache cache(2);
    EXPECT_EQ(cache.capacity(), 2u);
    cache.insert("t", "s1", result(1.0));
    cache.insert("t", "s2", result(2.0));
    ASSERT_NE(cache.find("t", "s1"), nullptr);  // s2 is now least recently used
    cache.insert("t", "s3", result(3.0));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.find("t", "s2"), nullptr) << "the least recently used entry goes first";
    EXPECT_NE(cache.find("t", "s1"), nullptr);
    EXPECT_NE(cache.find("t", "s3"), nullptr);

    // Re-inserting a key replaces its result without growing the cache.
    const auto newer = result(4.0);
    cache.insert("t", "s3", newer);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.find("t", "s3"), newer);

    for (int i = 0; i < 50; ++i) {
        cache.insert("t", "fill" + std::to_string(i), result(i));
        EXPECT_LE(cache.size(), cache.capacity());
    }
    EXPECT_EQ(EpochCache(0).capacity(), 1u) << "a zero capacity still caches one epoch";
}

RuntimeOptions cached_options(std::shared_ptr<EpochCache> cache) {
    RuntimeOptions o;
    o.compile.backend = compiler::Backend::Greedy;
    o.exact_portfolio = false;
    o.auto_reconfigure = false;
    o.epochs = std::move(cache);
    return o;
}

TEST(EpochCache, FailedCompilesAreNeverCached) {
    const auto cache = std::make_shared<EpochCache>(4);
    EXPECT_THROW(ElasticRuntime("broken", "this is not P4All", cached_options(cache)),
                 support::CompileError);
    EXPECT_EQ(cache->size(), 0u);
    EXPECT_EQ(cache->misses(), 1u);
    EXPECT_THROW(ElasticRuntime("broken", "this is not P4All", cached_options(cache)),
                 support::CompileError)
        << "a retry compiles (and fails) again";
    EXPECT_EQ(cache->misses(), 2u);
}

TEST(EpochCache, RuntimesShareTheCompileResultButNotTheDataPlane) {
    const auto cache = std::make_shared<EpochCache>(4);
    const AppDriver driver = make_driver("netcache");
    ElasticRuntime first(driver.name, driver.source, cached_options(cache), driver.profile);
    ElasticRuntime second(driver.name, driver.source, cached_options(cache), driver.profile);
    EXPECT_EQ(cache->misses(), 1u);
    EXPECT_EQ(cache->hits(), 1u);
    EXPECT_EQ(&first.compiled(), &second.compiled()) << "one audited result, shared";
    EXPECT_NE(&first.pipeline(), &second.pipeline());

    // Traffic through one runtime leaves the other's registers untouched.
    AppDriver feeder = make_driver("netcache");
    const std::uint64_t idle = take_snapshot(second.pipeline(), 0).checksum();
    for (const std::uint64_t key : workload::zipf_trace(512, 128, 1.1, 3).keys) {
        feeder.step(first, key);
    }
    EXPECT_NE(take_snapshot(first.pipeline(), 0).checksum(), idle);
    EXPECT_EQ(take_snapshot(second.pipeline(), 0).checksum(), idle);

    // A runtime without the handle compiles on its own, as before.
    ElasticRuntime standalone(driver.name, driver.source, cached_options(nullptr),
                              driver.profile);
    EXPECT_NE(&standalone.compiled(), &first.compiled());
    EXPECT_EQ(standalone.compiled().p4_source, first.compiled().p4_source);
    EXPECT_EQ(cache->hits() + cache->misses(), 2u);
}

}  // namespace
}  // namespace p4all::runtime
