// Allocation gate for the serving path: after a warm-up packet,
// Pipeline::process must not touch the heap. A counting replacement of the
// global operator new sees every allocation this test binary makes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "apps/applications.hpp"
#include "apps/netcache.hpp"
#include "compiler/compiler.hpp"
#include "sim/pipeline.hpp"
#include "support/rng.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Out of line, so GCC's -Wmismatched-new-delete does not pair an inlined
// malloc with operator delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace p4all::sim {
namespace {

const char* const kApps[] = {"netcache", "sketchlearn", "precision", "conquest"};

class ProcessAllocations : public ::testing::TestWithParam<int> {};

TEST_P(ProcessAllocations, NoHeapAllocationAfterTheFirstPacket) {
    const std::string sources[] = {apps::netcache_source(), apps::sketchlearn_source(),
                                   apps::precision_source(), apps::conquest_source()};
    compiler::CompileOptions options;
    options.backend = compiler::Backend::Greedy;  // layout quality is irrelevant here
    const compiler::CompileResult r =
        compiler::compile_source(sources[GetParam()], options, kApps[GetParam()]);
    ASSERT_NE(r.artifacts, nullptr);

    const Pipeline original(r.program, r.layout);
    Pipeline checked = original;  // a copy keeps its buffers' sizes
    Pipeline proved(r.program, r.layout, r.artifacts->proofs);
    ASSERT_GT(proved.bounds_checks_elided(), 0u);

    support::Xoshiro256 rng(0xA110C + static_cast<std::uint64_t>(GetParam()));
    Packet pkt(r.program.packet_fields.size(), 0);
    checked.process(pkt);  // warm-up
    proved.process(pkt);

    const std::size_t before = g_allocations.load();
    for (int i = 0; i < 10000; ++i) {
        for (std::uint64_t& field : pkt) {
            field = rng.next_below(4) == 0 ? rng() : rng.next_below(512);
        }
        checked.process(pkt);
        proved.process(pkt);
    }
    EXPECT_EQ(g_allocations.load() - before, 0u);
    EXPECT_EQ(checked.packets_processed(), proved.packets_processed());
}

INSTANTIATE_TEST_SUITE_P(DriverApps, ProcessAllocations, ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                             return std::string(kApps[info.param]);
                         });

}  // namespace
}  // namespace p4all::sim
