// FleetController end-to-end: admission, failover with journal replay,
// heartbeat-driven death, breaker-guarded installs, the degradation ladder,
// shedding, readmission, the restore paths that fail part-way (a fold-back
// whose swap rolls back, a refused eviction), the epoch cache (cached
// failover against cold journal recovery, its size bound) — and
// determinism across solver thread counts.
#include "fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/temp_path.hpp"
#include "runtime/snapshot.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "workload/cluster.hpp"
#include "workload/trace.hpp"

namespace p4all::fleet {
namespace {

using support::Errc;
using support::Error;

FleetOptions fast_options(const std::string& dir) {
    FleetOptions options;
    options.runtime.compile.backend = compiler::Backend::Greedy;
    options.runtime.exact_portfolio = false;
    options.runtime.drift.window = 256;
    options.runtime.drift.top_k = 16;
    options.journal_root = dir;
    return options;
}

bool has_event(const FleetController& fleet, FleetEventKind kind) {
    for (const FleetEvent& event : fleet.events()) {
        if (event.kind == kind) return true;
    }
    return false;
}

std::string detail_of(const FleetController& fleet, FleetEventKind kind) {
    for (const FleetEvent& event : fleet.events()) {
        if (event.kind == kind) return event.detail;
    }
    return "";
}

class FleetTest : public ::testing::Test {
protected:
    void TearDown() override {
        support::FaultRegistry::instance().clear();
        std::filesystem::remove_all(dir_);
    }
    std::string dir_ = test_util::temp_path("p4all_fleet_test");
};

TEST_F(FleetTest, RejectsBrokenTopologies) {
    const std::vector<SwitchSpec> one_switch = {{"sw0", 0}};
    const std::vector<TenantSpec> one_tenant = {{"t0", "netcache"}};

    EXPECT_THROW(FleetController(FleetOptions{}, one_switch, one_tenant), Error)
        << "journal_root unset";
    EXPECT_THROW(FleetController(fast_options(dir_), {}, one_tenant), Error) << "no switches";
    EXPECT_THROW(FleetController(fast_options(dir_), {{"sw0", 0}, {"sw0", 0}}, one_tenant),
                 Error)
        << "duplicate switch";
    EXPECT_THROW(
        FleetController(fast_options(dir_), one_switch, {{"t0", "netcache"}, {"t0", "netcache"}}),
        Error)
        << "duplicate tenant";
    try {
        FleetController fleet(fast_options(dir_), one_switch, {{"t0", "no-such-app"}});
        FAIL() << "unknown app accepted";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), Errc::FleetConfig);
        EXPECT_NE(std::string(e.what()).find("P4ALL-0501"), std::string::npos);
    }
}

TEST_F(FleetTest, AdmitsEveryTenantAndRoutesPackets) {
    FleetController fleet(fast_options(dir_), {{"sw0", 0}, {"sw1", 0}},
                          {{"t0", "netcache"}, {"t1", "precision"}});
    EXPECT_FALSE(fleet.parked("t0"));
    EXPECT_FALSE(fleet.parked("t1"));
    EXPECT_FALSE(fleet.home_of("t0").empty());
    EXPECT_EQ(fleet.level_of("t0"), 0);
    EXPECT_TRUE(has_event(fleet, FleetEventKind::Admit));

    const workload::Trace trace = workload::zipf_trace(400, 128, 1.1, 3);
    const auto cluster = workload::split_by_flow(trace, {"t0", "t1"}, 3);
    for (const auto& packet : cluster) fleet.step(packet.tenant, packet.key);
    EXPECT_EQ(fleet.packets_routed(), cluster.size());
    EXPECT_EQ(fleet.packets_dropped(), 0u);
    EXPECT_GT(fleet.tenant_bits("t0"), 0);
}

TEST_F(FleetTest, StepThrowsOnUnknownTenant) {
    FleetController fleet(fast_options(dir_), {{"sw0", 0}}, {{"t0", "netcache"}});
    try {
        fleet.step("nobody", 1);
        FAIL();
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), Errc::FleetConfig);
    }
}

TEST_F(FleetTest, FailoverReplaysTheTenantJournalOnTheNewHome) {
    FleetController fleet(fast_options(dir_), {{"sw0", 0}, {"sw1", 0}}, {{"t0", "netcache"}});
    const workload::Trace trace = workload::zipf_trace(512, 128, 1.1, 7);
    for (const std::uint64_t key : trace.keys) fleet.step("t0", key);
    // Checkpoint: commit an epoch so the journal pins the live state.
    runtime::require_committed(fleet.runtime_of("t0")->reconfigure("checkpoint"));
    const std::uint64_t before = fleet.digest("t0");
    const std::string old_home = fleet.home_of("t0");

    fleet.kill_switch(old_home);

    EXPECT_EQ(fleet.switch_state(old_home), Liveness::Dead);
    EXPECT_TRUE(has_event(fleet, FleetEventKind::SwitchDead));
    EXPECT_TRUE(has_event(fleet, FleetEventKind::Failover));
    EXPECT_FALSE(fleet.parked("t0"));
    EXPECT_NE(fleet.home_of("t0"), old_home);
    EXPECT_EQ(fleet.digest("t0"), before)
        << "failover must reproduce the last committed state bit-for-bit";
    // The failed-over tenant keeps serving.
    fleet.step("t0", 42);
    EXPECT_EQ(fleet.packets_dropped(), 0u);
}

TEST_F(FleetTest, HeartbeatMissesDeclareASwitchDead) {
    FleetOptions options = fast_options(dir_);
    options.health.miss_threshold = 3;
    FleetController fleet(options, {{"sw0", 0}}, {{"t0", "netcache"}});

    // Every probe is dropped: the fault point stands in for the network.
    support::FaultRegistry::instance().configure("fleet.heartbeat:prob=1:seed=1");
    fleet.tick();
    EXPECT_EQ(fleet.switch_state("sw0"), Liveness::Suspect);
    fleet.tick();
    fleet.tick();
    EXPECT_EQ(fleet.switch_state("sw0"), Liveness::Dead);
    // Sole switch gone: nowhere to fail over to — the tenant parks, its
    // packets drop, and its journal survives for the rejoin.
    EXPECT_TRUE(fleet.parked("t0"));
    fleet.step("t0", 7);
    EXPECT_EQ(fleet.packets_dropped(), 1u);

    support::FaultRegistry::instance().clear();
    fleet.revive_switch("sw0");
    EXPECT_EQ(fleet.switch_state("sw0"), Liveness::Alive);
    EXPECT_TRUE(has_event(fleet, FleetEventKind::Rejoin));
    EXPECT_TRUE(has_event(fleet, FleetEventKind::Readmit));
    EXPECT_FALSE(fleet.parked("t0"));
    fleet.step("t0", 8);
    EXPECT_EQ(fleet.packets_routed(), 1u);
}

TEST_F(FleetTest, BreakerRefusesInstallsAfterRepeatedSwapFailures) {
    FleetOptions options = fast_options(dir_);
    options.breaker.failure_threshold = 1;
    options.breaker.open_ticks = 1;
    options.backoff.max_attempts = 2;  // keep the doomed retries cheap
    FleetController fleet(options, {{"sw0", 0}, {"sw1", 0}}, {{"t0", "netcache"}});
    ASSERT_EQ(fleet.home_of("t0"), "sw0");

    // Every install's swap fails: the failover to sw1 exhausts its retries,
    // trips sw1's breaker, and the retry-after-make-room is refused by it.
    support::FaultRegistry::instance().configure("fleet.swap:prob=1:seed=1");
    fleet.kill_switch("sw0");

    EXPECT_TRUE(fleet.parked("t0"));
    EXPECT_EQ(fleet.breaker_state("sw1"), BreakerState::Open);
    EXPECT_TRUE(has_event(fleet, FleetEventKind::FailoverFailed));
    EXPECT_TRUE(has_event(fleet, FleetEventKind::BreakerTrip));
    EXPECT_TRUE(has_event(fleet, FleetEventKind::Shed));
    EXPECT_NE(detail_of(fleet, FleetEventKind::BreakerTrip).find("P4ALL-0503"),
              std::string::npos);
    EXPECT_GT(fleet.backoff_delay_ms(), 0.0) << "retries must price virtual delay";

    // Cool-down, then rejoin: the tenant is served again.
    support::FaultRegistry::instance().clear();
    fleet.tick();
    EXPECT_EQ(fleet.breaker_state("sw1"), BreakerState::HalfOpen);
    fleet.revive_switch("sw0");
    EXPECT_FALSE(fleet.parked("t0"));
}

TEST_F(FleetTest, CapacityCrunchDegradesResidentsBeforeShedding) {
    // netcache at full profile does not leave room for precision; one
    // ladder rung does.
    FleetController fleet(fast_options(dir_), {{"sw0", 140000}},
                          {{"t0", "netcache"}, {"t1", "precision"}});
    EXPECT_FALSE(fleet.parked("t0"));
    EXPECT_FALSE(fleet.parked("t1"));
    EXPECT_EQ(fleet.level_of("t0"), 1) << "the resident must shrink to make room";
    EXPECT_TRUE(has_event(fleet, FleetEventKind::Degrade));
    EXPECT_LE(fleet.tenant_bits("t0") + fleet.tenant_bits("t1"), 140000);
}

TEST_F(FleetTest, ShedIsTheLastRungAndIsTyped) {
    // Capacity fits a floor-level netcache and nothing else.
    FleetController fleet(fast_options(dir_), {{"sw0", 62000}},
                          {{"t0", "netcache"}, {"t1", "precision"}});
    EXPECT_FALSE(fleet.parked("t0"));
    EXPECT_GE(fleet.level_of("t0"), 2);
    EXPECT_TRUE(fleet.parked("t1"));
    EXPECT_EQ(fleet.digest("t1"), 0u);
    EXPECT_NE(detail_of(fleet, FleetEventKind::Shed).find("P4ALL-0505"), std::string::npos);
}

TEST_F(FleetTest, RouteFaultsRetryThenDrop) {
    FleetController fleet(fast_options(dir_), {{"sw0", 0}}, {{"t0", "netcache"}});
    support::FaultRegistry::instance().configure("fleet.route:prob=1:seed=5");
    fleet.step("t0", 1);
    EXPECT_EQ(fleet.packets_dropped(), 1u);
    EXPECT_GT(fleet.route_retries(), 0u);
    EXPECT_TRUE(has_event(fleet, FleetEventKind::RouteDrop));

    support::FaultRegistry::instance().clear();
    fleet.step("t0", 2);
    EXPECT_EQ(fleet.packets_routed(), 1u);
}

/// 3 capacity-bounded switches, 6 tenants: losing one switch forces the
/// degradation ladder, and the rejoin climbs everyone back.
const std::vector<SwitchSpec> kBoundedSwitches = {{"sw0", 150000}, {"sw1", 150000},
                                                  {"sw2", 150000}};
const std::vector<TenantSpec> kSixTenants = {{"n0", "netcache"},  {"n1", "netcache"},
                                             {"n2", "netcache"},  {"p0", "precision"},
                                             {"p1", "precision"}, {"p2", "precision"}};

TEST_F(FleetTest, CachedFailoverEqualsColdJournalRecovery) {
    std::vector<std::string> names;
    for (const TenantSpec& spec : kSixTenants) names.push_back(spec.name);
    FleetController fleet(fast_options(dir_), kBoundedSwitches, kSixTenants);
    const auto cluster =
        workload::split_by_flow(workload::zipf_trace(3072, 400, 1.2, 31), names, 31);
    std::uint64_t fed = 0;
    for (const auto& packet : cluster) {
        if (fed == 1024) fleet.kill_switch("sw2");
        if (fed == 2048) fleet.revive_switch("sw2");
        fleet.step(packet.tenant, packet.key);
        if (++fed % 256 == 0) fleet.tick();
    }
    ASSERT_TRUE(has_event(fleet, FleetEventKind::Failover));
    ASSERT_TRUE(has_event(fleet, FleetEventKind::Degrade));
    ASSERT_TRUE(has_event(fleet, FleetEventKind::Restore));
    EXPECT_GT(fleet.epochs_reused(), 0u) << "failovers must have taken cached epochs";

    // Cold recovery: the same journal, replayed by a runtime with no cache.
    // A checkpoint first pins each live state as the journal's last commit.
    for (const TenantSpec& spec : kSixTenants) {
        ASSERT_FALSE(fleet.parked(spec.name)) << spec.name;
        runtime::require_committed(fleet.runtime_of(spec.name)->reconfigure("checkpoint"));
        const std::string copy = dir_ + "_cold_" + spec.name;
        std::filesystem::remove_all(copy);
        std::filesystem::copy(dir_ + "/" + spec.name, copy,
                              std::filesystem::copy_options::recursive);
        runtime::RuntimeOptions options = fast_options(dir_).runtime;
        options.journal_dir = copy;
        const runtime::AppDriver driver = runtime::make_driver(spec.app);
        const auto cold = runtime::ElasticRuntime::recover(spec.name, driver.source, options,
                                                           driver.profile);
        const runtime::ElasticRuntime& live = *fleet.runtime_of(spec.name);
        EXPECT_EQ(cold->epoch(), live.epoch()) << spec.name;
        EXPECT_EQ(cold->compiled().utility, live.compiled().utility) << spec.name;
        EXPECT_EQ(cold->compiled().p4_source, live.compiled().p4_source) << spec.name;
        EXPECT_EQ(runtime::take_snapshot(cold->pipeline(), cold->epoch()).checksum(),
                  fleet.digest(spec.name))
            << spec.name;
        std::filesystem::remove_all(copy);
    }
}

TEST_F(FleetTest, EpochCacheStaysWithinTenantsTimesLadderRungs) {
    FleetOptions options = fast_options(dir_);
    // One rung: a bound of one epoch per tenant, which drift swaps overflow.
    options.max_degrade_level = 0;
    std::vector<std::string> names;
    for (const TenantSpec& spec : kSixTenants) names.push_back(spec.name);
    FleetController fleet(options, kBoundedSwitches, kSixTenants);
    const std::size_t bound = kSixTenants.size() * (options.max_degrade_level + 1);

    // A new hot set every 2 windows: drift swaps keep adding profiles.
    const auto cluster = workload::split_by_flow(
        workload::zipf_drifting_trace(12288, 2000, 1.2, 17, 2), names, 17);
    std::uint64_t fed = 0;
    for (const auto& packet : cluster) {
        if (fed % 4096 == 1024) fleet.kill_switch("sw" + std::to_string(fed / 4096 % 3));
        if (fed % 4096 == 3072) fleet.revive_switch("sw" + std::to_string(fed / 4096 % 3));
        fleet.step(packet.tenant, packet.key);
        if (++fed % 256 == 0) fleet.tick();
        ASSERT_LE(fleet.epochs_cached(), bound) << "after packet " << fed;
    }
    EXPECT_GT(fleet.epochs_compiled(), bound) << "the trace must push the cache past its bound";
    EXPECT_GT(fleet.epochs_reused(), 0u);
}

/// Every tenant's home and level: what FleetController::recover must
/// rebuild from fleet.log.
std::vector<std::string> placements(const FleetController& fleet,
                                    const std::vector<TenantSpec>& tenants) {
    std::vector<std::string> out;
    for (const TenantSpec& spec : tenants) {
        out.push_back(spec.name + "@" + fleet.home_of(spec.name) + " L" +
                      std::to_string(fleet.level_of(spec.name)));
    }
    return out;
}

void expect_within_capacity(const FleetController& fleet,
                            const std::vector<SwitchSpec>& switches) {
    for (const SwitchSpec& sw : switches) {
        std::int64_t used = 0;
        for (const std::string& tenant : fleet.tenants_on(sw.name)) {
            used += fleet.tenant_bits(tenant);
        }
        EXPECT_LE(used, sw.capacity_bits) << sw.name << " serves past its capacity";
    }
}

const FleetEvent* find_event(const FleetController& fleet, FleetEventKind kind,
                             const std::string& detail_part) {
    for (const FleetEvent& event : fleet.events()) {
        if (event.kind == kind && event.detail.find(detail_part) != std::string::npos) {
            return &event;
        }
    }
    return nullptr;
}

TEST_F(FleetTest, FoldBackThatRollsBackReplacesTheTenantFromItsJournal) {
    // sw0 holds n0 at full profile (131072 bits at the empty-window
    // profile) but not n0 and p0 together; sw1 never holds a full n0.
    const std::vector<SwitchSpec> switches = {{"sw0", 140000}, {"sw1", 120000}};
    const std::vector<TenantSpec> tenants = {{"n0", "netcache"}, {"p0", "precision"}};
    std::vector<std::string> live;
    {
        FleetController fleet(fast_options(dir_), switches, tenants);
        // p0 fails over onto n0's switch and squeezes n0 to L1, so n0's L0
        // footprint is priced at the empty-window profile.
        fleet.kill_switch("sw1");
        ASSERT_EQ(fleet.level_of("n0"), 1);
        // 100 distinct keys per window: n0's drifted L0 profile (147456
        // bits) no longer fits a whole switch; its L1 profile still does.
        for (std::uint64_t k = 0; k < 1024; ++k) fleet.step("n0", k % 100);

        // The rejoin evicts p0 to sw1 and lifts n0 in place at the stale L0
        // price. The lift commits and outgrows sw0, and the fold-back's swap
        // (the second runtime.swap hit) rolls back.
        support::FaultRegistry::instance().configure("runtime.swap:after=2");
        fleet.revive_switch("sw1");
        ASSERT_EQ(support::FaultRegistry::instance().fires("runtime.swap"), 1)
            << "the rejoin must reach the fold-back";
        support::FaultRegistry::instance().clear();

        expect_within_capacity(fleet, switches);
        EXPECT_FALSE(fleet.parked("n0"));
        EXPECT_NE(find_event(fleet, FleetEventKind::Failover, "failed fold-back"), nullptr)
            << "a fold-back that did not take must re-place the tenant, journaled";
        live = placements(fleet, tenants);
    }
    const auto recovered = FleetController::recover(fast_options(dir_), switches, tenants);
    EXPECT_EQ(placements(*recovered, tenants), live);
}

/// The CI degradation soak in process: 3 capped switches, 6 tenants, sw2
/// lost at packet 1024 and back at 2048, with `rejoin_faults` armed for the
/// rejoin alone.
void drive_soak(FleetController& fleet, const std::string& rejoin_faults) {
    std::vector<std::string> names;
    for (const TenantSpec& spec : kSixTenants) names.push_back(spec.name);
    const auto cluster =
        workload::split_by_flow(workload::zipf_drifting_trace(3072, 400, 1.2, 31, 4), names, 31);
    std::uint64_t fed = 0;
    for (const auto& packet : cluster) {
        if (fed == 1024) fleet.kill_switch("sw2");
        if (fed == 2048) {
            support::FaultRegistry::instance().configure(rejoin_faults);
            fleet.revive_switch("sw2");
            support::FaultRegistry::instance().clear();
        }
        fleet.step(packet.tenant, packet.key);
        if (++fed % 256 == 0) fleet.tick();
    }
}

TEST_F(FleetTest, RefusedEvictionRestoresTheNeighbourAndReplays) {
    FleetOptions options = fast_options(dir_);
    options.backoff.max_attempts = 1;  // one failed install is a refusal

    // Dry run: every install of the rejoin hits fleet.swap once; count them
    // up to the eviction's.
    int eviction_hit = 0;
    {
        FleetController fleet(options, kBoundedSwitches, kSixTenants);
        drive_soak(fleet, "");
        const auto rejoin = std::find_if(fleet.events().begin(), fleet.events().end(),
                                         [](const FleetEvent& e) {
                                             return e.kind == FleetEventKind::Rejoin;
                                         });
        for (auto it = rejoin; it != fleet.events().end(); ++it) {
            if (it->kind != FleetEventKind::Failover && it->kind != FleetEventKind::Readmit) {
                continue;
            }
            ++eviction_hit;
            if (it->detail.find("evicted to free head-room") != std::string::npos) break;
        }
        ASSERT_NE(find_event(fleet, FleetEventKind::Failover, "evicted to free head-room"),
                  nullptr)
            << "the soak's rejoin must evict a neighbour";
    }
    std::filesystem::remove_all(dir_);

    std::vector<std::string> live;
    {
        FleetController fleet(options, kBoundedSwitches, kSixTenants);
        drive_soak(fleet, "fleet.swap:after=" + std::to_string(eviction_hit));
        const FleetEvent* refused = find_event(fleet, FleetEventKind::FailoverFailed, "");
        ASSERT_NE(refused, nullptr) << "the eviction install must be refused";
        const FleetEvent* restored =
            find_event(fleet, FleetEventKind::Failover, "restored after a refused eviction");
        ASSERT_NE(restored, nullptr);
        EXPECT_EQ(restored->tenant, refused->tenant);
        EXPECT_GT(restored->seq, refused->seq);
        for (const TenantSpec& spec : kSixTenants) {
            EXPECT_FALSE(fleet.parked(spec.name)) << spec.name;
        }
        expect_within_capacity(fleet, kBoundedSwitches);
        live = placements(fleet, kSixTenants);
    }
    const auto recovered = FleetController::recover(options, kBoundedSwitches, kSixTenants);
    EXPECT_EQ(placements(*recovered, kSixTenants), live);
}

std::pair<std::vector<std::string>, std::uint64_t> run_scenario(int threads,
                                                                const std::string& dir) {
    FleetOptions options;
    options.runtime.compile.backend = compiler::Backend::Ilp;
    options.runtime.compile.solve.threads = threads;
    options.runtime.exact_portfolio = false;
    options.runtime.drift.window = 256;
    options.runtime.drift.top_k = 16;
    options.journal_root = dir;
    FleetController fleet(options, {{"sw0", 0}, {"sw1", 0}}, {{"t0", "netcache"}});

    const workload::Trace trace = workload::zipf_drifting_trace(512, 200, 1.1, 5, 2);
    std::uint64_t fed = 0;
    for (const std::uint64_t key : trace.keys) {
        if (fed == 256) fleet.kill_switch(fleet.home_of("t0"));
        fleet.step("t0", key);
        if (++fed % 64 == 0) fleet.tick();
    }
    std::vector<std::string> events;
    events.reserve(fleet.events().size());
    for (const FleetEvent& event : fleet.events()) events.push_back(event.to_string());
    return {events, fleet.digest("t0")};
}

TEST_F(FleetTest, EventSequenceAndDigestAreThreadCountInvariant) {
    // The acceptance bar: a fixed seed yields one trajectory whether the
    // ILP solver runs on 1 worker or 8.
    const auto single = run_scenario(1, dir_ + "_1t");
    const auto eight = run_scenario(8, dir_ + "_8t");
    EXPECT_EQ(single.first, eight.first);
    EXPECT_EQ(single.second, eight.second);
    std::filesystem::remove_all(dir_ + "_1t");
    std::filesystem::remove_all(dir_ + "_8t");
}

}  // namespace
}  // namespace p4all::fleet
