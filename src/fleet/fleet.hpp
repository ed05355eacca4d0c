// The fault-tolerant fleet controller: N elastic runtimes, supervised.
//
// A FleetController owns a set of *switches* (capacity-bounded slots that
// can die and rejoin) and a set of *tenants* (one AppDriver + one
// ElasticRuntime each, every tenant journaling into its own directory under
// journal_root). The controller composes the resilience primitives grown in
// earlier layers into one supervision loop:
//
//   detect     tick() heartbeats every switch against a latency deadline
//              (health.hpp; the `fleet.heartbeat` fault point stands in for
//              the network — `delay=<ms>` past the deadline is a miss);
//              miss_threshold consecutive misses declare the switch dead;
//   evacuate   a dead switch's tenants fail over to the healthiest
//              survivor: each install replays the tenant's own write-ahead
//              journal (ElasticRuntime::recover) on the new home, so no
//              committed state is lost — the runtime objects died with the
//              switch, the journals did not;
//   retry      every install is priced through one BackoffPolicy
//              (support/backoff.hpp, capped exponential + seeded jitter,
//              virtual-time sleeps) and guarded by the target switch's
//              circuit breaker (breaker.hpp) so a broken target is probed,
//              not hammered;
//   degrade    when the survivors lack SRAM, tenants descend the
//              degradation ladder (ladder.hpp): assume profiles shrink down
//              the pow2 lattice — state migrating exactly at every rung —
//              and residents of the target switch shrink before any
//              incoming tenant is shed; shedding (Errc::CapacityExhausted)
//              is the last rung, and a shed tenant's journal stays intact;
//   recover    when a switch rejoins, degraded tenants climb back toward
//              their full profiles and parked tenants are readmitted.
//
// Every rung, up or down, is one ladder step: one reconfigure, the old
// level restored when the swap rolls back or a descent stalls at the floor.
// A lift that outgrows its head-room folds back; if that fails too, the
// tenant is re-placed from its journal like a failed install. Footprint
// (layout_bits of the serving layout) and liveness (the failure detector's
// verdict) are derived, never stored twice.
//
// A dead switch loses its register state, not the compiler's output: the
// controller keeps every tenant's audited epochs in one EpochCache
// (runtime/epoch_cache.hpp), so a failover or ladder swap back to a source
// it already compiled skips the compiler. The snapshot checks, migrations
// and journal records of every install run exactly as without the cache.
//
// Every placement decision is journaled to journal_root/fleet.log, a
// support::RecordLog with magic "P4ALLFLT": one checksummed, synced frame
// per FleetEvent (its JSON object); a file without that header is rejected
// with P4ALL-0506. FleetController::recover() rebuilds the whole fleet from
// it — placements, degradation levels, dead switches, parked tenants — after
// the controller itself crashes, then re-derives each tenant's state from
// the tenant's own journal. The chaos matrix in tests/fleet/chaos_test.cpp kills the
// controller at every `fleet.*` fault point and proves exactly that.
//
// Determinism: switches and tenants live in name-ordered maps, breakers and
// backoff run on virtual time, and no decision reads a wall clock except
// the heartbeat latency measurement (whose deadline margins dwarf scheduler
// noise) — so a fixed seed yields one event sequence at any solver thread
// count.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fleet/breaker.hpp"
#include "fleet/health.hpp"
#include "runtime/drivers.hpp"
#include "runtime/runtime.hpp"
#include "support/backoff.hpp"
#include "support/durable.hpp"

namespace p4all::fleet {

/// One switch slot: a name and an SRAM budget for placed register bits.
struct SwitchSpec {
    std::string name;
    /// Capacity in placed register bits (ladder.hpp layout_bits); 0 means
    /// unbounded (capacity never constrains placement).
    std::int64_t capacity_bits = 0;
};

/// One tenant: a named instance of one of the benchmark apps.
struct TenantSpec {
    std::string name;
    std::string app;  ///< driver name: netcache / sketchlearn / precision / conquest
};

struct FleetOptions {
    /// Base runtime options for every tenant; journal_dir is overridden per
    /// tenant with journal_root/<tenant>.
    runtime::RuntimeOptions runtime;
    /// Retry pricing for installs and route resends.
    support::BackoffPolicy backoff;
    BreakerOptions breaker;
    HealthOptions health;
    /// Required. Holds one journal directory per tenant plus fleet.log.
    std::string journal_root;
    /// Degradation ladder floor handed to shrink_profile.
    std::int64_t degrade_floor = 64;
    /// Deepest degradation level before a tenant is shed.
    int max_degrade_level = 4;
    /// Wall-clock budget for one tenant's install attempts on one switch.
    double failover_budget_seconds = 60.0;
};

enum class FleetEventKind : std::uint8_t {
    Admit,           ///< initial placement of a tenant
    SwitchDead,      ///< a switch was declared dead (heartbeat or operator)
    Rejoin,          ///< a dead switch returned to service
    Failover,        ///< a tenant moved to a new home
    FailoverFailed,  ///< install on one candidate failed after retries
    BreakerTrip,     ///< a candidate was skipped: breaker refused the install
    Degrade,         ///< a tenant committed a deeper (smaller) profile level
    Restore,         ///< a tenant climbed back toward its full profile
    Shed,            ///< degradation exhausted; tenant parked (journal kept)
    Readmit,         ///< a parked tenant was placed again
    RouteDrop,       ///< a packet was dropped after route retries
    Recovered,       ///< FleetController::recover() rebuilt this fleet
};

[[nodiscard]] const char* kind_name(FleetEventKind kind);

/// One journaled fleet decision. The sequence of events *is* the fleet's
/// placement state: FleetController::recover() replays them.
struct FleetEvent {
    std::uint64_t seq = 0;
    FleetEventKind kind = FleetEventKind::Admit;
    std::string tenant;  ///< empty for switch-scoped events
    std::string where;   ///< switch name; empty for Shed/RouteDrop
    int level = 0;       ///< tenant degradation level after the event
    std::string detail;

    [[nodiscard]] std::string to_string() const;
};

/// What FleetController::recover() found and did.
struct FleetRecoveryReport {
    std::uint64_t events_replayed = 0;
    bool log_clean = true;  ///< false: a torn tail was truncated
    std::vector<std::string> notes;
};

class FleetController {
public:
    /// Brings up the fleet: validates the topology (Errc::FleetConfig),
    /// admits every tenant onto the emptiest switch — degrading or, past
    /// the ladder, shedding when capacity is short — and opens fleet.log.
    FleetController(FleetOptions options, std::vector<SwitchSpec> switches,
                    std::vector<TenantSpec> tenants);
    ~FleetController();

    FleetController(const FleetController&) = delete;
    FleetController& operator=(const FleetController&) = delete;

    /// Rebuilds a fleet after a controller crash: replays
    /// journal_root/fleet.log (truncating a torn tail), restores every
    /// placed tenant on its journaled home via ElasticRuntime::recover,
    /// re-homes tenants whose journaled home is dead, and leaves shed
    /// tenants parked. Specs must name the same fleet that wrote the log.
    [[nodiscard]] static std::unique_ptr<FleetController> recover(
        FleetOptions options, std::vector<SwitchSpec> switches, std::vector<TenantSpec> tenants,
        FleetRecoveryReport* report = nullptr);

    /// Routes one packet to `tenant`'s runtime (driver step + drift note).
    /// A firing `fleet.route` fault point triggers backoff resends; packets
    /// that exhaust the resend budget — and every packet for a parked
    /// tenant — count as dropped. Throws Errc::FleetConfig on an unknown
    /// tenant name.
    void step(const std::string& tenant, std::uint64_t key);

    /// One supervision round: advances every breaker, heartbeats every
    /// live switch, and evacuates any switch that crossed the miss
    /// threshold.
    void tick();

    /// Operator / chaos-harness controls. kill_switch destroys the hosted
    /// runtime objects (tenant journals survive) and fails the tenants
    /// over; revive_switch rejoins the switch, readmits parked tenants,
    /// and restores degraded tenants toward full profiles.
    void kill_switch(const std::string& name);
    void revive_switch(const std::string& name);

    // ---- introspection -------------------------------------------------
    [[nodiscard]] const std::vector<FleetEvent>& events() const noexcept { return events_; }
    /// Home switch of a tenant; empty when the tenant is parked.
    [[nodiscard]] std::string home_of(const std::string& tenant) const;
    /// Current degradation level (0 = full profile).
    [[nodiscard]] int level_of(const std::string& tenant) const;
    [[nodiscard]] bool parked(const std::string& tenant) const;
    [[nodiscard]] Liveness switch_state(const std::string& name) const;
    [[nodiscard]] BreakerState breaker_state(const std::string& name) const;
    [[nodiscard]] std::vector<std::string> tenants_on(const std::string& name) const;
    /// Register-state checksum of a tenant's live pipeline (0 when parked)
    /// — the digest chaos tests compare across kill/recover cycles.
    [[nodiscard]] std::uint64_t digest(const std::string& tenant) const;
    /// Placed register bits charged by a tenant (0 when parked).
    [[nodiscard]] std::int64_t tenant_bits(const std::string& tenant) const;
    /// Direct runtime access for tests; null when parked.
    [[nodiscard]] runtime::ElasticRuntime* runtime_of(const std::string& tenant);
    [[nodiscard]] std::uint64_t packets_routed() const noexcept { return packets_routed_; }
    [[nodiscard]] std::uint64_t packets_dropped() const noexcept { return packets_dropped_; }
    [[nodiscard]] std::uint64_t route_retries() const noexcept { return route_retries_; }
    /// Virtual milliseconds spent in backoff waits (never actually slept).
    [[nodiscard]] double backoff_delay_ms() const noexcept { return backoff_delay_ms_; }
    /// Tenant compiles served from the controller's epoch cache, and the
    /// ones that ran the compiler (both since this controller started).
    [[nodiscard]] std::uint64_t epochs_reused() const noexcept { return epochs_->hits(); }
    [[nodiscard]] std::uint64_t epochs_compiled() const noexcept { return epochs_->misses(); }
    /// Epochs the cache holds now; never more than tenants x
    /// (max_degrade_level + 1).
    [[nodiscard]] std::size_t epochs_cached() const noexcept { return epochs_->size(); }
    [[nodiscard]] const FleetOptions& options() const noexcept { return options_; }
    /// Renders the fleet table (homes, levels, bits, liveness, breakers).
    [[nodiscard]] std::string to_string() const;

private:
    struct Tenant {
        TenantSpec spec;
        runtime::AppDriver driver;
        /// Shared with the wrapped ProfileFn: the level every future
        /// recompile of this tenant shrinks to.
        std::shared_ptr<int> level = std::make_shared<int>(0);
        std::unique_ptr<runtime::ElasticRuntime> rt;
        std::string home;  ///< empty => parked
        std::map<int, std::int64_t> bits_at_level;  ///< last footprint seen per level
        std::uint64_t stream = 0;  ///< backoff jitter stream (stable index)
    };
    struct Switch {
        SwitchSpec spec;
        CircuitBreaker breaker;
    };
    /// What one ladder_step did.
    struct LadderMove {
        runtime::SwapEvent swap;  ///< the step's one reconfigure
        std::int64_t before = 0;  ///< footprint at the level left
        std::int64_t after = 0;   ///< footprint served after a committed swap
        bool moved = false;       ///< the tenant is now at the new level
    };
    struct RecoverTag {};

    FleetController(RecoverTag, FleetOptions options, std::vector<SwitchSpec> switches,
                    std::vector<TenantSpec> tenants);
    void validate_and_seed(std::vector<SwitchSpec>& switches, std::vector<TenantSpec>& tenants);

    [[nodiscard]] runtime::RuntimeOptions tenant_options(const Tenant& tenant) const;
    [[nodiscard]] runtime::ProfileFn wrapped_profile(const Tenant& tenant) const;
    /// Placed register bits the tenant's runtime serves; 0 when parked.
    [[nodiscard]] static std::int64_t footprint(const Tenant& tenant);
    /// A switch is alive until the failure detector declares it Dead.
    [[nodiscard]] bool alive(const std::string& name) const;
    [[nodiscard]] std::int64_t free_bits(const Switch& sw) const;
    [[nodiscard]] std::vector<std::string> candidates() const;

    /// The one ladder move: takes `rt` (the tenant's runtime, adopted or
    /// not) to level `to` with one reconfigure, recording the footprint of
    /// the level left and, when it moved, of the level reached. A rolled-back
    /// swap or a descent that did not shrink restores the old level.
    LadderMove ladder_step(Tenant& tenant, runtime::ElasticRuntime& rt, int to,
                           const std::string& reason);
    /// Drops the tenant's runtime (its journal stays), recording the
    /// footprint it served; the tenant is parked until placed again.
    void unplace(Tenant& tenant);
    /// One guarded install attempt of `tenant` onto `sw` at its current
    /// level, descending the ladder in place until it fits. On success the
    /// tenant is adopted (home set). Returns false with the failure
    /// already journaled otherwise.
    bool try_place_on(Tenant& tenant, Switch& sw, FleetEventKind kind, const std::string& why);
    /// Full placement: every candidate, then resident squeezing, then shed.
    bool place_tenant(Tenant& tenant, FleetEventKind kind, const std::string& why);
    /// Degrades residents of `sw` (largest first) until `need` bits fit.
    bool make_room(Switch& sw, std::int64_t need, const std::string& incoming);
    void on_switch_dead(const std::string& name, const std::string& why);
    /// One timed heartbeat exchange with `name` (fault point + deadline +
    /// hosted-runtime serving checks).
    [[nodiscard]] bool heartbeat_missed(const std::string& name) const;
    /// Post-rejoin ascent: readmit parked tenants, lift degraded ones.
    void restore_capacity();

    void log_event(FleetEventKind kind, const std::string& tenant, const std::string& where,
                   int level, const std::string& detail);
    [[nodiscard]] std::string log_path() const;

    [[nodiscard]] Tenant& tenant_ref(const std::string& name);
    [[nodiscard]] const Tenant& tenant_ref(const std::string& name) const;
    /// Throws Errc::FleetConfig on an unknown switch name.
    [[nodiscard]] const Switch& switch_ref(const std::string& name) const;

    FleetOptions options_;
    std::map<std::string, Switch> switches_;
    std::map<std::string, Tenant> tenants_;
    FailureDetector detector_;
    std::unique_ptr<support::RecordLog> log_;  ///< journal_root/fleet.log, held open
    /// Audited epochs of every tenant, handed to each runtime the controller
    /// builds; sized tenants x (max_degrade_level + 1). A recovered
    /// controller starts empty.
    std::shared_ptr<runtime::EpochCache> epochs_;
    std::vector<FleetEvent> events_;
    std::uint64_t seq_ = 0;
    std::uint64_t packets_routed_ = 0;
    std::uint64_t packets_dropped_ = 0;
    std::uint64_t route_retries_ = 0;
    double backoff_delay_ms_ = 0.0;
};

}  // namespace p4all::fleet
