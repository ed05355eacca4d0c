#include "fleet/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "fleet/ladder.hpp"
#include "runtime/snapshot.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "support/json.hpp"

namespace p4all::fleet {

namespace {

namespace fs = std::filesystem;
using support::Errc;
using support::Error;

/// Free-bits sentinel for capacity_bits == 0: large enough to never
/// constrain, small enough that subtraction cannot overflow.
constexpr std::int64_t kUnbounded = std::numeric_limits<std::int64_t>::max() / 4;

double elapsed_ms(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
        .count();
}

FleetEventKind kind_from_name(const std::string& name) {
    for (int k = 0; k <= static_cast<int>(FleetEventKind::Recovered); ++k) {
        const auto kind = static_cast<FleetEventKind>(k);
        if (name == kind_name(kind)) return kind;
    }
    throw Error(Errc::FleetJournalError, "unknown fleet event kind '" + name + "'");
}

/// One fleet.log record: the event as a JSON object.
std::string encode_event(const FleetEvent& event) {
    support::Json obj = support::Json::object();
    obj.set("seq", static_cast<std::int64_t>(event.seq));
    obj.set("kind", kind_name(event.kind));
    obj.set("tenant", event.tenant);
    obj.set("where", event.where);
    obj.set("level", event.level);
    obj.set("detail", event.detail);
    return obj.dump();
}

FleetEvent decode_event(std::string_view payload) {
    const support::Json obj = support::Json::parse(payload);
    FleetEvent event;
    event.seq = static_cast<std::uint64_t>(obj.get_int("seq", 0));
    event.kind = kind_from_name(obj.get_string("kind", ""));
    event.tenant = obj.get_string("tenant", "");
    event.where = obj.get_string("where", "");
    event.level = static_cast<int>(obj.get_int("level", 0));
    event.detail = obj.get_string("detail", "");
    return event;
}

bool decodable_event(std::string_view payload) {
    try {
        (void)decode_event(payload);
        return true;
    } catch (const std::exception&) {
        return false;
    }
}

constexpr support::LogFormat kFleetLog{"P4ALLFLT", 1, Errc::FleetJournalError,
                                       &decodable_event};

}  // namespace

const char* kind_name(FleetEventKind kind) {
    switch (kind) {
        case FleetEventKind::Admit: return "admit";
        case FleetEventKind::SwitchDead: return "switch-dead";
        case FleetEventKind::Rejoin: return "rejoin";
        case FleetEventKind::Failover: return "failover";
        case FleetEventKind::FailoverFailed: return "failover-failed";
        case FleetEventKind::BreakerTrip: return "breaker-trip";
        case FleetEventKind::Degrade: return "degrade";
        case FleetEventKind::Restore: return "restore";
        case FleetEventKind::Shed: return "shed";
        case FleetEventKind::Readmit: return "readmit";
        case FleetEventKind::RouteDrop: return "route-drop";
        case FleetEventKind::Recovered: return "recovered";
    }
    return "?";
}

std::string FleetEvent::to_string() const {
    std::string out = "#" + std::to_string(seq) + " " + kind_name(kind);
    if (!tenant.empty()) out += " " + tenant;
    if (!where.empty()) out += "@" + where;
    out += " L" + std::to_string(level);
    if (!detail.empty()) out += ": " + detail;
    return out;
}

// ---------------------------------------------------------------------------
// construction

FleetController::FleetController(FleetOptions options, std::vector<SwitchSpec> switches,
                                 std::vector<TenantSpec> tenants)
    : options_(std::move(options)), detector_(options_.health) {
    validate_and_seed(switches, tenants);
    // A fresh controller starts a fresh decision log; the tenants' own
    // journals are what carry state across fleet generations.
    std::error_code ec;
    fs::remove(log_path(), ec);
    log_ = std::make_unique<support::RecordLog>(log_path(), kFleetLog);
    for (auto& [name, tenant] : tenants_) {
        place_tenant(tenant, FleetEventKind::Admit, "initial placement");
    }
}

FleetController::FleetController(RecoverTag, FleetOptions options,
                                 std::vector<SwitchSpec> switches,
                                 std::vector<TenantSpec> tenants)
    : options_(std::move(options)), detector_(options_.health) {
    validate_and_seed(switches, tenants);
}

FleetController::~FleetController() = default;

void FleetController::validate_and_seed(std::vector<SwitchSpec>& switches,
                                        std::vector<TenantSpec>& tenants) {
    if (options_.journal_root.empty()) {
        throw Error(Errc::FleetConfig, "FleetOptions::journal_root must be set");
    }
    if (switches.empty()) {
        throw Error(Errc::FleetConfig, "a fleet needs at least one switch");
    }
    if (options_.max_degrade_level < 0) options_.max_degrade_level = 0;
    for (auto& spec : switches) {
        if (spec.name.empty()) throw Error(Errc::FleetConfig, "switch name must be non-empty");
        if (spec.capacity_bits < 0) {
            throw Error(Errc::FleetConfig,
                        "switch '" + spec.name + "' has negative capacity_bits");
        }
        if (!switches_.emplace(spec.name, Switch{spec, CircuitBreaker(options_.breaker)}).second) {
            throw Error(Errc::FleetConfig, "duplicate switch name '" + spec.name + "'");
        }
    }
    for (auto& spec : tenants) {
        if (spec.name.empty()) throw Error(Errc::FleetConfig, "tenant name must be non-empty");
        if (tenants_.count(spec.name) != 0) {
            throw Error(Errc::FleetConfig, "duplicate tenant name '" + spec.name + "'");
        }
        Tenant tenant;
        tenant.spec = spec;
        try {
            tenant.driver = runtime::make_driver(spec.app);
        } catch (const std::exception& e) {
            throw Error(Errc::FleetConfig,
                        "tenant '" + spec.name + "': unknown app '" + spec.app + "'");
        }
        tenants_.emplace(spec.name, std::move(tenant));
    }
    epochs_ = std::make_shared<runtime::EpochCache>(
        tenants_.size() * static_cast<std::size_t>(options_.max_degrade_level + 1));
    fs::create_directories(options_.journal_root);
    // Stable per-tenant jitter streams: the tenant's rank in name order, so
    // the delay sequences are a function of the fleet spec alone.
    std::uint64_t rank = 0;
    for (auto& [name, tenant] : tenants_) {
        tenant.stream = rank++;
        fs::create_directories(options_.journal_root + "/" + name);
    }
}

// ---------------------------------------------------------------------------
// small helpers

runtime::RuntimeOptions FleetController::tenant_options(const Tenant& tenant) const {
    // Every tenant compiles under the one options_.runtime, so (name,
    // source) is a complete key for the shared epoch cache.
    runtime::RuntimeOptions opts = options_.runtime;
    opts.epochs = epochs_;
    opts.journal_dir = options_.journal_root + "/" + tenant.spec.name;
    // One shared snapshot_path would make tenants clobber each other; the
    // per-epoch journal snapshots already persist everything.
    opts.snapshot_path.clear();
    return opts;
}

runtime::ProfileFn FleetController::wrapped_profile(const Tenant& tenant) const {
    const runtime::ProfileFn base = tenant.driver.profile;
    const std::shared_ptr<int> level = tenant.level;
    const std::int64_t floor_value = options_.degrade_floor;
    return [base, level, floor_value](const workload::Trace& window) {
        const std::string profile = base ? base(window) : std::string{};
        return shrink_profile(profile, *level, floor_value);
    };
}

std::int64_t FleetController::footprint(const Tenant& tenant) {
    return tenant.rt ? layout_bits(tenant.rt->compiled()) : 0;
}

bool FleetController::alive(const std::string& name) const {
    return detector_.state(name) != Liveness::Dead;
}

std::int64_t FleetController::free_bits(const Switch& sw) const {
    const std::int64_t capacity =
        sw.spec.capacity_bits == 0 ? kUnbounded : sw.spec.capacity_bits;
    std::int64_t used = 0;
    for (const auto& [name, tenant] : tenants_) {
        if (tenant.home == sw.spec.name) used += footprint(tenant);
    }
    return capacity - used;
}

std::vector<std::string> FleetController::candidates() const {
    std::vector<std::pair<std::int64_t, std::string>> ranked;
    for (const auto& [name, sw] : switches_) {
        if (alive(name)) ranked.emplace_back(free_bits(sw), name);
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
    });
    std::vector<std::string> names;
    names.reserve(ranked.size());
    for (auto& [free, name] : ranked) names.push_back(std::move(name));
    return names;
}

FleetController::Tenant& FleetController::tenant_ref(const std::string& name) {
    const auto it = tenants_.find(name);
    if (it == tenants_.end()) throw Error(Errc::FleetConfig, "unknown tenant '" + name + "'");
    return it->second;
}

const FleetController::Tenant& FleetController::tenant_ref(const std::string& name) const {
    const auto it = tenants_.find(name);
    if (it == tenants_.end()) throw Error(Errc::FleetConfig, "unknown tenant '" + name + "'");
    return it->second;
}

const FleetController::Switch& FleetController::switch_ref(const std::string& name) const {
    const auto it = switches_.find(name);
    if (it == switches_.end()) throw Error(Errc::FleetConfig, "unknown switch '" + name + "'");
    return it->second;
}

std::string FleetController::log_path() const { return options_.journal_root + "/fleet.log"; }

void FleetController::log_event(FleetEventKind kind, const std::string& tenant,
                                const std::string& where, int level,
                                const std::string& detail) {
    FleetEvent event;
    event.seq = ++seq_;
    event.kind = kind;
    event.tenant = tenant;
    event.where = where;
    event.level = level;
    event.detail = detail;

    log_->append(encode_event(event));
    events_.push_back(std::move(event));
}

// ---------------------------------------------------------------------------
// placement

FleetController::LadderMove FleetController::ladder_step(Tenant& tenant,
                                                         runtime::ElasticRuntime& rt, int to,
                                                         const std::string& reason) {
    LadderMove move;
    const int from = *tenant.level;
    // Drift may have resized the layout since this level was last priced.
    move.before = layout_bits(rt.compiled());
    tenant.bits_at_level[from] = move.before;
    *tenant.level = to;
    move.swap = rt.reconfigure(reason);
    move.after = move.swap.committed ? layout_bits(rt.compiled()) : move.before;
    // A descent that did not shrink has stalled at the floor: the committed
    // epoch has the same layout, so restoring the level keeps the in-memory
    // level equal to what the event log replays.
    move.moved = move.swap.committed && (to < from || move.after < move.before);
    if (move.moved) {
        tenant.bits_at_level[to] = move.after;
    } else {
        *tenant.level = from;
    }
    return move;
}

void FleetController::unplace(Tenant& tenant) {
    if (tenant.rt) tenant.bits_at_level[*tenant.level] = footprint(tenant);
    tenant.rt.reset();
    tenant.home.clear();
}

bool FleetController::try_place_on(Tenant& tenant, Switch& sw, FleetEventKind kind,
                                   const std::string& why) {
    if (!sw.breaker.allow()) {
        log_event(FleetEventKind::BreakerTrip, tenant.spec.name, sw.spec.name, *tenant.level,
                  Error(Errc::BreakerOpen, "install refused: breaker " +
                                               fleet::to_string(sw.breaker.state()) + " on '" +
                                               sw.spec.name + "'")
                      .what());
        return false;
    }

    std::unique_ptr<runtime::ElasticRuntime> rt;
    const support::Deadline budget =
        support::Deadline::after_seconds(options_.failover_budget_seconds);
    const support::SleepFn record_sleep = [this](double ms) { backoff_delay_ms_ += ms; };

    const support::RetryResult result = support::retry_with_backoff(
        options_.backoff, budget,
        [&](int /*attempt*/) {
            // Replays the tenant's own journal: epoch, assume profile, and
            // register state all come back exactly as last committed.
            rt = runtime::ElasticRuntime::recover(tenant.spec.name, tenant.driver.source,
                                                  tenant_options(tenant),
                                                  wrapped_profile(tenant));
            std::int64_t bits = layout_bits(rt->compiled());
            tenant.bits_at_level[*tenant.level] = bits;
            while (bits > free_bits(sw) && *tenant.level < options_.max_degrade_level) {
                const int deeper = *tenant.level + 1;
                const LadderMove move = ladder_step(tenant, *rt, deeper,
                                                    "fleet: degrade to L" + std::to_string(deeper));
                if (!move.swap.committed) {
                    throw Error(Errc::FailoverFailed, "degrade rolled back: " + move.swap.detail);
                }
                if (!move.moved) break;  // stalled at the floor
                log_event(FleetEventKind::Degrade, tenant.spec.name, sw.spec.name,
                          *tenant.level,
                          "profile shrunk " + std::to_string(move.before) + " -> " +
                              std::to_string(move.after) + " bits");
                bits = move.after;
            }
            if (bits > free_bits(sw)) {
                rt.reset();  // healthy switch, just too small even degraded
                return true;
            }
            if (support::fault_fires("fleet.swap")) {
                rt.reset();
                throw Error(Errc::SwitchUnavailable,
                            "install aborted: fleet.swap fired at commit on '" +
                                sw.spec.name + "'");
            }
            return true;
        },
        record_sleep, tenant.stream);

    if (!result.succeeded) {
        sw.breaker.record_failure();
        log_event(FleetEventKind::FailoverFailed, tenant.spec.name, sw.spec.name,
                  *tenant.level,
                  Error(Errc::FailoverFailed,
                        "install failed after " + std::to_string(result.attempts) +
                            " attempts: " + result.last_error)
                      .what());
        return false;
    }
    sw.breaker.record_success();
    if (!rt) return false;
    tenant.rt = std::move(rt);
    tenant.home = sw.spec.name;
    log_event(kind, tenant.spec.name, sw.spec.name, *tenant.level, why);
    return true;
}

bool FleetController::make_room(Switch& sw, std::int64_t need, const std::string& incoming) {
    std::set<std::string> stalled;  // residents proven at the ladder floor
    bool progressed = true;
    while (free_bits(sw) < need && progressed) {
        progressed = false;
        // Largest resident that can still descend, ties broken by name.
        std::vector<std::pair<std::int64_t, Tenant*>> residents;
        for (auto& [name, tenant] : tenants_) {
            if (tenant.home == sw.spec.name && *tenant.level < options_.max_degrade_level &&
                stalled.count(name) == 0) {
                residents.emplace_back(footprint(tenant), &tenant);
            }
        }
        std::sort(residents.begin(), residents.end(), [](const auto& a, const auto& b) {
            if (a.first != b.first) return a.first > b.first;
            return a.second->spec.name < b.second->spec.name;
        });
        for (const auto& [bits, resident] : residents) {
            const LadderMove move = ladder_step(*resident, *resident->rt, *resident->level + 1,
                                                "fleet: degrade to make room for " + incoming);
            if (!move.swap.committed) continue;
            if (!move.moved) {
                stalled.insert(resident->spec.name);
                continue;
            }
            log_event(FleetEventKind::Degrade, resident->spec.name, sw.spec.name,
                      *resident->level,
                      "made room for " + incoming + ": " + std::to_string(move.before) +
                          " -> " + std::to_string(move.after) + " bits");
            progressed = true;
            break;  // re-evaluate free space before squeezing further
        }
    }
    return free_bits(sw) >= need;
}

bool FleetController::place_tenant(Tenant& tenant, FleetEventKind kind,
                                   const std::string& why) {
    for (const std::string& name : candidates()) {
        if (try_place_on(tenant, switches_.at(name), kind, why)) return true;
    }
    // Nothing fit even with the incoming tenant fully degraded: squeeze
    // residents, emptiest survivor first, until one of them can host it —
    // shedding while ANY switch could still make room would lose a tenant
    // the fleet has capacity for.
    const std::vector<std::string> ranked = candidates();
    if (!tenant.bits_at_level.empty()) {
        const std::int64_t need = tenant.bits_at_level.rbegin()->second;  // deepest footprint
        for (const std::string& name : ranked) {
            Switch& sw = switches_.at(name);
            if (make_room(sw, need, tenant.spec.name) && try_place_on(tenant, sw, kind, why)) {
                return true;
            }
        }
    }
    unplace(tenant);
    const char* cause = ranked.empty() ? "no live switch available"
                                       : "degradation ladder exhausted on every live switch";
    log_event(FleetEventKind::Shed, tenant.spec.name, "", *tenant.level,
              Error(Errc::CapacityExhausted,
                    std::string(cause) + "; tenant parked (journal retained)")
                  .what());
    return false;
}

// ---------------------------------------------------------------------------
// supervision

bool FleetController::heartbeat_missed(const std::string& name) const {
    const auto start = std::chrono::steady_clock::now();
    // The fault point stands in for the heartbeat exchange: a default fire
    // is a dropped probe, `delay=<ms>` is a slow answer (measured against
    // the deadline below), `crash` is the chaos harness's kill site.
    const bool dropped = support::fault_fires("fleet.heartbeat");
    const double latency = elapsed_ms(start);
    if (dropped) return true;
    if (latency > options_.health.heartbeat_deadline_ms) return true;
    for (const auto& [tn, tenant] : tenants_) {
        if (tenant.home == name && tenant.rt && !tenant.rt->heartbeat().serving) return true;
    }
    return false;
}

void FleetController::tick() {
    for (auto& [name, sw] : switches_) sw.breaker.tick();
    // Every live switch is probed before any evacuation moves tenants; each
    // verdict is then noted in name order, so a switch crossing the
    // threshold this round stays a failover target until its own turn.
    std::vector<std::pair<std::string, bool>> probes;
    for (const auto& [name, sw] : switches_) {
        if (alive(name)) probes.emplace_back(name, heartbeat_missed(name));
    }
    for (const auto& [name, missed] : probes) {
        if (detector_.note(name, missed) == Liveness::Dead) {
            on_switch_dead(name, "heartbeat: " + std::to_string(options_.health.miss_threshold) +
                                     " consecutive misses");
        }
    }
}

void FleetController::on_switch_dead(const std::string& name, const std::string& why) {
    detector_.declare_dead(name);
    log_event(FleetEventKind::SwitchDead, "", name, 0,
              Error(Errc::SwitchUnavailable, why).what());
    // The runtime objects die with the switch; the journals do not. Clear
    // every evacuee first so failover capacity accounting is correct, then
    // re-place in name order.
    std::vector<std::string> evacuees;
    for (auto& [tn, tenant] : tenants_) {
        if (tenant.home == name) {
            unplace(tenant);
            evacuees.push_back(tn);
        }
    }
    for (const std::string& tn : evacuees) {
        place_tenant(tenants_.at(tn), FleetEventKind::Failover, "evacuated from " + name);
    }
}

void FleetController::kill_switch(const std::string& name) {
    (void)switch_ref(name);
    if (alive(name)) on_switch_dead(name, "operator kill");
}

void FleetController::revive_switch(const std::string& name) {
    (void)switch_ref(name);
    if (alive(name)) return;
    switches_.at(name).breaker = CircuitBreaker(options_.breaker);
    detector_.reset(name);
    log_event(FleetEventKind::Rejoin, "", name, 0, "switch rejoined");
    restore_capacity();
}

void FleetController::restore_capacity() {
    // Serving a parked tenant beats restoring head-room: readmits first.
    for (auto& [name, tenant] : tenants_) {
        if (!tenant.rt) {
            place_tenant(tenant, FleetEventKind::Readmit, "capacity returned");
        }
    }
    // Then lift degraded tenants one rung at a time while the head-room
    // holds, round-robin so no tenant monopolizes the returned capacity.
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (auto& [name, tenant] : tenants_) {
            if (!tenant.rt || *tenant.level <= 0) continue;
            const std::string home = tenant.home;
            const std::int64_t headroom = free_bits(switches_.at(home)) + footprint(tenant);
            const int level = *tenant.level;
            const auto cached = tenant.bits_at_level.find(level - 1);
            if (cached != tenant.bits_at_level.end() && cached->second > headroom) continue;
            const LadderMove lift = ladder_step(tenant, *tenant.rt, level - 1,
                                                "fleet: restore to L" + std::to_string(level - 1));
            if (!lift.swap.committed) continue;
            if (lift.after <= headroom) {
                log_event(FleetEventKind::Restore, name, home, *tenant.level,
                          "profile restored to " + std::to_string(lift.after) + " bits");
                progressed = true;
                continue;
            }
            // The window drifted since the cached footprint: fold back. If
            // that does not take, the tenant serves a lift its home has no
            // head-room for, so it is re-placed from its journal like a
            // failed install.
            if (!ladder_step(tenant, *tenant.rt, level, "fleet: re-degrade (no head-room)").moved) {
                unplace(tenant);
                place_tenant(tenant, FleetEventKind::Failover,
                             "re-placed after a failed fold-back on " + home);
            }
        }
        if (progressed) continue;
        // No tenant could lift in place. If a roomier switch could host a
        // degraded tenant's next rung, move the tenant there (its journal
        // carries the state); the next round lifts it in its new home. One
        // move per round keeps the accounting simple and terminating.
        for (auto& [name, tenant] : tenants_) {
            if (!tenant.rt || *tenant.level <= 0) continue;
            const auto cached = tenant.bits_at_level.find(*tenant.level - 1);
            if (cached == tenant.bits_at_level.end()) continue;
            const std::int64_t need = cached->second;
            if (need <= free_bits(switches_.at(tenant.home)) + footprint(tenant)) continue;
            bool roomier = false;
            for (const std::string& cand : candidates()) {
                if (cand != tenant.home && free_bits(switches_.at(cand)) >= need) {
                    roomier = true;
                    break;
                }
            }
            if (!roomier) continue;
            unplace(tenant);
            if (place_tenant(tenant, FleetEventKind::Failover,
                             "rebalanced to restore head-room")) {
                progressed = true;
            }
            break;
        }
        if (progressed) continue;
        // Still stuck: no degraded tenant can lift in place or by moving
        // itself (its next rung fits no switch whole). Evict a co-resident
        // instead — moving a neighbor at its *current* profile to a switch
        // with spare room hands the stuck tenant the head-room its next
        // rung needs. One eviction per round; the lift lands next round.
        for (auto& [name, tenant] : tenants_) {
            if (progressed) break;
            if (!tenant.rt || *tenant.level <= 0) continue;
            const auto cached = tenant.bits_at_level.find(*tenant.level - 1);
            if (cached == tenant.bits_at_level.end()) continue;
            const std::int64_t need = cached->second;
            Switch& home = switches_.at(tenant.home);
            for (auto& [co_name, co] : tenants_) {
                if (co_name == name || !co.rt || co.home != tenant.home) continue;
                const std::int64_t co_bits = footprint(co);
                if (free_bits(home) + co_bits + footprint(tenant) < need) continue;  // won't help
                for (const std::string& cand : candidates()) {
                    if (cand == tenant.home || free_bits(switches_.at(cand)) < co_bits) continue;
                    const std::string old_home = co.home;
                    unplace(co);
                    if (try_place_on(co, switches_.at(cand), FleetEventKind::Failover,
                                     "evicted to free head-room for " + name)) {
                        progressed = true;
                    } else {
                        // Breaker/fault refused the move: put the neighbor
                        // back (or anywhere) rather than losing it.
                        place_tenant(co, FleetEventKind::Failover,
                                     "restored after a refused eviction from " + old_home);
                    }
                    break;
                }
                if (progressed) break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// data path

void FleetController::step(const std::string& tenant_name, std::uint64_t key) {
    Tenant& tenant = tenant_ref(tenant_name);
    if (!tenant.rt) {
        ++packets_dropped_;  // parked: no capacity anywhere, packet is lost
        return;
    }
    if (support::fault_fires("fleet.route")) {
        // Transient route failure: resend with backoff (virtual time).
        support::Backoff backoff(options_.backoff, tenant.stream + 1000);
        bool delivered = false;
        while (true) {
            backoff_delay_ms_ += backoff.next_delay_ms();
            ++route_retries_;
            if (!support::fault_fires("fleet.route")) {
                delivered = true;
                break;
            }
            if (backoff.exhausted()) break;
        }
        if (!delivered) {
            ++packets_dropped_;
            log_event(FleetEventKind::RouteDrop, tenant_name, tenant.home, *tenant.level,
                      "packet dropped after " + std::to_string(backoff.delays() + 1) +
                          " route attempts");
            return;
        }
    }
    tenant.driver.step(*tenant.rt, key);
    ++packets_routed_;
}

// ---------------------------------------------------------------------------
// recovery

std::unique_ptr<FleetController> FleetController::recover(FleetOptions options,
                                                          std::vector<SwitchSpec> switches,
                                                          std::vector<TenantSpec> tenants,
                                                          FleetRecoveryReport* report) {
    std::unique_ptr<FleetController> fleet(new FleetController(
        RecoverTag{}, std::move(options), std::move(switches), std::move(tenants)));
    FleetRecoveryReport rep;

    // Replay the decision log. Opening it truncates a torn tail (a crash
    // mid-append), so the events appended from here on stay readable.
    support::LogScan scan;
    fleet->log_ = std::make_unique<support::RecordLog>(fleet->log_path(), kFleetLog, &scan);
    std::vector<FleetEvent> replayed;
    for (const std::string& payload : scan.records) replayed.push_back(decode_event(payload));
    rep.log_clean = scan.clean;
    if (!scan.clean) rep.notes.push_back("torn fleet log tail truncated: " + scan.damage);

    struct Placement {
        std::string home;
        int level = 0;
        bool parked = false;
    };
    std::map<std::string, Placement> placements;
    std::set<std::string> dead;
    for (const FleetEvent& event : replayed) {
        switch (event.kind) {
            case FleetEventKind::Admit:
            case FleetEventKind::Failover:
            case FleetEventKind::Readmit:
                placements[event.tenant] = Placement{event.where, event.level, false};
                break;
            case FleetEventKind::Degrade:
            case FleetEventKind::Restore:
                placements[event.tenant].level = event.level;
                break;
            case FleetEventKind::Shed:
                placements[event.tenant] = Placement{"", event.level, true};
                break;
            case FleetEventKind::SwitchDead: dead.insert(event.where); break;
            case FleetEventKind::Rejoin: dead.erase(event.where); break;
            default: break;
        }
        fleet->seq_ = std::max(fleet->seq_, event.seq);
    }
    rep.events_replayed = replayed.size();
    fleet->events_ = std::move(replayed);

    for (const std::string& name : dead) {
        if (fleet->switches_.count(name) == 0) continue;
        fleet->detector_.declare_dead(name);
        rep.notes.push_back("switch '" + name + "' remains dead");
    }

    for (auto& [name, tenant] : fleet->tenants_) {
        const auto it = placements.find(name);
        if (it != placements.end()) *tenant.level = it->second.level;
        if (it != placements.end() && it->second.parked) {
            rep.notes.push_back("tenant '" + name + "' remains parked");
            continue;
        }
        std::string home = it != placements.end() ? it->second.home : "";
        if (fleet->switches_.count(home) == 0 || !fleet->alive(home)) home.clear();
        if (!home.empty()) {
            try {
                tenant.rt = runtime::ElasticRuntime::recover(
                    tenant.spec.name, tenant.driver.source, fleet->tenant_options(tenant),
                    fleet->wrapped_profile(tenant));
                tenant.home = home;
                tenant.bits_at_level[*tenant.level] = footprint(tenant);
                rep.notes.push_back("tenant '" + name + "' restored on '" + home + "'");
                continue;
            } catch (const support::CompileError& e) {
                rep.notes.push_back("tenant '" + name + "' failed to restore on '" + home +
                                    "': " + e.what());
            }
        }
        const bool placed = fleet->place_tenant(
            tenant, it == placements.end() ? FleetEventKind::Admit : FleetEventKind::Failover,
            it == placements.end() ? "recovered: tenant new to this fleet"
                                   : "recovered: journaled home unavailable");
        rep.notes.push_back("tenant '" + name + "' " +
                            (placed ? "re-homed" : "parked (no capacity)"));
    }

    fleet->log_event(FleetEventKind::Recovered, "", "", 0,
                     "fleet recovered: " + std::to_string(rep.events_replayed) +
                         " events replayed" +
                         (rep.log_clean ? "" : ", torn tail truncated"));
    if (report != nullptr) *report = rep;
    return fleet;
}

// ---------------------------------------------------------------------------
// introspection

std::string FleetController::home_of(const std::string& tenant) const {
    return tenant_ref(tenant).home;
}

int FleetController::level_of(const std::string& tenant) const {
    return *tenant_ref(tenant).level;
}

bool FleetController::parked(const std::string& tenant) const {
    return tenant_ref(tenant).rt == nullptr;
}

Liveness FleetController::switch_state(const std::string& name) const {
    (void)switch_ref(name);
    return detector_.state(name);
}

BreakerState FleetController::breaker_state(const std::string& name) const {
    return switch_ref(name).breaker.state();
}

std::vector<std::string> FleetController::tenants_on(const std::string& name) const {
    std::vector<std::string> hosted;
    for (const auto& [tn, tenant] : tenants_) {
        if (tenant.home == name) hosted.push_back(tn);
    }
    return hosted;
}

std::uint64_t FleetController::digest(const std::string& tenant_name) const {
    const Tenant& tenant = tenant_ref(tenant_name);
    if (!tenant.rt) return 0;
    return runtime::take_snapshot(tenant.rt->pipeline(), tenant.rt->epoch()).checksum();
}

std::int64_t FleetController::tenant_bits(const std::string& tenant) const {
    return footprint(tenant_ref(tenant));
}

runtime::ElasticRuntime* FleetController::runtime_of(const std::string& tenant) {
    return tenant_ref(tenant).rt.get();
}

std::string FleetController::to_string() const {
    std::ostringstream out;
    out << "fleet (" << switches_.size() << " switches, " << tenants_.size() << " tenants)\n";
    for (const auto& [name, sw] : switches_) {
        out << "  switch " << name << ": " << fleet::to_string(detector_.state(name))
            << ", breaker " << fleet::to_string(sw.breaker.state());
        if (sw.spec.capacity_bits > 0) {
            out << ", " << (sw.spec.capacity_bits - free_bits(sw)) << "/"
                << sw.spec.capacity_bits << " bits";
        }
        out << "\n";
        for (const auto& tn : tenants_on(name)) {
            const Tenant& tenant = tenant_ref(tn);
            out << "    tenant " << tn << " (" << tenant.spec.app << "): L" << *tenant.level
                << ", " << footprint(tenant) << " bits, epoch " << tenant.rt->epoch() << "\n";
        }
    }
    for (const auto& [tn, tenant] : tenants_) {
        if (!tenant.rt) out << "  parked tenant " << tn << " (L" << *tenant.level << ")\n";
    }
    return out.str();
}

}  // namespace p4all::fleet
