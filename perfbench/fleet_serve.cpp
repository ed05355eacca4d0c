// fleet-serve: the p4all-fleet defaults (greedy backend, no exact portfolio,
// drift window 256, top-k 16, a supervision tick every 512 packets) with 8
// tenants, two per app, on 4 capacity-bounded switches.
//
// The run is a series of episodes. Each episode brings up a fresh fleet
// (the repeated set-up), takes one switch down, and then runs a fixed
// number of cycles: kill the next switch, serve, revive the switch that was
// down before, serve. With one switch already down, a kill leaves two
// survivors that cannot hold all eight tenants at full size, so every
// failover engages the degradation ladder, and every revive climbs tenants
// back. Fresh fleets keep the journals short: ElasticRuntime::recover
// replays a tenant's whole journal, so failover time grows with the number
// of cycles a fleet has lived through (26 -> 41 ms over 546 cycles of one
// fleet), which would tie the metric to run length and machine speed.
//
// Serving runs no ILP at all: it is simulator + app controller + fleet
// routing. Each kill_switch fails tenants over through
// ElasticRuntime::recover (journal replay, greedy recompile, snapshot
// restore) and appends to fleet.log.
#include <exception>
#include <filesystem>
#include <memory>

#include "common.hpp"
#include "fleet/fleet.hpp"
#include "workload/cluster.hpp"
#include "workload/trace.hpp"

namespace perfbench {

namespace fl = p4all::fleet;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kSwitches = 4;
constexpr std::size_t kTickEvery = 512;
/// Per-tenant drift window (p4all-fleet's default).
constexpr std::size_t kWindow = 256;
constexpr std::size_t kUniverse = 400;
constexpr double kAlpha = 1.2;
/// Each tenant's traffic is one seeded Zipf window repeated: stationary to
/// the drift detector, so no drift swap moves a tenant's footprint and
/// every episode replays the same placements. (Splitting one Zipf trace by
/// flow made per-tenant load, and with it failover time, depend on which
/// tenant drew the hottest keys: 28-83 ms p50 across seeds 1-3.)
constexpr std::size_t kRepeats = 64;
/// Placed register bits per switch: one full-size netcache tenant (131072
/// bits) fits, so four switches hold all eight tenants at full size, but
/// two survivors cannot.
constexpr std::int64_t kCapacityBits = 135'000;
/// Kill/revive cycles per episode (each switch is killed three times).
constexpr std::size_t kCycles = 12;

std::string switch_name(std::size_t i) { return "sw" + std::to_string(i % kSwitches); }

fl::FleetOptions fleet_options(const Options& opt, const fs::path& root) {
    fl::FleetOptions o;
    o.runtime.compile.backend = p4all::compiler::Backend::Greedy;
    o.runtime.exact_portfolio = false;
    o.runtime.drift.window = kWindow;
    o.runtime.drift.top_k = 16;
    o.backoff.seed = opt.seed;
    o.journal_root = root.string();
    return o;
}

std::vector<fl::TenantSpec> tenants() {
    std::vector<fl::TenantSpec> t;
    for (const char* app : {"netcache", "sketchlearn", "precision", "conquest"}) {
        for (const char* suffix : {"-a", "-b"}) t.push_back({std::string(app) + suffix, app});
    }
    return t;
}

std::vector<fl::SwitchSpec> switches() {
    std::vector<fl::SwitchSpec> s;
    for (std::size_t i = 0; i < kSwitches; ++i) s.push_back({switch_name(i), kCapacityBits});
    return s;
}

std::vector<p4all::workload::ClusterPacket> cluster_trace(const std::vector<std::string>& names,
                                                          std::uint64_t seed) {
    std::vector<std::pair<std::string, p4all::workload::Trace>> per_tenant;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const auto window = p4all::workload::zipf_trace(kWindow, kUniverse, kAlpha, seed * 16 + i);
        p4all::workload::Trace t;
        for (std::size_t r = 0; r < kRepeats; ++r) {
            t.keys.insert(t.keys.end(), window.keys.begin(), window.keys.end());
        }
        per_tenant.emplace_back(names[i], std::move(t));
    }
    return p4all::workload::interleave(per_tenant, seed);
}

/// Every tenant placed, none dropped: the serving check.
bool all_serving(const fl::FleetController& fc, const std::vector<fl::TenantSpec>& ts,
                 std::string& why) {
    for (const auto& t : ts) {
        if (fc.parked(t.name)) {
            why = t.name + " parked";
            return false;
        }
    }
    if (fc.packets_dropped() != 0) {
        why = std::to_string(fc.packets_dropped()) + " packets dropped";
        return false;
    }
    return true;
}

}  // namespace

void run_fleet_serve(const Options& opt, Tracer& tracer, Result& out) {
    const std::vector<fl::TenantSpec> specs = tenants();
    std::vector<std::string> names;
    for (const auto& t : specs) names.push_back(t.name);
    const std::size_t cycle_packets = opt.tiny ? 2048 : 8192;
    const std::size_t cycles = opt.tiny ? kSwitches : kCycles;

    const auto g0 = Clock::now();
    const std::vector<p4all::workload::ClusterPacket> cluster = cluster_trace(names, opt.seed);
    out.samples["workload.gen_ms"].push_back(ms_between(g0, Clock::now()));

    std::unique_ptr<fl::FleetController> fc;
    std::size_t pos = 0;
    std::uint64_t packets = 0, op = 0, failovers = 0, degrades = 0;
    const auto serve = [&](std::size_t n) {
        auto b0 = Clock::now();
        std::uint64_t batch = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const auto& pkt = cluster[pos++ % cluster.size()];
            fc->step(pkt.tenant, pkt.key);
            ++packets;
            ++batch;
            if (pos % kTickEvery == 0) {
                const auto t0 = Clock::now();
                tracer.record("fleet.step", b0, t0, 0, batch);
                fc->tick();
                b0 = Clock::now();
                tracer.record("fleet.tick", t0, b0, 0);
                batch = 0;
            }
        }
        if (batch > 0) tracer.record("fleet.step", b0, Clock::now(), 0, batch);
    };

    fs::path root;
    std::size_t episode = 0;
    do {
        // Set-up: fleet bring-up (8 greedy compiles, journals, fleet.log),
        // a warm-up half cycle, and the last switch taken down.
        fc.reset();
        root = fs::path(opt.work_dir) / ("fleet-" + std::to_string(episode % 2));
        fs::remove_all(root);
        const auto t0 = Clock::now();
        fc = std::make_unique<fl::FleetController>(fleet_options(opt, root), switches(), specs);
        pos = 0;
        const std::uint64_t packets0 = packets;
        serve(cycle_packets / 2);
        fc->kill_switch(switch_name(kSwitches - 1));
        serve(cycle_packets / 2);
        packets = packets0;
        out.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
        ++episode;

        const std::size_t events0 = fc->events().size();
        const std::uint64_t episode_packets0 = packets;
        const double episode_s0 = out.phase_s;
        out.start_phase();
        const int phase_span = tracer.open("phase", 0);
        for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
            // The switch killed one cycle earlier is still down, so the
            // kill leaves two survivors for all eight tenants.
            const std::string victim = switch_name(cycle);
            const std::string rejoin = switch_name(cycle + kSwitches - 1);
            std::string why;
            bool ok = true;
            ++op;
            try {
                const auto k0 = Clock::now();
                fc->kill_switch(victim);
                const auto k1 = Clock::now();
                tracer.record("fleet.kill", k0, k1, op);
                out.samples["failover_ms"].push_back(ms_between(k0, k1));
            } catch (const std::exception& e) {
                ok = out.check("fleet.kill", false, e.what());
            }
            serve(cycle_packets / 2);
            ok = out.check("fleet.serving_after_kill", ok && all_serving(*fc, specs, why), why);
            out.op(ok);
            ok = true;
            ++op;
            try {
                const auto r0 = Clock::now();
                fc->revive_switch(rejoin);
                const auto r1 = Clock::now();
                tracer.record("fleet.revive", r0, r1, op);
                out.samples["revive_ms"].push_back(ms_between(r0, r1));
            } catch (const std::exception& e) {
                ok = out.check("fleet.revive", false, e.what());
            }
            serve(cycle_packets / 2);
            ok = out.check("fleet.serving_after_revive", ok && all_serving(*fc, specs, why), why);
            out.op(ok);
        }
        tracer.close(phase_span);
        out.end_phase();
        out.samples["episode_pkts_per_s"].push_back(static_cast<double>(packets - episode_packets0) /
                                                    (out.phase_s - episode_s0));

        std::uint64_t ep_degrades = 0;
        for (std::size_t i = events0; i < fc->events().size(); ++i) {
            const auto kind = fc->events()[i].kind;
            failovers += kind == fl::FleetEventKind::Failover ? 1 : 0;
            ep_degrades += kind == fl::FleetEventKind::Degrade ? 1 : 0;
        }
        degrades += ep_degrades;
        out.check("fleet.degradation_engaged", ep_degrades > 0, "no tenant degraded");

        // Episode end: with every switch back, every tenant serves at its
        // full profile and nothing was dropped.
        fc->revive_switch(switch_name(cycles + kSwitches - 1));
        std::string why;
        out.check("fleet.serving_at_end", all_serving(*fc, specs, why), why);
        for (const auto& t : specs) {
            out.check("fleet.full_profile_at_end", fc->level_of(t.name) == 0, t.name);
        }
    } while (!opt.tiny && out.phase_elapsed_ms() < opt.seconds * 1e3);

    out.counters["packets"] = static_cast<double>(packets);
    out.counters["fleet.failovers"] = static_cast<double>(failovers);
    out.counters["fleet.degrades"] = static_cast<double>(degrades);
    out.counters["fleet.dropped"] = static_cast<double>(fc->packets_dropped());
    std::error_code ec;
    const auto log_bytes = fs::file_size(root / "fleet.log", ec);
    out.counters["fleet.log_bytes"] = ec ? 0.0 : static_cast<double>(log_bytes);
    // Utility: what the last fleet serves at full size.
    for (const auto& t : specs) {
        if (const auto* r = fc->runtime_of(t.name)) out.utility += r->compiled().utility;
    }

    if (tracer.enabled()) {
        // Failover replay: recover each tenant from a copy of its journal,
        // as the fleet does on a new home.
        const int replay_span = tracer.open("replay", 0);
        std::size_t k = 0;
        for (const auto& t : specs) {
            const fs::path copy = fs::path(opt.work_dir) / ("recover-" + std::to_string(k++));
            fs::remove_all(copy);
            fs::copy(root / t.name, copy, fs::copy_options::recursive);
            p4all::runtime::RuntimeOptions o = fleet_options(opt, root).runtime;
            o.journal_dir = copy.string();
            const auto driver = p4all::runtime::make_driver(t.app);
            Tracer::Scope s(tracer, "runtime.recover", k);
            auto recovered = p4all::runtime::ElasticRuntime::recover(t.name, driver.source, o,
                                                                     driver.profile);
            out.check("replay.recover_matches",
                      recovered->compiled().utility == fc->runtime_of(t.name)->compiled().utility,
                      t.name);
        }
        tracer.close(replay_span);
        for (const auto& t : specs) {
            probe_sim(fc->runtime_of(t.name)->compiled(), opt.tiny ? 2000 : 20000, opt.seed,
                      tracer, out);
        }
    }
}

}  // namespace perfbench
