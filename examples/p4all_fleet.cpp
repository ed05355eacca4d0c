// p4all-fleet — the fault-tolerant fleet controller, in miniature.
//
// Brings up N switches and a set of tenants (one elastic runtime each, one
// journal directory each), streams a flow-split cluster trace through the
// fleet, and runs the supervision loop: heartbeats, failure detection,
// failover with retry/backoff and circuit breakers, graceful degradation,
// and full-profile recovery on rejoin. Kill/revive schedules and fault
// specs make it the CLI face of the chaos matrix in tests/fleet/.
//
//   p4all-fleet [options]
//     --switches N         fleet size                       (default 3)
//     --capacity BITS      per-switch SRAM budget in placed register bits
//                          (default 0 = unbounded)
//     --tenants SPEC       comma list of name=app            (default
//                          t0=netcache,t1=precision)
//     --packets N          cluster trace length              (default 8192)
//     --universe N         distinct keys                     (default 400)
//     --alpha A            Zipf skew                         (default 1.2)
//     --seed S             trace + jitter seed               (default 1)
//     --window N           per-tenant drift window           (default 256)
//     --tick-every N       supervision tick cadence, packets (default 512)
//     --kill NAME@PKT      kill switch NAME after PKT packets (repeatable)
//     --revive NAME@PKT    revive switch NAME after PKT packets (repeatable)
//     --journal DIR        fleet journal root (required)
//     --recover            bring the fleet up via FleetController::recover
//     --faults SPEC        arm fault injection (fleet.heartbeat, fleet.swap,
//                          fleet.route, plus every runtime.* point)
//     --ilp                compile tenants on the exact ILP portfolio
//                          (default: the greedy fallback rung only)
//     --expect-served N    exit 1 unless >= N tenants are serving at the end
//
//   The final lines print one state digest per served tenant (a replay with
//   the same seed and schedule must print identical digests), one
//   `rung <tenant> <rung>` line naming the portfolio rung that compiled each
//   served tenant's epoch (ilp-sparse, greedy, ...), the routing totals,
//   and how many tenant epochs came from the controller's epoch cache
//   versus the compiler.
//
//   Exit codes: 0 ok, 1 a demand was not met, 2 usage/fatal error.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "workload/cluster.hpp"
#include "workload/trace.hpp"

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: p4all-fleet --journal DIR [--switches N] [--capacity BITS]\n"
                 "                   [--tenants name=app,...] [--packets N] [--universe N]\n"
                 "                   [--alpha A] [--seed S] [--window N] [--tick-every N]\n"
                 "                   [--kill NAME@PKT] [--revive NAME@PKT] [--recover]\n"
                 "                   [--faults SPEC] [--ilp] [--expect-served N]\n");
    return 2;
}

struct Action {
    std::string switch_name;
    std::uint64_t at_packet = 0;
    bool kill = true;
};

Action parse_action(const std::string& spec, bool kill) {
    const std::size_t at = spec.find('@');
    if (at == std::string::npos || at == 0 || at + 1 >= spec.size()) {
        throw p4all::support::Error(p4all::support::Errc::CliUsage,
                                    "expected NAME@PKT, got '" + spec + "'");
    }
    Action action;
    action.switch_name = spec.substr(0, at);
    action.at_packet = std::strtoull(spec.c_str() + at + 1, nullptr, 10);
    action.kill = kill;
    return action;
}

std::vector<p4all::fleet::TenantSpec> parse_tenants(const std::string& spec) {
    std::vector<p4all::fleet::TenantSpec> tenants;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos) comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
            throw p4all::support::Error(p4all::support::Errc::CliUsage,
                                        "expected name=app, got '" + item + "'");
        }
        tenants.push_back({item.substr(0, eq), item.substr(eq + 1)});
        pos = comma + 1;
    }
    return tenants;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace p4all;

    std::size_t n_switches = 3;
    std::int64_t capacity = 0;
    std::string tenant_spec = "t0=netcache,t1=precision";
    std::size_t packets = 8192, universe = 400;
    double alpha = 1.2;
    std::uint64_t seed = 1;
    std::size_t tick_every = 512;
    std::size_t expect_served = 0;
    bool recover = false;
    std::vector<Action> schedule;
    fleet::FleetOptions options;
    options.runtime.exact_portfolio = false;
    options.runtime.drift.window = 256;
    options.runtime.drift.top_k = 16;

    try {
        support::CliArgs args(argc, argv, 1);
        while (args.next()) {
            if (args.is("--switches")) n_switches = args.uint_value(1, 64);
            else if (args.is("--capacity")) capacity = static_cast<std::int64_t>(args.uint_value());
            else if (args.is("--tenants")) tenant_spec = args.value();
            else if (args.is("--packets")) packets = args.uint_value(1);
            else if (args.is("--universe")) universe = args.uint_value(1);
            else if (args.is("--alpha")) alpha = args.double_value();
            else if (args.is("--seed")) seed = args.uint_value();
            else if (args.is("--window")) options.runtime.drift.window = args.uint_value(1);
            else if (args.is("--tick-every")) tick_every = args.uint_value(1);
            else if (args.is("--kill")) schedule.push_back(parse_action(args.value(), true));
            else if (args.is("--revive")) schedule.push_back(parse_action(args.value(), false));
            else if (args.is("--journal")) options.journal_root = args.value();
            else if (args.is("--recover")) recover = true;
            else if (args.is("--faults")) support::FaultRegistry::instance().configure(args.value());
            else if (args.is("--ilp")) options.runtime.exact_portfolio = true;
            else if (args.is("--expect-served")) expect_served = args.uint_value();
            else args.unknown();
        }
        if (options.journal_root.empty()) {
            throw support::Error(support::Errc::CliUsage, "--journal DIR is required");
        }
    } catch (const support::Error& e) {
        std::fprintf(stderr, "p4all-fleet: %s\n", e.what());
        return usage();
    }

    try {
        options.backoff.seed = seed;
        std::vector<fleet::SwitchSpec> switches;
        for (std::size_t i = 0; i < n_switches; ++i) {
            switches.push_back({"sw" + std::to_string(i), capacity});
        }
        const std::vector<fleet::TenantSpec> tenants = parse_tenants(tenant_spec);
        std::vector<std::string> tenant_names;
        tenant_names.reserve(tenants.size());
        for (const auto& t : tenants) tenant_names.push_back(t.name);

        std::unique_ptr<fleet::FleetController> fc;
        if (recover) {
            fleet::FleetRecoveryReport report;
            fc = fleet::FleetController::recover(options, switches, tenants, &report);
            std::printf("p4all-fleet: recovered — %llu events replayed%s\n",
                        static_cast<unsigned long long>(report.events_replayed),
                        report.log_clean ? "" : " (torn log tail truncated)");
            for (const std::string& note : report.notes) {
                std::printf("p4all-fleet:   %s\n", note.c_str());
            }
        } else {
            fc = std::make_unique<fleet::FleetController>(options, switches, tenants);
        }

        const workload::Trace trace =
            workload::zipf_drifting_trace(packets, universe, alpha, seed, 4);
        const std::vector<workload::ClusterPacket> cluster =
            workload::split_by_flow(trace, tenant_names, seed);

        std::size_t next_event = fc->events().size();
        std::size_t done_actions = 0;
        std::sort(schedule.begin(), schedule.end(),
                  [](const Action& a, const Action& b) { return a.at_packet < b.at_packet; });

        std::uint64_t fed = 0;
        for (const workload::ClusterPacket& packet : cluster) {
            while (done_actions < schedule.size() &&
                   schedule[done_actions].at_packet <= fed) {
                const Action& action = schedule[done_actions++];
                std::printf("p4all-fleet: pkt %llu: %s %s\n",
                            static_cast<unsigned long long>(fed),
                            action.kill ? "KILL" : "REVIVE", action.switch_name.c_str());
                if (action.kill) fc->kill_switch(action.switch_name);
                else fc->revive_switch(action.switch_name);
            }
            fc->step(packet.tenant, packet.key);
            ++fed;
            if (fed % tick_every == 0) fc->tick();
            while (next_event < fc->events().size()) {
                std::printf("p4all-fleet: %s\n",
                            fc->events()[next_event++].to_string().c_str());
            }
        }

        std::printf("%s", fc->to_string().c_str());
        std::size_t served = 0;
        for (const std::string& name : tenant_names) {
            if (fc->parked(name)) {
                std::printf("p4all-fleet: tenant %s PARKED\n", name.c_str());
                continue;
            }
            ++served;
            std::printf("p4all-fleet: digest %s %016llx\n", name.c_str(),
                        static_cast<unsigned long long>(fc->digest(name)));
            std::printf("p4all-fleet: rung %s %s\n", name.c_str(),
                        fc->runtime_of(name)->compiled().resilience.final_backend.c_str());
        }
        std::printf("p4all-fleet: done — %llu routed, %llu dropped, %llu route retries, "
                    "%zu/%zu tenants serving\n",
                    static_cast<unsigned long long>(fc->packets_routed()),
                    static_cast<unsigned long long>(fc->packets_dropped()),
                    static_cast<unsigned long long>(fc->route_retries()), served,
                    tenant_names.size());
        std::printf("p4all-fleet: epochs — %llu reused, %llu compiled\n",
                    static_cast<unsigned long long>(fc->epochs_reused()),
                    static_cast<unsigned long long>(fc->epochs_compiled()));
        if (served < expect_served) {
            std::fprintf(stderr, "p4all-fleet: ERROR: %zu tenants serving, %zu required\n",
                         served, expect_served);
            return 1;
        }
        return 0;
    } catch (const support::CompileError& e) {
        std::fprintf(stderr, "p4all-fleet: %s\n", e.what());
        return 2;
    }
}
