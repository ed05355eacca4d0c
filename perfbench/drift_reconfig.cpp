// drift-reconfig: the production reconfiguration path. Each of the four
// runtime drivers owns one ElasticRuntime with default RuntimeOptions (exact
// portfolio, audit gate, invariant gate, write-ahead journal) plus a 0.5 s
// recompile budget and p4all-run's drift settings. Every driver streams its
// own seeded drifting Zipf trace; the drivers take turns in chunks, one
// packet at a time, so the client stays a single closed loop.
//
// An epoch is a `step` call that ran a swap. Traced runs copy the serving
// epoch before every window-completing step and, after the timed phase,
// replay each swap stage by stage on those copies: resilient compile with
// the audit gate, static plan, pipeline build, migration, snapshots and
// journal appends. The replay must reach the committed SwapEvent's utility.
#include <filesystem>
#include <memory>

#include "audit/audit.hpp"
#include "common.hpp"
#include "compiler/resilient.hpp"
#include "runtime/drivers.hpp"
#include "runtime/journal.hpp"
#include "runtime/migrate_static.hpp"
#include "runtime/runtime.hpp"
#include "runtime/snapshot.hpp"
#include "workload/trace.hpp"

namespace perfbench {

namespace rt = p4all::runtime;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kUniverse = 600;
constexpr double kAlpha = 1.2;

rt::RuntimeOptions runtime_options(const Options& opt) {
    rt::RuntimeOptions o;
    o.recompile_budget_seconds = 0.5;
    o.drift.window = opt.tiny ? 256 : 1024;
    o.drift.top_k = 32;
    return o;
}

/// One driver with its runtime and input.
struct Lane {
    rt::AppDriver driver;
    std::unique_ptr<rt::ElasticRuntime> runtime;
    p4all::workload::Trace trace;
    std::size_t pos = 0;
    std::size_t swaps_seen = 0;
};

/// What a traced run keeps to replay one swap.
struct ReplayInput {
    std::size_t lane = 0;
    std::uint64_t op = 0;
    p4all::compiler::CompileResult old_compiled;
    rt::Snapshot old_state;
    std::string extra;
    rt::SwapEvent event;
};

void replay_epoch(const ReplayInput& in, const Lane& lane, const rt::RuntimeOptions& options,
                  const std::string& dir, Tracer& t, Result& out) {
    using Scope = Tracer::Scope;
    // Untimed: rebuild the pre-swap serving epoch from its copy.
    const auto& oc = in.old_compiled;
    p4all::sim::Pipeline old_pipe(oc.program, oc.layout,
                                  std::span<const p4all::verify::ProofFact>(oc.artifacts->proofs));
    rt::apply_snapshot(in.old_state, old_pipe);
    fs::create_directories(dir);

    Scope epoch(t, "epoch.replay", in.op);
    {
        Scope s(t, "runtime.snapshot", in.op);
        (void)rt::take_snapshot(old_pipe, in.event.from_epoch);
    }
    p4all::compiler::ResilienceOptions res;
    res.budget_seconds = options.recompile_budget_seconds;
    const auto gate = p4all::audit::make_resilience_gate();
    res.external_gate = [&](const p4all::ir::Program& prog,
                            const p4all::compiler::CompileArtifacts& art) {
        Scope s(t, "audit.gate", in.op);
        return gate(prog, art);
    };
    p4all::compiler::CompileResult cand;
    {
        Scope s(t, "compiler.resilient", in.op);
        cand = p4all::compiler::compile_resilient_source(lane.driver.source + "\n" + in.extra,
                                                         options.compile, res, lane.driver.name);
    }
    out.samples["compiler.portfolio_attempts"].push_back(
        static_cast<double>(cand.resilience.attempts.size()));
    out.samples["replay.unproven"].push_back(cand.resilience.anytime ? 1.0 : 0.0);
    {
        Scope s(t, "runtime.plan", in.op);
        const rt::StaticMigrationPlan plan =
            rt::plan_migration(oc.program, oc.layout, cand.program, cand.layout);
        out.check("replay.plan_safe", plan.invariants_preserved(), lane.driver.name);
    }
    std::unique_ptr<p4all::sim::Pipeline> pipe;
    {
        Scope s(t, "sim.build", in.op);
        pipe = std::make_unique<p4all::sim::Pipeline>(
            cand.program, cand.layout,
            std::span<const p4all::verify::ProofFact>(cand.artifacts->proofs));
    }
    rt::MigrationReport migration;
    {
        Scope s(t, "runtime.migrate", in.op);
        migration = rt::migrate_state(old_pipe, *pipe);
    }
    std::uint64_t checksum = 0;
    {
        Scope s(t, "runtime.snapshot", in.op);
        const rt::Snapshot snap = rt::take_snapshot(*pipe, in.event.to_epoch);
        checksum = snap.checksum();
        rt::save_snapshot(snap, dir + "/epoch_" + std::to_string(in.event.to_epoch) + ".json");
    }
    {
        Scope s(t, "runtime.journal", in.op);
        rt::JournalWriter journal(dir + "/journal.bin");
        using Type = rt::JournalRecordType;
        const std::uint64_t e = in.event.to_epoch;
        journal.append({Type::Intent, e, e, 0, in.extra});
        journal.append({Type::MigrateDone, e, e, 0, migration.to_string()});
        journal.append({Type::SnapshotDone, e, e, checksum, ""});
        journal.append({Type::Commit, e, e, checksum, in.extra});
    }
    out.check("replay.invariants", migration.invariants_preserved(), lane.driver.name);
    out.check("replay.utility_matches", cand.utility == in.event.new_utility,
              lane.driver.name + ": replay " + std::to_string(cand.utility) + " vs committed " +
                  std::to_string(in.event.new_utility));
}

}  // namespace

void run_drift_reconfig(const Options& opt, Tracer& tracer, Result& out) {
    const rt::RuntimeOptions base = runtime_options(opt);
    const std::size_t window = base.drift.window;
    // Four windows per phase; enough phases that no lane wraps in a run.
    const std::size_t phase_len = 4 * window;
    const std::size_t phases = opt.tiny ? 3 : 160;

    // Set-up: traces, runtimes (epoch-0 compiles, journals) and a warm-up
    // window per lane that becomes the drift reference. Repeated; the last
    // repetition serves the timed phase.
    std::vector<Lane> lanes;
    const int setups = opt.tiny ? 1 : 3;
    for (int rep = 0; rep < setups; ++rep) {
        lanes.clear();
        const fs::path root = fs::path(opt.work_dir) / ("drift-" + std::to_string(rep));
        fs::remove_all(root);
        const auto t0 = Clock::now();
        std::size_t i = 0;
        for (const std::string& name : rt::driver_names()) {
            Lane lane;
            lane.driver = rt::make_driver(name);
            const auto g0 = Clock::now();
            lane.trace = p4all::workload::zipf_drifting_trace(phases * phase_len, kUniverse,
                                                              kAlpha, opt.seed * 16 + i, phases);
            out.samples["workload.gen_ms"].push_back(ms_between(g0, Clock::now()));
            rt::RuntimeOptions o = base;
            o.journal_dir = (root / name).string();
            lane.runtime = std::make_unique<rt::ElasticRuntime>(name, lane.driver.source, o,
                                                                lane.driver.profile);
            for (; lane.pos < window; ++lane.pos) {
                lane.driver.step(*lane.runtime, lane.trace.keys[lane.pos]);
            }
            lane.swaps_seen = lane.runtime->history().size();
            lanes.push_back(std::move(lane));
            ++i;
        }
        out.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    }

    // Timed phase: lanes take turns, `chunk` packets each.
    const std::size_t chunk = 256;
    std::vector<ReplayInput> replays;
    std::vector<std::size_t> replays_per_lane(lanes.size(), 0);
    const std::size_t max_replays = opt.tiny ? 1 : 4;
    std::uint64_t packets = 0, op = 0;
    double step_ms = 0.0;
    std::uint64_t steps = 0;
    out.start_phase();
    const int phase_span = tracer.open("phase", 0);
    bool done = false;
    while (!done) {
        for (std::size_t li = 0; li < lanes.size(); ++li) {
            Lane& lane = lanes[li];
            rt::ElasticRuntime& r = *lane.runtime;
            auto batch0 = Clock::now();
            std::uint64_t batch_n = 0;
            for (std::size_t j = 0; j < chunk; ++j) {
                const std::uint64_t key = lane.trace.keys[lane.pos % lane.trace.size()];
                ++lane.pos;
                // A swap can only start on a window-completing packet.
                std::unique_ptr<ReplayInput> keep;
                if (tracer.enabled() && (r.packets_total() + 1) % window == 0 &&
                    replays_per_lane[li] < max_replays) {
                    keep = std::make_unique<ReplayInput>();
                    keep->old_compiled = r.compiled();
                    keep->old_state = rt::take_snapshot(r.pipeline(), r.epoch());
                }
                const auto t0 = Clock::now();
                lane.driver.step(r, key);
                const auto t1 = Clock::now();
                ++packets;
                if (r.history().size() == lane.swaps_seen) {
                    step_ms += ms_between(t0, t1);
                    ++steps;
                    ++batch_n;
                    continue;
                }
                // This step ran a swap: one epoch.
                lane.swaps_seen = r.history().size();
                ++op;
                const rt::SwapEvent& ev = r.history().back();
                const double ms = ms_between(t0, t1);
                if (batch_n > 0) tracer.record("runtime.step", batch0, t0, 0, batch_n);
                tracer.record("runtime.epoch", t0, t1, op);
                batch0 = t1;
                batch_n = 0;
                out.samples["epoch_ms"].push_back(ms);
                out.samples["epoch_ms." + lane.driver.name].push_back(ms);
                const bool ok =
                    out.check("swap.commits", ev.committed, lane.driver.name + ": " + ev.detail) &&
                    out.check("swap.invariants", ev.invariants_preserved, lane.driver.name);
                out.op(ok);
                if (keep && ok) {
                    keep->lane = li;
                    keep->op = op;
                    keep->extra = lane.driver.profile(r.drift().last_window());
                    keep->event = ev;
                    replays.push_back(std::move(*keep));
                    ++replays_per_lane[li];
                }
            }
            if (batch_n > 0) tracer.record("runtime.step", batch0, Clock::now(), 0, batch_n);
        }
        done = opt.tiny ? packets >= lanes.size() * phase_len * (phases - 1)
                        : out.phase_elapsed_ms() >= opt.seconds * 1e3;
    }
    tracer.close(phase_span);
    out.end_phase();
    out.counters["packets"] = static_cast<double>(packets);
    out.counters["runtime.step_ms_total"] = step_ms;
    out.counters["runtime.steps"] = static_cast<double>(steps);

    std::uint64_t swaps = 0, rollbacks = 0;
    for (const Lane& lane : lanes) {
        const auto& h = lane.runtime->history();
        double util = 0.0;
        std::size_t committed = 0;
        for (const rt::SwapEvent& ev : h) {
            if (!ev.committed) continue;
            util += ev.new_utility;
            ++committed;
        }
        swaps += committed;
        rollbacks += h.size() - committed;
        // Utility: per lane, the mean utility its committed epochs served.
        if (committed > 0) out.utility += util / static_cast<double>(committed);
        out.check("runtime.serving", lane.runtime->heartbeat().serving, lane.driver.name);
        out.check("runtime.epoch_matches_swaps",
                  lane.runtime->epoch() == committed, lane.driver.name);
    }
    out.counters["runtime.swaps"] = static_cast<double>(swaps);
    out.counters["runtime.rollbacks"] = static_cast<double>(rollbacks);

    if (tracer.enabled()) {
        const int replay_span = tracer.open("replay", 0);
        for (std::size_t k = 0; k < replays.size(); ++k) {
            const ReplayInput& in = replays[k];
            replay_epoch(in, lanes[in.lane], base,
                         (fs::path(opt.work_dir) / ("replay-" + std::to_string(k))).string(),
                         tracer, out);
        }
        tracer.close(replay_span);
        for (const Lane& lane : lanes) {
            probe_sim(lane.runtime->compiled(), opt.tiny ? 2000 : 20000, opt.seed, tracer, out);
        }
    }
}

}  // namespace perfbench
