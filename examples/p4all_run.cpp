// p4all-run — the elastic runtime daemon, in miniature.
//
// Brings up one benchmark application on the elastic runtime and streams a
// workload through it: every packet flows through the live pipeline and the
// app's controller policy, the drift detector watches the stream, and each
// drifted window triggers a background recompile + state migration + atomic
// epoch swap (or an audited rollback). The event log it prints is the
// runtime's full SwapEvent history.
//
//   p4all-run <app> [options]          app: netcache | sketchlearn |
//                                           precision | conquest
//     --packets N          trace length                  (default 16384)
//     --phases N           workload drift phases         (default 4)
//     --universe N         distinct keys per phase       (default 600)
//     --alpha A            Zipf skew                     (default 1.2)
//     --seed S             trace seed                    (default 1)
//     --window N           drift-detector window         (default 1024)
//     --workload W         zipf | flood | thrash | storm (default zipf;
//                          flood aims at the app's placed register modulus)
//     --min-swaps N        exit 1 unless >= N reconfigurations commit
//     --expect-rollback    exit 1 unless >= 1 attempt rolls back cleanly
//                          (for faulted runs)
//     --snapshot PATH      crash-safe epoch snapshots here on every swap
//     --journal DIR        write-ahead epoch journal + per-epoch snapshots
//     --recover            bring the runtime up via crash recovery from
//                          --journal DIR instead of a fresh compile
//     --record-trace PATH  record every key fed into a sealed binary trace
//     --replay-trace PATH  replay a recorded binary trace (overrides the
//                          generator flags; deterministic bit-for-bit)
//     --faults SPEC        arm fault injection (P4ALL_FAULTS syntax, e.g.
//                          runtime.swap:after=1 or
//                          runtime.journal.commit:after=1:crash)
//     --ilp                compile every epoch on the exact ILP portfolio
//                          (the default)
//     --fast               compile every epoch, the first included, on the
//                          greedy fallback rung: no exact ILP rungs
//                          (chaos/CI speed)
//     --opt-level <0|1>    IR optimizer level for every (re)compile
//                          (default 1)
//
//   The `epoch N serving` line names the portfolio rung that compiled the
//   serving epoch (ilp-sparse, greedy, ...). The final line prints a state
//   digest (the snapshot checksum of the serving registers); replaying the
//   same trace twice must print the same digest — the determinism contract
//   CI asserts.
//
//   Exit codes: 0 run completed with the demanded swaps/rollbacks, 1 the
//   demands were not met or serving state was damaged, 2 usage/fatal error.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "runtime/drivers.hpp"
#include "runtime/runtime.hpp"
#include "runtime/snapshot.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "workload/adversarial.hpp"
#include "workload/trace.hpp"
#include "workload/trace_io.hpp"

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: p4all-run <netcache|sketchlearn|precision|conquest>\n"
                 "                 [--packets N] [--phases N] [--universe N] [--alpha A]\n"
                 "                 [--seed S] [--window N] [--workload zipf|flood|thrash|storm]\n"
                 "                 [--min-swaps N] [--expect-rollback] [--snapshot PATH]\n"
                 "                 [--journal DIR] [--recover] [--record-trace PATH]\n"
                 "                 [--replay-trace PATH] [--faults SPEC] [--ilp] [--fast]\n"
                 "                 [--opt-level 0|1]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace p4all;

    if (argc < 2) return usage();
    const std::string app = argv[1];

    std::size_t packets = 16384, phases = 4, universe = 600;
    double alpha = 1.2;
    std::uint64_t seed = 1;
    std::size_t min_swaps = 0;
    bool expect_rollback = false;
    bool recover = false;
    std::string workload_name = "zipf";
    std::string record_path, replay_path;
    runtime::RuntimeOptions options;
    options.drift.window = 1024;
    options.drift.top_k = 32;
    options.drift.min_hit_samples = 256;

    // Typed flag parsing: any unknown flag or malformed value throws
    // Error(Errc::CliUsage), so scripts see the stable P4ALL-0105 code on
    // stderr and exit code 2 — never a silently misparsed number.
    try {
        support::CliArgs args(argc, argv, 2);
        while (args.next()) {
            if (args.is("--packets")) packets = args.uint_value(1);
            else if (args.is("--phases")) phases = args.uint_value(1);
            else if (args.is("--universe")) universe = args.uint_value(1);
            else if (args.is("--alpha")) alpha = args.double_value();
            else if (args.is("--seed")) seed = args.uint_value();
            else if (args.is("--window")) options.drift.window = args.uint_value(1);
            else if (args.is("--workload")) workload_name = args.value();
            else if (args.is("--min-swaps")) min_swaps = args.uint_value();
            else if (args.is("--expect-rollback")) expect_rollback = true;
            else if (args.is("--snapshot")) options.snapshot_path = args.value();
            else if (args.is("--journal")) options.journal_dir = args.value();
            else if (args.is("--recover")) recover = true;
            else if (args.is("--record-trace")) record_path = args.value();
            else if (args.is("--replay-trace")) replay_path = args.value();
            else if (args.is("--faults")) support::FaultRegistry::instance().configure(args.value());
            else if (args.is("--ilp")) options.exact_portfolio = true;
            else if (args.is("--fast")) options.exact_portfolio = false;
            else if (args.is("--opt-level"))
                options.compile.opt_level = static_cast<int>(args.uint_value(0, 1));
            else args.unknown();
        }
        if (workload_name != "zipf" && workload_name != "flood" && workload_name != "thrash" &&
            workload_name != "storm") {
            throw support::Error(support::Errc::CliUsage,
                                 "flag '--workload' expects zipf|flood|thrash|storm, got '" +
                                     workload_name + "'");
        }
        if (recover && options.journal_dir.empty()) {
            throw support::Error(support::Errc::CliUsage, "--recover requires --journal DIR");
        }
    } catch (const support::Error& e) {
        std::fprintf(stderr, "p4all-run: %s\n", e.what());
        return usage();
    }

    try {
        runtime::AppDriver driver = runtime::make_driver(app);
        std::unique_ptr<runtime::ElasticRuntime> rt;
        if (recover) {
            std::printf("p4all-run: recovering '%s' from journal %s\n", driver.name.c_str(),
                        options.journal_dir.c_str());
            runtime::RecoveryReport report;
            rt = runtime::ElasticRuntime::recover(driver.name, driver.source, options,
                                                  driver.profile, &report);
            std::printf("%s\n", report.to_string().c_str());
        } else {
            std::printf("p4all-run: bringing up '%s' (drift window %zu)\n", driver.name.c_str(),
                        options.drift.window);
            rt = std::make_unique<runtime::ElasticRuntime>(driver.name, driver.source, options,
                                                           driver.profile);
        }
        std::printf("p4all-run: epoch %llu serving (utility %.1f) %s\n",
                    static_cast<unsigned long long>(rt->epoch()), rt->compiled().utility,
                    rt->compiled().resilience.final_backend.c_str());
        // A recovered runtime starts at its journaled epoch; fresh commits
        // made by this run stack on top of it.
        const std::uint64_t epoch_base = rt->epoch();

        workload::Trace trace;
        if (!replay_path.empty()) {
            trace = workload::load_binary_trace(replay_path);
            std::printf("p4all-run: replaying %zu packets from %s\n", trace.size(),
                        replay_path.c_str());
        } else if (workload_name == "flood") {
            // Aim the collision flood at a modulus the layout actually placed.
            std::uint64_t modulus = 509;
            for (const sim::RegRowInfo& row : rt->pipeline().reg_rows()) {
                if (row.elems > 1) {
                    modulus = static_cast<std::uint64_t>(row.elems);
                    break;
                }
            }
            trace = workload::collision_flood_trace(packets, 16, modulus, 1, seed);
            std::printf("p4all-run: collision flood on modulus %llu\n",
                        static_cast<unsigned long long>(modulus));
        } else if (workload_name == "thrash") {
            trace = workload::cache_thrash_trace(packets, universe, seed);
        } else if (workload_name == "storm") {
            trace = workload::drift_storm_trace(packets, universe, alpha, seed, phases);
        } else {
            trace = workload::zipf_drifting_trace(packets, universe, alpha, seed, phases);
        }

        std::unique_ptr<workload::TraceWriter> recorder;
        if (!record_path.empty())
            recorder = std::make_unique<workload::TraceWriter>(record_path);

        std::uint64_t last_logged = 0;
        for (const std::uint64_t key : trace.keys) {
            if (recorder) recorder->append(key);
            driver.step(*rt, key);
            if (rt->history().size() != last_logged) {
                const runtime::SwapEvent& ev = rt->history().back();
                last_logged = rt->history().size();
                std::printf("p4all-run: pkt %-8llu %-9s epoch %llu -> %llu  [%s]%s%s\n",
                            static_cast<unsigned long long>(ev.at_packet),
                            ev.committed ? "SWAP" : "ROLLBACK",
                            static_cast<unsigned long long>(ev.from_epoch),
                            static_cast<unsigned long long>(ev.to_epoch), ev.trigger.c_str(),
                            ev.committed && !ev.migration_exact ? " (migration inexact)" : "",
                            ev.committed ? "" : (" — " + ev.detail).c_str());
            }
        }
        if (recorder) {
            recorder->close();
            std::printf("p4all-run: recorded %llu packets to %s\n",
                        static_cast<unsigned long long>(recorder->count()),
                        record_path.c_str());
        }

        const std::size_t committed = rt->swaps_committed();
        std::size_t rolled_back = rt->history().size() - committed;

        // When snapshotting, prove the persisted state round-trips: save the
        // final epoch and restore it back. A failed restore (I/O fault, the
        // `runtime.restore` point) must leave the serving state untouched.
        if (!options.snapshot_path.empty()) {
            rt->save();
            try {
                rt->restore();
                std::printf("p4all-run: snapshot restore verified\n");
            } catch (const support::Error& e) {
                std::printf("p4all-run: restore failed cleanly — still serving (%s)\n",
                            e.what());
                ++rolled_back;
            }
        }
        std::printf(
            "p4all-run: done — %llu packets, epoch %llu, %zu swaps committed, %zu rolled back\n",
            static_cast<unsigned long long>(rt->packets_total()),
            static_cast<unsigned long long>(rt->epoch()), committed, rolled_back);

        // The serving pipeline must still be live whatever happened above,
        // and the digest lets a replayed run prove bit-identical state.
        const runtime::Snapshot final_state =
            runtime::take_snapshot(rt->pipeline(), rt->epoch());
        std::printf("p4all-run: state digest %016llx\n",
                    static_cast<unsigned long long>(final_state.checksum()));

        if (rt->epoch() != epoch_base + committed) {
            std::fprintf(stderr, "p4all-run: ERROR: epoch %llu != %zu committed swaps\n",
                         static_cast<unsigned long long>(rt->epoch()), committed);
            return 1;
        }
        if (committed < min_swaps) {
            std::fprintf(stderr, "p4all-run: ERROR: %zu swaps committed, %zu required\n",
                         committed, min_swaps);
            return 1;
        }
        if (expect_rollback && rolled_back == 0) {
            std::fprintf(stderr, "p4all-run: ERROR: expected at least one clean rollback\n");
            return 1;
        }
        return 0;
    } catch (const support::CompileError& e) {
        std::fprintf(stderr, "p4all-run: %s\n", e.what());
        return 2;
    }
}
