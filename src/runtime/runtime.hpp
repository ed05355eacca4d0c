// The elastic runtime: a daemon-side service that owns a live compiled
// pipeline and reconfigures it *hitlessly* when the workload drifts.
//
// Life of a reconfiguration (reconfigure() / the note_packet drift loop):
//
//   1. recompile   the base program plus an assume profile derived from the
//                  drifted window runs through compiler::compile_resilient
//                  (full fallback portfolio), gated by the independent audit
//                  passes (audit::make_resilience_gate) — exactly the PR-3
//                  acceptance pipeline;
//   2. plan        the migration planner (migrate_static.hpp) gives every
//                  register row of the candidate a policy from the two
//                  layouts alone; a swap with any invariant-breaking row
//                  is rejected here, before migration;
//   3. migrate     register state flows old -> new as the state migrator
//                  (migrate.hpp) executes that plan; the old pipeline is
//                  never written, so the serving epoch is untouched
//                  throughout. The swap commits only if the post-migration
//                  snapshot persisted (when a snapshot_path or journal is
//                  configured);
//   4. swap        one epoch-counter bump adopts the new pipeline; packets
//                  keep flowing against the old epoch until this instant
//                  (single-threaded here, but the commit point is atomic by
//                  construction);
//   5. rollback    any failure anywhere — compile, the plan gate,
//                  migration, snapshot, the `runtime.swap` fault point —
//                  discards the candidate epoch and keeps serving the old
//                  one; every attempt is recorded as a SwapEvent.
//
// Fault points threaded through this path: `runtime.swap` (commit step),
// `runtime.migrate` (migrate.cpp), `runtime.snapshot` / `runtime.restore`
// (snapshot.cpp), and — when a journal_dir is configured — the four
// journaling points `runtime.journal.{intent,migrate,snapshot,commit}`,
// each checked immediately before its record is appended (so a `crash`
// action at point X provably leaves record X unwritten; the chaos matrix
// in tests/runtime/chaos_test.cpp kills at every one of them).
//
// Crash consistency: with RuntimeOptions::journal_dir set, every swap is
// write-ahead journaled (journal.hpp) and every committed epoch's register
// state persists as journal_dir/epoch_<N>.json. After a crash,
// ElasticRuntime::recover() replays the journal, classifies the interrupted
// attempt (committed / roll-forward-safe / must-roll-back), recompiles the
// proven epoch from its journaled assume profile (or takes the cached
// audited epoch, when RuntimeOptions::epochs holds one), restores its
// snapshot, and re-verifies the state checksum — degrading one committed
// epoch at a time (down to a fresh epoch 0) when snapshots are lost or
// corrupt, and never crashing on torn or tampered journals.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compiler/compiler.hpp"
#include "runtime/drift.hpp"
#include "runtime/epoch_cache.hpp"
#include "runtime/migrate.hpp"
#include "runtime/snapshot.hpp"
#include "sim/pipeline.hpp"

namespace p4all::runtime {

class JournalWriter;

/// Renders extra source text (typically `assume` bounds) from an observed
/// workload window — the "new assume profile" fed to the recompile loop.
/// An empty function (or empty result) recompiles the base program as-is.
using ProfileFn = std::function<std::string(const workload::Trace& window)>;

struct RuntimeOptions {
    /// Base options for every compile (initial and reconfigurations).
    compiler::CompileOptions compile;
    /// Wall-clock budget handed to each reconfiguration's portfolio.
    double recompile_budget_seconds = 30.0;
    /// When false, the recompile portfolio skips its exact ILP rungs and
    /// goes straight to the cheap audit-gated fallbacks (greedy /
    /// exhaustive). Layouts stay verified but stop claiming optimality —
    /// the right trade for chaos matrices and kill/restart soak loops,
    /// where compile latency dominates and geometry is pinned anyway.
    bool exact_portfolio = true;
    DriftOptions drift;
    /// Reconfigure automatically when note_packet completes a drifted window.
    bool auto_reconfigure = true;
    /// When non-empty: a crash-safe snapshot of the new state is written
    /// here on every committed swap, and a failed write aborts the swap.
    std::string snapshot_path;
    /// When non-empty: the directory holding the write-ahead epoch journal
    /// (journal.bin) and per-epoch snapshots (epoch_<N>.json). Every swap
    /// is journaled, and ElasticRuntime::recover() can rebuild the proven
    /// state after a crash at any point of the swap pipeline.
    std::string journal_dir;
    /// When set: compiles look here first and insert every audited result,
    /// so a runtime rebuilt for the same source (failover, ladder rung)
    /// reuses the epoch instead of recompiling it. Null by default; the
    /// fleet controller sets it for its tenants (epoch_cache.hpp).
    std::shared_ptr<EpochCache> epochs;
};

/// What ElasticRuntime::recover() did, step by step.
struct RecoveryReport {
    enum class Outcome {
        FreshStart,     ///< no usable journal — compiled epoch 0 from scratch
        Committed,      ///< restored the last committed epoch as journaled
        RolledForward,  ///< finished an interrupted swap (snapshot was proven)
        RolledBack,     ///< discarded an interrupted swap (snapshot unproven)
        Degraded,       ///< fell back past >=1 unrecoverable committed epoch
    };
    Outcome outcome = Outcome::FreshStart;
    std::uint64_t epoch = 0;             ///< epoch serving after recovery
    std::uint64_t journal_records = 0;   ///< valid records replayed
    bool journal_clean = true;           ///< false: a torn/corrupt tail was dropped
    std::vector<std::string> notes;      ///< every decision/degradation, in order

    [[nodiscard]] std::string to_string() const;
};

/// Record of one reconfiguration attempt.
struct SwapEvent {
    std::uint64_t from_epoch = 0;
    std::uint64_t to_epoch = 0;       ///< == from_epoch when not committed
    std::uint64_t at_packet = 0;      ///< runtime packet total at the attempt
    std::string trigger;              ///< drift reason or caller-supplied
    bool committed = false;
    std::string detail;               ///< rollback cause / migration summary
    bool migration_exact = true;
    bool invariants_preserved = true;
    std::int64_t entries_dropped = 0;
    double old_utility = 0.0;
    double new_utility = 0.0;
};

/// Throws support::Error(Errc::SwapRejected) when `event` was rolled back.
void require_committed(const SwapEvent& event);

/// Cheap, side-effect-free liveness summary returned by
/// ElasticRuntime::heartbeat() — the probe the fleet failure detector
/// (src/fleet/health.hpp) deadlines against. `serving` is false only when
/// the runtime has no live epoch (a half-recovered shell); the counters let
/// a supervisor distinguish a stalled epoch loop from a dead one.
struct HealthProbe {
    std::uint64_t epoch = 0;
    std::uint64_t packets = 0;
    std::uint64_t swaps_committed = 0;
    std::uint64_t swaps_rolled_back = 0;
    bool serving = false;

    [[nodiscard]] std::string to_string() const;
};

class ElasticRuntime {
public:
    /// Compiles `source` (through the resilient portfolio + audit gate) and
    /// brings up epoch 0. `profile` derives per-reconfiguration assume text
    /// from the drifted window.
    ElasticRuntime(std::string name, std::string source, RuntimeOptions options = {},
                   ProfileFn profile = {});
    ~ElasticRuntime();

    ElasticRuntime(const ElasticRuntime&) = delete;
    ElasticRuntime& operator=(const ElasticRuntime&) = delete;

    /// Crash recovery: rebuilds a runtime from options.journal_dir (which
    /// must be set). Replays the journal, restores the proven epoch (rolling
    /// an interrupted swap forward when its snapshot was journaled durable,
    /// back otherwise), verifies the restored state against the journaled
    /// checksum, and re-verifies migration invariants on roll-forward.
    /// Unrecoverable epochs degrade one committed epoch at a time down to a
    /// fresh epoch 0; every step lands in `report` (optional). Throws
    /// Error(Errc::RecoveryError) only when no epoch — not even a fresh
    /// compile — can be brought up.
    [[nodiscard]] static std::unique_ptr<ElasticRuntime> recover(
        std::string name, std::string source, RuntimeOptions options, ProfileFn profile = {},
        RecoveryReport* report = nullptr);

    /// The serving pipeline of the current epoch. The reference is
    /// invalidated by a committed reconfiguration — re-fetch after
    /// note_packet() / reconfigure().
    [[nodiscard]] sim::Pipeline& pipeline() noexcept;
    [[nodiscard]] const sim::Pipeline& pipeline() const noexcept;
    [[nodiscard]] const compiler::CompileResult& compiled() const noexcept;
    [[nodiscard]] const ir::Program& program() const noexcept;

    [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
    [[nodiscard]] std::uint64_t packets_total() const noexcept { return packets_; }

    /// Liveness probe for fleet supervision. Never throws, never touches
    /// serving state; see HealthProbe.
    [[nodiscard]] HealthProbe heartbeat() const noexcept;
    [[nodiscard]] const std::vector<SwapEvent>& history() const noexcept { return history_; }
    [[nodiscard]] std::size_t swaps_committed() const noexcept;
    [[nodiscard]] DriftDetector& drift() noexcept { return drift_; }

    /// Feeds the drift detector after the caller pushed one packet through
    /// pipeline(). `hit`: 1 / 0 for an application-level hit / miss, -1 when
    /// the app has no such signal. When a window completes drifted and
    /// auto_reconfigure is set, a reconfiguration runs inline; the attempt
    /// (committed or rolled back) is appended to history().
    void note_packet(std::uint64_t key, int hit = -1);

    /// Forces one reconfiguration attempt now, profiling the last completed
    /// window (empty when none was sampled yet). Never throws on rollback —
    /// inspect the returned event / use require_committed().
    SwapEvent reconfigure(const std::string& trigger = "manual");

    /// Persists the current epoch's state to options().snapshot_path (or an
    /// explicit path). Crash-safe; throws Error(Errc::SnapshotError) or
    /// FaultInjected (point `runtime.snapshot`) on failure.
    void save(const std::string& path = "");

    /// Restores register state from a snapshot file into the *current*
    /// epoch (same-layout apply; throws Error(Errc::SnapshotError) on any
    /// mismatch or corruption, FaultInjected on `runtime.restore`). State
    /// is untouched on failure.
    void restore(const std::string& path = "");

    [[nodiscard]] const RuntimeOptions& options() const noexcept { return options_; }

private:
    struct Epoch;
    struct RecoverTag {};

    /// Recovery shell: members initialized, no epoch compiled, no journal
    /// opened. recover() finishes construction.
    ElasticRuntime(RecoverTag, std::string name, std::string source, RuntimeOptions options,
                   ProfileFn profile);

    SwapEvent attempt_swap(const std::string& extra, const std::string& trigger);

    /// journal_dir/epoch_<N>.json
    [[nodiscard]] std::string epoch_snapshot_path(std::uint64_t epoch) const;

    /// The profile text epoch 0 compiles with (empty-window profile).
    [[nodiscard]] std::string initial_extra() const;

    std::string name_;
    std::string source_;
    RuntimeOptions options_;
    ProfileFn profile_;
    DriftDetector drift_;
    std::unique_ptr<Epoch> current_;
    std::unique_ptr<JournalWriter> journal_;
    std::uint64_t journal_seq_ = 0;  // next swap-attempt sequence number
    std::uint64_t epoch_ = 0;
    std::uint64_t packets_ = 0;
    std::vector<SwapEvent> history_;
    bool reconfiguring_ = false;  // re-entrancy guard for the drift loop
};

}  // namespace p4all::runtime
