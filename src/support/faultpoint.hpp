// Deterministic fault injection for resilience testing.
//
// The toolchain plants named fault points on its failure-prone paths; a
// FaultRegistry configured from the P4ALL_FAULTS environment variable (or
// programmatically, or via `p4allc --faults`) decides, deterministically,
// which hits of which points fire. A firing point simulates the failure the
// surrounding code guards against — a numerical pivot breakdown, a corrupt
// heuristic incumbent, a failed artifact emission — so tests/resilience/ can
// prove every degradation path terminates with an audited layout or a clean
// structured error.
//
// Spec syntax (comma-separated list of points, each with `:key=value`
// options):
//
//   simplex.pivot:after=200        fire exactly once, on the 200th hit
//   bnb.node:prob=0.01:seed=7      fire each hit with p=0.01, xoshiro(seed)
//   runtime.journal.intent:after=1:crash    std::abort() at the armed point
//   runtime.snapshot:prob=0.1:seed=3:delay=50   stall 50 ms, then succeed
//
// Besides the default action (simulate the guarded failure), a firing
// point can `crash` — a deterministic `std::abort()` at the exact program
// point, the primitive the chaos harness builds its kill-at-every-point
// matrices from — or `delay=<ms>`, which injects latency and then lets the
// operation proceed (fault_fires returns false), for soak runs that need
// slow-I/O realism without failure semantics.
//
// Named points currently planted:
//
//   simplex.pivot    both simplex implementations, before applying a pivot
//                    (fires => the solve reports numerical trouble)
//   bnb.node         branch-and-bound, at node expansion (fires => the
//                    subtree is abandoned as numerically unresolvable)
//   bnb.round        fix-and-propagate primal heuristic (fires => its
//                    incumbent is corrupted and NOT feasibility-checked,
//                    exercising the audit-gated acceptance path)
//   artifacts.emit   CompileArtifacts assembly (fires => structured throw)
//   codegen.emit     concrete-P4 emission (fires => structured throw)
//   runtime.migrate  state migrator, once per migrated row / table group
//                    (fires => the live reconfiguration rolls back)
//   runtime.swap     elastic runtime, at the epoch-swap commit point
//                    (fires => the candidate epoch is discarded)
//   runtime.snapshot snapshot save, after the temp file is written (fires =>
//                    the previous on-disk snapshot survives untouched)
//   runtime.restore  snapshot load (fires => restore fails with a clean
//                    structured error, state untouched)
//   runtime.journal.{intent,migrate,snapshot,commit}
//                    the four write-ahead journaling points of a journaled
//                    swap, each checked immediately BEFORE its record is
//                    appended (fires => the swap rolls back; a `crash`
//                    action provably leaves that record unwritten — the
//                    contract the chaos matrix kills against)
//
// Probability-based specs draw from a per-point xoshiro256** stream seeded
// only by `seed`, so every injected failure is reproducible from the logged
// spec. The registry is process-global and thread-safe: hit counting and
// firing decisions are serialized behind a mutex so the parallel
// branch-and-bound workers share one fault budget (an `after=N` point fires
// exactly once process-wide, never once per thread). An unarmed registry
// still costs only one relaxed atomic load per fault-point hit.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/rng.hpp"

namespace p4all::support {

/// What a firing point does.
enum class FaultAction : std::uint8_t {
    Fail,   // default: fault_fires returns true, simulating the failure
    Crash,  // deterministic std::abort() at the armed point
    Delay,  // sleep delay_ms, then proceed (fault_fires returns false)
};

/// One configured fault point.
struct FaultSpec {
    std::string point;       // e.g. "simplex.pivot"
    std::int64_t after = 0;  // >=1: fire exactly once, on this hit ordinal
    double prob = 0.0;       // else: fire each hit with this probability
    std::uint64_t seed = 0;  // rng seed for the prob stream (logged, stable)
    FaultAction action = FaultAction::Fail;
    std::int64_t delay_ms = 0;  // >=1 when action == Delay

    /// Renders back to spec syntax (for logs and reports).
    [[nodiscard]] std::string to_string() const;
};

class FaultRegistry {
public:
    /// The process-global registry. First access loads P4ALL_FAULTS.
    [[nodiscard]] static FaultRegistry& instance();

    /// Replaces the configuration with the parsed `spec` (empty disarms) and
    /// resets all counters. Throws Error(Errc::InvalidArgument) on syntax
    /// errors, unknown keys, or out-of-range values.
    void configure(std::string_view spec);

    /// Loads the P4ALL_FAULTS environment variable (no-op when unset).
    void configure_from_env();

    /// Disarms every point and resets counters.
    void clear();

    [[nodiscard]] bool armed() const noexcept {
        return armed_.load(std::memory_order_relaxed);
    }

    /// Records a hit at `point` and decides whether it fires. Points that
    /// are not configured never fire (and are not counted). A firing
    /// `crash` point calls std::abort() and does not return; a firing
    /// `delay` point sleeps its configured latency (outside the registry
    /// lock) and returns false.
    bool should_fire(std::string_view point) noexcept;

    /// Diagnostics for tests and reports.
    [[nodiscard]] std::int64_t hits(std::string_view point) const noexcept;
    [[nodiscard]] std::int64_t fires(std::string_view point) const noexcept;
    [[nodiscard]] std::string describe() const;

private:
    struct State {
        FaultSpec spec;
        Xoshiro256 rng{0};
        std::int64_t hits = 0;
        std::int64_t fires = 0;
    };

    State* find(std::string_view point) noexcept;
    [[nodiscard]] const State* find(std::string_view point) const noexcept;

    mutable std::mutex mutex_;
    std::atomic<bool> armed_{false};
    std::vector<State> states_;
};

/// The check planted at a named fault point. One branch when unarmed.
inline bool fault_fires(std::string_view point) noexcept {
    FaultRegistry& reg = FaultRegistry::instance();
    return reg.armed() && reg.should_fire(point);
}

}  // namespace p4all::support
