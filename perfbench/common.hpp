// Shared pieces of the benchmark client: options, the in-memory span
// recorder, and the raw result record each workload fills in.
//
// The client only measures. It writes raw samples, counters and spans as
// one JSON document; perfbench/run.py turns them into the reported metrics
// (medians, percentiles, per-layer self times), so every statistic is
// computed in one place.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "compiler/compiler.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// User + system CPU seconds of this process so far.
[[nodiscard]] double cpu_seconds();

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Tiny inputs and one short cycle: the self-test size.
    bool tiny = false;
    /// Scratch directory for journals, snapshots and fleet logs.
    std::string work_dir;
};

/// In-memory spans around public calls. Each span has a name, start and
/// end (ns since the recorder was created), its parent span, the operation
/// it belongs to, and a weight `n` (how many calls a batch span covers).
/// Nothing is recorded when disabled; the records are written out once, at
/// exit.
class Tracer {
public:
    struct Span {
        std::string name;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        int parent = -1;
        std::uint64_t op = 0;
        std::uint64_t n = 1;
    };

    explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Opens a span as a child of the innermost open span; returns its id
    /// (-1 when disabled).
    int open(const std::string& name, std::uint64_t op) {
        if (!enabled_) return -1;
        spans_.push_back({name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(), op, 1});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void close(int id) {
        if (id < 0) return;
        spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
        stack_.pop_back();
    }

    /// Records an already-measured interval as a closed child of the
    /// innermost open span.
    void record(const std::string& name, Clock::time_point a, Clock::time_point b,
                std::uint64_t op, std::uint64_t n = 1) {
        if (!enabled_) return;
        spans_.push_back({name, ns(a), ns(b), stack_.empty() ? -1 : stack_.back(), op, n});
    }

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

    /// RAII span.
    class Scope {
    public:
        Scope(Tracer& t, const std::string& name, std::uint64_t op)
            : t_(t), id_(t.open(name, op)) {}
        ~Scope() { t_.close(id_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer& t_;
        int id_;
    };

private:
    [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0_).count();
    }
    [[nodiscard]] std::int64_t now_ns() const { return ns(Clock::now()); }

    bool enabled_;
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/// What one workload run measured.
struct Result {
    /// Wall time of each repeated set-up, seconds.
    std::vector<double> setup_s;
    /// Duration of the timed phase, seconds: wall time and the process's
    /// CPU time (user + system, all threads) over the timed stretches.
    double phase_s = 0.0;
    double phase_cpu_s = 0.0;
    /// Operations attempted and failed (compiles, swaps, kill/revive).
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// First failure messages, for the log.
    std::vector<std::string> failures;
    /// Correctness checks that ran, with how many times each ran.
    std::map<std::string, std::uint64_t> checks;
    /// Sum of achieved utility (deterministic for a given input).
    double utility = 0.0;
    /// Named sample series, e.g. "compile_ms.netcache" or "failover_ms".
    std::map<std::string, std::vector<double>> samples;
    /// Named totals and gauges.
    std::map<std::string, double> counters;

    /// Counts one run of a correctness check; returns `ok`.
    bool check(const std::string& name, bool ok, const std::string& detail = "") {
        ++checks[name];
        if (!ok && failures.size() < 20) failures.push_back(name + ": " + detail);
        return ok;
    }

    /// Bracket one stretch of the timed phase; stretches add up.
    void start_phase() {
        phase_wall0_ = Clock::now();
        phase_cpu0_ = cpu_seconds();
    }
    void end_phase() {
        phase_s += ms_between(phase_wall0_, Clock::now()) / 1e3;
        phase_cpu_s += cpu_seconds() - phase_cpu0_;
    }
    /// Timed milliseconds so far, the open stretch included.
    [[nodiscard]] double phase_elapsed_ms() const {
        return phase_s * 1e3 + ms_between(phase_wall0_, Clock::now());
    }

    /// Counts one scored operation.
    void op(bool ok) {
        ++attempted;
        if (!ok) ++failed;
    }

private:
    Clock::time_point phase_wall0_;
    double phase_cpu0_ = 0.0;
};

/// Runs one workload; throws on set-up errors the benchmark cannot score.
void run_compile_apps(const Options& opt, Tracer& tracer, Result& out);
void run_drift_reconfig(const Options& opt, Tracer& tracer, Result& out);
void run_fleet_serve(const Options& opt, Tracer& tracer, Result& out);

/// Rebuilds a pipeline from a compile result and pushes `packets` seeded
/// random packets through it: the simulator's own cost, apart from the
/// app controllers and the runtime. Adds sim.build_ms, sim.process_ns,
/// sim.ops and sim.checks_elided samples to `out`.
void probe_sim(const p4all::compiler::CompileResult& compiled, std::size_t packets,
               std::uint64_t seed, Tracer& tracer, Result& out);

}  // namespace perfbench
