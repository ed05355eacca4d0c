#!/usr/bin/env python3
"""The repository benchmark: builds the client, runs one workload, checks
its outputs and prints every metric by name and unit.

    python3 perfbench/run.py --workload compile-apps|drift-reconfig|fleet-serve
                             --seed N --seconds S --trace 0|1 [--tiny]
    python3 perfbench/run.py --selftest

Run from the repository root. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. A traced run
also runs the same seed untraced first, to report the tracing overhead.
Full results (host metadata, seed, every metric, raw spans) are written to
.bench_build/results/. See perfbench/README.md for what each metric means.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
CLIENT = os.path.join(BUILD_DIR, "perfbench_client")
CLIENT_TIMEOUT_S = 170

WORKLOADS = ("compile-apps", "drift-reconfig", "fleet-serve")

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("utility", "utility"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
]

COMPILE_PROGRAMS = ("netcache", "sketchlearn-l4", "sketchlearn-l6", "precision",
                    "conquest-s4", "conquest-s6", "flowradar")
DRIVERS = ("netcache", "sketchlearn", "precision", "conquest")

# Stage spans of one compile (compile-apps, traced) and of one replayed
# epoch (drift-reconfig, traced): their self times are reported per
# operation, so they add up to the operation's time.
COMPILE_STAGES = ("lang.parse", "ir.elaborate", "opt.optimize", "analysis.unroll",
                  "compiler.ilpgen", "compiler.greedy", "ilp.solve", "compiler.extract",
                  "compiler.audit_layout", "compiler.usage", "verify.prove_bounds",
                  "compiler.codegen")
EPOCH_STAGES = ("compiler.resilient", "audit.gate", "runtime.plan", "sim.build",
                "runtime.migrate", "runtime.snapshot", "runtime.journal")

PER_LAYER = (
    [(s + "_ms", "ms") for s in COMPILE_STAGES]
    + [("compiler.driver_ms", "ms"), ("audit.artifacts_ms", "ms"),
       ("opt.rewrites", "count"), ("compiler.p4_bytes", "bytes"),
       ("compiler.ilp_vars", "count"), ("compiler.ilp_rows", "count"),
       ("ilp.nodes", "count"), ("ilp.lp_iterations", "count"), ("ilp.iters_per_s", "1/s"),
       ("ilp.cuts", "count"), ("ilp.limit_ratio", "ratio")]
    + [("compile_ms." + p, "ms") for p in COMPILE_PROGRAMS]
    + [("epoch.resilient_compile_ms", "ms"), ("audit.gate_ms", "ms"),
       ("runtime.plan_ms", "ms"), ("epoch.sim_build_ms", "ms"), ("runtime.migrate_ms", "ms"),
       ("runtime.snapshot_ms", "ms"), ("runtime.journal_ms", "ms"),
       ("epoch.replay_other_ms", "ms"), ("compiler.portfolio_attempts", "count"),
       ("epoch.limit_ratio", "ratio"), ("runtime.swaps", "count"),
       ("runtime.rollbacks", "count"), ("runtime.step_us", "us")]
    + [("epoch_ms." + d, "ms") for d in DRIVERS]
    + [("sim.build_ms", "ms"), ("sim.process_ns", "ns"), ("sim.ops", "count"),
       ("sim.checks_elided", "count")]
    + [("runtime.recover_ms", "ms"), ("fleet.step_us", "us"), ("fleet.tick_ms", "ms"),
       ("fleet.kill_ms", "ms"), ("fleet.revive_ms", "ms"), ("fleet.failovers", "count"),
       ("fleet.degrades", "count"), ("fleet.dropped", "count"), ("fleet.log_bytes", "bytes")]
    + [("workload.gen_ms", "ms"), ("latency_p90_ms", "ms"), ("latency.samples", "count"),
       ("trace.spans", "count"),
       ("trace.layer_sum_ms", "ms"), ("trace.e2e_untraced_ms", "ms"),
       ("trace.overhead_ms", "ms"), ("trace.residual_ms", "ms"),
       ("trace.within_overhead", "bool")]
)

# Correctness checks each workload must run at least once.
CHECKS = {
    "compile-apps": (["compile.succeeds", "audit.artifacts"],
                     ["trace.staged_matches_compile"]),
    "drift-reconfig": (["swap.commits", "swap.invariants", "runtime.serving",
                        "runtime.epoch_matches_swaps"],
                       ["replay.plan_safe", "replay.invariants", "replay.utility_matches"]),
    "fleet-serve": (["fleet.serving_after_kill", "fleet.serving_after_revive",
                     "fleet.degradation_engaged", "fleet.serving_at_end",
                     "fleet.full_profile_at_end"],
                    ["replay.recover_matches"]),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- statistics

def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        return float("nan")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mean(values):
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------- build/run

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "compiler", "compiler.cpp")):
        log("perfbench: the repository sources (src/) are missing; nothing to build")
        sys.exit(2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)


def run_client(workload, seed, seconds, trace, tiny, tag):
    work = os.path.join(BUILD_ROOT, "work", "%s-%d-%s" % (workload, os.getpid(), tag))
    out = work + ".json"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [CLIENT, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work-dir", work, "--out", out]
    if tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=CLIENT_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(done.stdout + done.stderr)
            log("perfbench: client exited with %d" % done.returncode)
            return None
        with open(out) as f:
            return json.load(f)
    except subprocess.TimeoutExpired:
        log("perfbench: client timed out after %d s" % CLIENT_TIMEOUT_S)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.exists(out):
            os.remove(out)


# ---------------------------------------------------------------- metrics

def op_latencies(raw):
    """The samples of the workload's timed operation, per series."""
    s = raw["samples"]
    w = raw["workload"]
    if w == "compile-apps":
        return {p: s.get("compile_ms." + p, []) for p in COMPILE_PROGRAMS}
    if w == "drift-reconfig":
        return {d: s.get("epoch_ms." + d, []) for d in DRIVERS}
    return {"failover": s.get("failover_ms", [])}


def end_to_end(raw):
    s = raw["samples"]
    w = raw["workload"]
    series = op_latencies(raw)
    if w == "compile-apps":
        p50 = geomean([statistics.median(v) for v in series.values()])
        p90 = geomean([percentile(v, 90) for v in series.values()])
        throughput = raw["attempted"] / raw["phase_s"]
    elif w == "drift-reconfig":
        # Every driver swaps equally often, so the pooled median would sit
        # on the boundary between two drivers' clusters; the geomean of the
        # per-driver medians does not. The pooled p90 lies inside the
        # netcache cluster (the top quarter).
        p50 = geomean([statistics.median(v) for v in series.values()])
        p90 = percentile([x for v in series.values() for x in v], 90)
        throughput = raw["counters"]["packets"] / raw["phase_s"]
    else:
        p50, p90 = statistics.median(s["failover_ms"]), percentile(s["failover_ms"], 90)
        # Median over episodes: a burst of host interference slows a few
        # episodes, not the figure.
        throughput = statistics.median(s["episode_pkts_per_s"])
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "utility": raw["utility"],
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "throughput_per_s": throughput,
    }


def self_times(spans):
    """Per span: duration minus the time its direct children cover (ns)."""
    child = [0] * len(spans)
    for name, start, end, parent, op, n in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(sp[2] - sp[1]) - child[i] for i, sp in enumerate(spans)]


def under(spans, i, root_name):
    """Whether span i lies under a span named root_name."""
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == root_name:
            return True
        p = spans[p][3]
    return False


def per_layer(raw, untraced):
    s, c, w = raw["samples"], raw["counters"], raw["workload"]
    spans = raw["spans"]
    selfs = self_times(spans)
    m = {name: 0.0 for name, _ in PER_LAYER}

    def total_self_ms(name, root=None):
        return sum(selfs[i] for i, sp in enumerate(spans)
                   if sp[0] == name and (root is None or under(spans, i, root))) / 1e6

    def count(name, root=None):
        return sum(1 for i, sp in enumerate(spans)
                   if sp[0] == name and (root is None or under(spans, i, root)))

    def weight(name, root=None):
        return sum(sp[5] for i, sp in enumerate(spans)
                   if sp[0] == name and (root is None or under(spans, i, root)))

    lat = op_latencies(raw)
    lat_u = op_latencies(untraced)
    m["latency.samples"] = float(sum(len(v) for v in lat.values()))
    m["latency_p90_ms"] = end_to_end(raw)["latency_p90_ms"]
    m["trace.spans"] = float(len(spans))
    m["workload.gen_ms"] = mean(s.get("workload.gen_ms", []))

    if w == "compile-apps":
        n = count("compile")
        for stage in COMPILE_STAGES:
            m[stage + "_ms"] = total_self_ms(stage) / n
        m["compiler.driver_ms"] = total_self_ms("compile") / n
        m["audit.artifacts_ms"] = total_self_ms("audit.artifacts") / n
        for key in ("opt.rewrites", "compiler.p4_bytes", "compiler.ilp_vars",
                    "compiler.ilp_rows", "ilp.nodes", "ilp.lp_iterations", "ilp.cuts"):
            m[key] = mean(s[key])
        m["ilp.iters_per_s"] = sum(s["ilp.lp_iterations"]) / sum(s["ilp.solve_s"])
        m["ilp.limit_ratio"] = mean(s["compile.unproven"])
        for p in COMPILE_PROGRAMS:
            m["compile_ms." + p] = statistics.median(lat[p])
        # One operation = one compile.
        m["trace.layer_sum_ms"] = sum(selfs[i] for i, sp in enumerate(spans)
                                      if sp[0] == "compile" or under(spans, i, "compile")) / 1e6 / n
        traced_e2e = mean([x for v in lat.values() for x in v])
        untraced_e2e = mean([x for v in lat_u.values() for x in v])
    elif w == "drift-reconfig":
        n = max(1, count("epoch.replay"))
        names = {"compiler.resilient": "epoch.resilient_compile_ms",
                 "sim.build": "epoch.sim_build_ms"}
        for stage in EPOCH_STAGES:
            m[names.get(stage, stage + "_ms")] = total_self_ms(stage, "epoch.replay") / n
        m["epoch.replay_other_ms"] = total_self_ms("epoch.replay") / n
        m["compiler.portfolio_attempts"] = mean(s.get("compiler.portfolio_attempts", []))
        m["epoch.limit_ratio"] = mean(s.get("replay.unproven", []))
        m["runtime.swaps"] = c["runtime.swaps"]
        m["runtime.rollbacks"] = c["runtime.rollbacks"]
        m["runtime.step_us"] = c["runtime.step_ms_total"] * 1e3 / max(1.0, c["runtime.steps"])
        for d in DRIVERS:
            m["epoch_ms." + d] = statistics.median(s.get("epoch_ms." + d, [0.0]))
        # One operation = one swap epoch; the live epoch is opaque, so its
        # layers come from the stage-by-stage replays.
        m["trace.layer_sum_ms"] = sum(selfs[i] for i, sp in enumerate(spans)
                                      if sp[0] == "epoch.replay"
                                      or under(spans, i, "epoch.replay")) / 1e6 / n
        traced_e2e = mean(s["epoch_ms"])
        untraced_e2e = mean(untraced["samples"]["epoch_ms"])
    else:
        # Set-up serves packets too; only the timed phase counts here.
        steps = max(1, weight("fleet.step", "phase"))
        m["fleet.step_us"] = total_self_ms("fleet.step", "phase") * 1e3 / steps
        m["fleet.tick_ms"] = (total_self_ms("fleet.tick", "phase")
                              / max(1, count("fleet.tick", "phase")))
        m["fleet.kill_ms"] = total_self_ms("fleet.kill") / max(1, count("fleet.kill"))
        m["fleet.revive_ms"] = total_self_ms("fleet.revive") / max(1, count("fleet.revive"))
        m["runtime.recover_ms"] = total_self_ms("runtime.recover") / max(1, count("runtime.recover"))
        for key in ("fleet.failovers", "fleet.degrades", "fleet.dropped", "fleet.log_bytes"):
            m[key] = c[key]
        # One operation = one routed packet, in ms; kill/revive/tick time
        # is spread over the packets like the throughput metric does.
        packets = c["packets"]
        m["trace.layer_sum_ms"] = sum(selfs[i] for i, sp in enumerate(spans)
                                      if sp[0] == "phase" or under(spans, i, "phase")) / 1e6 / packets
        traced_e2e = 1e3 / (packets / raw["phase_s"])
        untraced_e2e = 1e3 / (untraced["counters"]["packets"] / untraced["phase_s"])
    for key in ("sim.build_ms", "sim.process_ns", "sim.ops", "sim.checks_elided"):
        if s.get(key):
            m[key] = mean(s[key])
    m["trace.e2e_untraced_ms"] = untraced_e2e
    m["trace.overhead_ms"] = traced_e2e - untraced_e2e
    m["trace.residual_ms"] = m["trace.layer_sum_ms"] - untraced_e2e
    # The layers account for the untraced time when what is left over is
    # no larger than the tracing overhead (plus 1% of the operation for
    # clock reads outside any span).
    m["trace.within_overhead"] = float(
        abs(m["trace.residual_ms"]) <= abs(m["trace.overhead_ms"]) + 0.01 * untraced_e2e)
    return m


def check_outputs(raw, traced):
    base, trace_only = CHECKS[raw["workload"]]
    missing = [c for c in base + (trace_only if traced else []) if raw["checks"].get(c, 0) == 0]
    for c in missing:
        log("perfbench: correctness check did not run: " + c)
    for f in raw["failures"]:
        log("perfbench: FAILED " + f)
    return not missing and raw["failed"] == 0


# ---------------------------------------------------------------- reporting

def fmt(v):
    return ("%.6g" % v) if isinstance(v, float) else str(v)


def report(raw, e2e):
    """This workload's own metric names (compile_ms, epoch_p50_ms, ...), with units
    and sample counts."""
    h = raw["host"]
    w = raw["workload"]
    s = raw["samples"]
    print("%s  seed %d  %.1f s timed  (nproc %d, %s, %s, journal fs %s)"
          % (w, raw["seed"], raw["phase_s"], h["nproc"], h["compiler"], h["build_type"],
             h["journal_fs"]))
    rows = [
        ("setup_s", e2e["setup_s"], "s", "median of %d set-ups" % len(raw["setup_s"])),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", ""),
        ("fail_ratio", raw["failed"] / max(1, raw["attempted"]), "ratio",
         "%d/%d operations" % (raw["failed"], raw["attempted"])),
        ("utility", e2e["utility"], "utility", ""),
    ]
    series = op_latencies(raw)
    if w == "compile-apps":
        unproven = s["compile.unproven"]
        rows += [
            ("compile_ms", e2e["latency_p50_ms"], "ms",
             "geomean of per-program medians, n=%s per program"
             % "/".join(str(len(v)) for v in series.values())),
            ("compile_p90_ms", e2e["latency_p90_ms"], "ms", "geomean of per-program p90"),
            ("unproven_ratio", mean(unproven), "ratio",
             "%d/%d compiles returned a Limit incumbent" % (sum(unproven), len(unproven))),
        ]
        rows += [("compile_ms." + p, statistics.median(v), "ms", "median, n=%d" % len(v))
                 for p, v in series.items()]
    elif w == "drift-reconfig":
        n = "/".join(str(len(v)) for v in series.values())
        rows += [
            ("epoch_p50_ms", e2e["latency_p50_ms"], "ms",
             "geomean of per-driver medians, n=%s" % n),
            ("epoch_p90_ms", e2e["latency_p90_ms"], "ms",
             "pooled over drivers, n=%d" % len(s["epoch_ms"])),
            ("pkts_per_s", e2e["throughput_per_s"], "1/s",
             "%d packets" % raw["counters"]["packets"]),
        ]
        rows += [("epoch_ms." + d, statistics.median(s["epoch_ms." + d]), "ms",
                  "median, n=%d" % len(s["epoch_ms." + d])) for d in DRIVERS
                 if s.get("epoch_ms." + d)]
    else:
        n = len(series["failover"])
        rows += [
            ("pkts_per_s", e2e["throughput_per_s"], "1/s",
             "median over %d episodes, %d packets"
             % (len(s["episode_pkts_per_s"]), raw["counters"]["packets"])),
            ("failover_p50_ms", e2e["latency_p50_ms"], "ms", "kill_switch, n=%d" % n),
            ("failover_p90_ms", e2e["latency_p90_ms"], "ms", "kill_switch, n=%d" % n),
        ]
    for name, value, unit, note in rows:
        print("  %-24s %14s %-7s %s" % (name, fmt(float(value)), unit, note))


def save(name, doc):
    d = os.path.join(BUILD_ROOT, "results")
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, name), "w") as f:
        json.dump(doc, f)


def run(args):
    build()
    untraced = run_client(args.workload, args.seed, args.seconds, False, args.tiny, "e2e")
    if untraced is None:
        return 1
    correct = check_outputs(untraced, False)
    e2e = end_to_end(untraced)
    report(untraced, e2e)
    attempted, failed = untraced["attempted"], untraced["failed"]
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    doc = {"workload": args.workload, "seed": args.seed, "host": untraced["host"],
           "end_to_end": metrics, "samples": untraced["samples"],
           "counters": untraced["counters"], "phase_s": untraced["phase_s"],
           "phase_cpu_s": untraced["phase_cpu_s"], "setup_s": untraced["setup_s"]}
    if args.trace:
        traced = run_client(args.workload, args.seed, args.seconds, True, args.tiny, "trace")
        if traced is None:
            return 1
        correct = check_outputs(traced, True) and correct
        attempted += traced["attempted"]
        failed += traced["failed"]
        layers = per_layer(traced, untraced)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        doc["per_layer"] = metrics
        # Tracing overhead: the traced run's end-to-end metrics minus the
        # untraced run's.
        traced_e2e = end_to_end(traced)
        doc["tracing_overhead"] = {k: traced_e2e[k] - e2e[k] for k in traced_e2e}
        print("  tracing overhead (traced minus untraced): " + ", ".join(
            "%s %+.4g" % kv for kv in doc["tracing_overhead"].items()))
        print("  per-layer self time per operation (traced run):")
        for name, unit in PER_LAYER:
            if layers[name] != 0.0:
                print("    %-30s %14s %s" % (name, fmt(layers[name]), unit))
        save("trace-%s-seed%d.json" % (args.workload, args.seed),
             {"host": traced["host"], "seed": args.seed, "spans": traced["spans"]})
    save("%s-seed%d-trace%d.json" % (args.workload, args.seed, int(args.trace)), doc)
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------- self-test

def selftest():
    """Tiny runs of every workload, traced and untraced: every metric is
    emitted with its unit, every correctness check runs and passes, and
    BENCHMARK.json names the same metrics."""
    ok = True
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench):
        with open(bench) as f:
            spec = json.load(f)
        declared = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
        if declared != set(END_TO_END):
            log("selftest: BENCHMARK.json end_to_end differs from run.py")
            ok = False
        declared = {(m["name"], m["unit"]) for m in spec["per_layer"]}
        if declared != set(PER_LAYER):
            log("selftest: BENCHMARK.json per_layer differs from run.py")
            ok = False
        if sorted(x["name"] for x in spec["workloads"]) != sorted(WORKLOADS):
            log("selftest: BENCHMARK.json workloads differ from run.py")
            ok = False
    for w in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                log("selftest: %s trace %d printed no result" % (w, trace))
                ok = False
                continue
            want = END_TO_END if trace == 0 else PER_LAYER
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            bad = [n for n, u in want if got.get(n) != u] + \
                  [k for k in got if k not in dict(want)]
            good = (done.returncode == 0 and result["correct"] and not bad
                    and result["attempted"] >= 1 and result["failed"] == 0)
            log("selftest: %-15s trace %d  %s%s" % (w, trace, "ok" if good else "FAILED",
                                                     "" if not bad else " bad metrics %s" % bad))
            ok = ok and good
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
