#!/usr/bin/env python3
"""Fleet benchmark: one command per workload, end-to-end or per-layer.

    python3 fleetbench/run.py --workload steady_fleet --seed 1 --seconds 15 --trace 0

Run from the repository root. Builds fleetbench/ (a CMake project over
src/) into $CARGO_TARGET_DIR/fleetbench (default .bench_build/fleetbench),
then:

  --trace 0  set-up-only processes, timed processes (closed batches
             through fleet::run_fleet / run_fleet_campaigns for --seconds
             in all), the statistics fleet and the correctness slices;
             prints every end-to-end metric of BENCHMARK.json, the times
             scaled to a reference host speed (REFERENCE_S).
  --trace 1  the correctness slices and the traced per-layer run; prints
             every per-layer metric of BENCHMARK.json and writes the spans.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every check
passed. README.md documents the workloads and metrics.
"""
import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("steady_fleet", "chaos_fleet", "warm_sweep", "traced_fleet")
# Set-up-only processes per run; setup_s is their median.
SETUP_RUNS = 7
# Timed processes per run, each measuring --seconds / TIMED_RUNS on its
# own batches, so one process's luck with the shared host weighs less.
TIMED_RUNS = 3
# Claims of a gain must also hold on this seed, which was never used
# while the benchmark or a change was being tuned.
HELDOUT_SEED = 9001
# Every run ends within this many seconds after the build.
DEADLINE_S = 170.0
# About the time HostReference (fleetbench.cpp) takes on a quiet 4-vCPU
# Xeon host. The shared host runs a process up to twice as fast at one
# moment as at another; each process times the reference next to its own
# timed work, and homes_per_s and setup_s are scaled to a host that runs
# the reference in this many seconds.
REFERENCE_S = 0.015

END_TO_END_UNITS = {
    "homes_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "delivery_ratio": "ratio",
    "delivery_delay_ms_p50": "ms",
    "delivery_delay_ms_p99": "ms",
    "net_bytes_per_event": "B/event",
    "survival_rate": "ratio",
    "passed_fraction": "ratio",
}
SIMULATED = ("delivery_ratio", "delivery_delay_ms_p50", "delivery_delay_ms_p99",
             "net_bytes_per_event", "survival_rate")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "fleetbench")


def build(jobs):
    """Configure (once) and build the measuring programs; returns bin dir."""
    bdir = build_dir()
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(bdir)  # configured for another checkout
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", bdir, "-j", str(jobs)],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    return bdir


class Runner:
    """Runs the measuring programs against one deadline."""

    def __init__(self, bdir, workload, seed, seconds):
        self.bdir = bdir
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.errors = []

    def run(self, binary, mode, *extra):
        args = [os.path.join(self.bdir, binary), mode, "--workload",
                self.workload, "--seed", str(self.seed), *extra]
        left = self.deadline - time.monotonic()
        if left <= 1:
            raise RuntimeError("out of time before " + mode)
        # Process start for set-up time: the program reads CLOCK_MONOTONIC,
        # the clock time.monotonic_ns() uses.
        args += ["--t0-ns", str(time.monotonic_ns())]
        proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=left, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        out = json.loads(lines[-1]) if lines else {}
        self.errors += [f"{mode}: {e}" for e in out.get("errors", [])]
        if proc.returncode != 0:
            self.errors.append(f"{mode} exited {proc.returncode}")
        return out


def host_fingerprint():
    u = platform.uname()
    return (f"{u.system}-{u.release}-{u.machine}-"
            f"{len(os.sched_getaffinity(0))}cpu")


def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def host_scale(proc):
    """How much slower than the reference host a set-up process ran."""
    return statistics.fmean(proc["reference_walls"]) / REFERENCE_S


def reference_host_seconds(timed):
    """A timed process's batch time as the reference host would spend it.

    Each batch's wall time is scaled by the reference timings just before
    and just after it, so a batch that ran while the shared host was slow
    is charged what it would have taken at reference speed.
    """
    refs = timed["reference_walls"]
    return sum(wall * 2 * REFERENCE_S / (refs[i] + refs[i + 1])
               for i, wall in enumerate(timed["batch_walls"]))


def end_to_end(r):
    """Set-up, timed, statistics and check processes -> end-to-end metrics."""
    setup_procs = [r.run("fleetbench", "setup") for _ in range(SETUP_RUNS)]
    timed = [r.run("fleetbench", "timed", "--process", str(p), "--seconds",
                   str(r.seconds / TIMED_RUNS)) for p in range(TIMED_RUNS)]
    stats = r.run("fleetbench", "stats")
    check = r.run("fleetbench", "check")
    setups = [p["setup_s"] / host_scale(p) for p in setup_procs]
    batch_sims = timed[0]["batch_sims"]
    sims = [batch_sims * len(t["batch_walls"]) for t in timed]
    host_s = [reference_host_seconds(t) for t in timed]
    # All simulations of the run over all their batch time. A median over
    # batches or processes jumps between the host's fast and slow phases;
    # the sum follows the share of time spent in each, and the reference
    # scaling takes most of that out.
    rate = sum(sims) / sum(host_s)
    raw_rates = [n / sum(t["batch_walls"]) for n, t in zip(sims, timed)]
    metrics = {
        "homes_per_s": rate,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": stats["peak_rss_mb"],
    }
    metrics.update({k: stats["sim"][k] for k in SIMULATED})
    procs = setup_procs + timed + [stats, check]
    attempted = sum(p.get("attempted", 0) for p in procs)
    failed = sum(p.get("failed", 0) for p in procs)
    metrics["passed_fraction"] = 1.0 - failed / max(attempted, 1)
    units = dict(END_TO_END_UNITS)
    detail = {
        "batches": sum(len(t["batch_walls"]) for t in timed),
        "batch_sims": batch_sims,
        "homes_per_s_runs": [n / h for n, h in zip(sims, host_s)],
        "unscaled_homes_per_s_runs": raw_rates,
        "setup_host_scales": [host_scale(p) for p in setup_procs],
        "setup_s_runs": setups,
        "sim": stats["sim"],
        "digests": stats["digests"],
        "batch0_digests": [t["digests"] for t in timed],
        "build": stats["build"],
    }
    log(f"homes/s over {detail['batches']} batches of {batch_sims} "
        f"home-campaign simulations in {TIMED_RUNS} processes: scaled "
        f"{', '.join(f'{n / h:.1f}' for n, h in zip(sims, host_s))}; unscaled "
        f"{', '.join(f'{x:.1f}' for x in raw_rates)}")
    log(f"delivery delay from {stats['sim']['delay_samples']} samples "
        f"({stats['sim']['stat_sims']} simulations)")
    return metrics, units, attempted, failed, detail


def per_layer(r):
    """Check process and the traced replica -> per-layer metrics."""
    check = r.run("fleetbench", "check")
    spans_dir = os.path.join(r.bdir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"{r.workload}-seed{r.seed}.tsv")
    traced = r.run("fleetbench_traced", "trace", "--spans", spans)
    layers = traced.get("layers", {})
    metrics = {k: v["value"] for k, v in layers.items()}
    units = {k: v["unit"] for k, v in layers.items()}
    procs = [check, traced]
    attempted = sum(p.get("attempted", 0) for p in procs)
    failed = sum(p.get("failed", 0) for p in procs)
    log(f"spans written to {os.path.relpath(spans, ROOT)}")
    return metrics, units, attempted, failed, {"spans": spans,
                                               "build": traced.get("build")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "fleet", "fleet.hpp")):
        log("fleetbench: no Rivulet sources next to the benchmark")
        return 2
    declared_e2e, declared_layers = load_declared()
    jobs = max(1, min(4, len(os.sched_getaffinity(0))))
    bdir = build(jobs)

    r = Runner(bdir, args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            metrics, units, attempted, failed, detail = per_layer(r)
            declared = declared_layers
        else:
            metrics, units, attempted, failed, detail = end_to_end(r)
            declared = declared_e2e
    except (subprocess.TimeoutExpired, RuntimeError, KeyError,
            ValueError) as e:
        log(f"fleetbench: run failed: {e!r}")
        return 1

    # The printed names and units must be exactly the declared ones.
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        r.errors.append(f"metric names differ from BENCHMARK.json: "
                        f"missing {missing}, undeclared {extra}")
    r.errors += [f"unit of {k}: printed {units[k]}, declared {declared[k]}"
                 for k in metrics if k in declared and units[k] != declared[k]]

    identity = {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host_fingerprint(),
        **detail,
    }
    correct = not r.errors and failed == 0
    for e in r.errors:
        log(f"CHECK FAILED: {e}")
    for name in sorted(metrics):
        print(f"{name:44s} {metrics[name]:>16.6g} {units.get(name, '')}")
    print("identity " + json.dumps(identity, sort_keys=True))

    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(
            results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
            "w") as f:
        json.dump({"identity": identity, "metrics": metrics,
                   "errors": r.errors}, f, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": correct,
        "attempted": max(int(attempted), 1),
        "failed": int(failed),
        "metrics": {k: {"value": metrics[k], "unit": declared.get(k, units[k])}
                    for k in sorted(metrics)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
