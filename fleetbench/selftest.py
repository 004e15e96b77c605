#!/usr/bin/env python3
"""Self-test of the fleet benchmark's declarations and output.

    python3 fleetbench/selftest.py          # declarations only (instant)
    python3 fleetbench/selftest.py --run    # also run every workload briefly

Checks that BENCHMARK.json, run.py and layers.json agree: the workload
names, every end-to-end metric's unit, and one layer entry per per-layer
metric. With --run it runs each workload with --trace 0 and --trace 1 and
checks that the last line has exactly the keys correct, attempted,
failed and metrics, that the run passed, and that it printed exactly the
metric names and units BENCHMARK.json declares; it then repeats one run
with the same seed and checks that every simulated metric reads the
same. Exit code 0 when every check passes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run  # noqa: E402

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL:", what)


def declarations(spec):
    names = [w["name"] for w in spec["workloads"]]
    expect(tuple(names) == run.WORKLOADS,
           f"workloads {names} != run.py {run.WORKLOADS}")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(e2e == run.END_TO_END_UNITS,
           "end_to_end names/units differ from run.py END_TO_END_UNITS")
    with open(os.path.join(HERE, "layers.json")) as f:
        groups = json.load(f)
    for g in groups:
        for m in g["moves"]:
            expect(m in e2e, f"layers.json: {g['prefix']} moves unknown {m}")
        for w in [g["on"]] + g["no_change_on"]:
            expect(w is None or w in names,
                   f"layers.json: {g['prefix']} names unknown workload {w}")
    for m in spec["per_layer"]:
        hits = [g for g in groups if m["name"].startswith(g["prefix"])]
        expect(len(hits) == 1,
               f"{m['name']} matches {len(hits)} layers.json entries")


def run_once(workload, seed, trace, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    what = f"{workload} --trace {trace}"
    expect(proc.returncode == 0, f"{what}: exit code {proc.returncode}")
    if not lines:
        expect(False, f"{what}: no output")
        return {}
    last = json.loads(lines[-1])
    expect(set(last) == {"correct", "attempted", "failed", "metrics"},
           f"{what}: result keys {sorted(last)}")
    expect(last.get("correct") is True and last.get("failed") == 0,
           f"{what}: not correct")
    return last.get("metrics", {})


def runs(spec):
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in run.WORKLOADS:
        for trace, declared in ((0, e2e), (1, layers)):
            printed = run_once(w, 1, trace, 1)
            expect({k: v["unit"] for k, v in printed.items()} == declared,
                   f"{w} --trace {trace}: printed names/units differ from "
                   f"BENCHMARK.json")
    first = run_once("traced_fleet", 2, 0, 1)
    again = run_once("traced_fleet", 2, 0, 1)
    for k in run.SIMULATED:
        expect(first.get(k) == again.get(k),
               f"simulated {k} differs between two runs of one seed")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declarations(spec)
    if "--run" in sys.argv[1:]:
        runs(spec)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
