#!/usr/bin/env python3
"""The benchmark's own test.

Usage, from the root of the repository:

    python3 perfbench/selfcheck.py [--seconds S]

For every workload in BENCHMARK.json it checks that

  - a run on the default seed and a run on the held-out seed (see
    perfbench/README.md) both pass every correctness gate;
  - two runs on the default seed give identical values for every metric
    that must repeat exactly (quality of result, placement search counts,
    sink output sizes), untraced and traced;
  - the untraced run prints exactly the end-to-end metrics and the traced
    run exactly the per-layer metrics that BENCHMARK.json declares, with
    the declared units.

Exits 0 when every check holds and 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

EXACT_END_TO_END = ["fmax_mhz_gmean", "luts", "dsps", "placed_bbox_slots"]
EXACT_PER_LAYER = ["place.sat_probes", "place.precheck_probes",
                   "place.conflicts", "sink.vcd_bytes", "sink.toggle_bins"]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"selfcheck: {' '.join(cmd[1:])} exited "
                         f"{out.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=2)
    seconds = ap.parse_args().seconds
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    exact = {False: EXACT_END_TO_END, True: EXACT_PER_LAYER}

    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (False, True):
            mode = "traced" if trace else "untraced"
            first = run(name, DEFAULT_SEED, seconds, trace)
            second = run(name, DEFAULT_SEED, seconds, trace)
            held = run(name, HELD_OUT_SEED, seconds, trace)
            for label, r in (("seed %d" % DEFAULT_SEED, first),
                             ("seed %d (repeat)" % DEFAULT_SEED, second),
                             ("held-out seed %d" % HELD_OUT_SEED, held)):
                if not r["correct"] or r["failed"] != 0:
                    problems.append(f"{name} {mode} {label}: "
                                    f"{r['failed']} failed check(s)")
            got = {k: v["unit"] for k, v in first["metrics"].items()}
            if got != declared[trace]:
                diff = sorted(set(got.items()) ^ set(declared[trace].items()))
                problems.append(f"{name} {mode}: metrics or units differ "
                                f"from BENCHMARK.json: {diff}")
            for metric in exact[trace]:
                a = first["metrics"].get(metric, {}).get("value")
                b = second["metrics"].get(metric, {}).get("value")
                if a is None or a != b:
                    problems.append(f"{name} {mode}: {metric} not "
                                    f"deterministic ({a} vs {b})")
            print(f"{name} {mode}: checked", flush=True)

    for p in problems:
        print("FAIL:", p)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
