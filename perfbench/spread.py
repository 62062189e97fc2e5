#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10]
                                [--seconds S]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for every metric its median and the distance between the first
and third quartiles (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound from BENCHMARK.json. A spread at or
above a third of the bound is flagged; setup_s is exempt from the spread
rule but reported. Exits non-zero if any run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    failed = False
    for w in args.workloads.split(","):
        values = {}
        for s in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(s), "--seconds",
                   str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  stderr=subprocess.DEVNULL, cwd=REPO)
            last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
            res = json.loads(last[0])
            if proc.returncode != 0 or not res.get("correct"):
                print("%s seed %d: FAILED (exit %d)" % (w, s,
                                                        proc.returncode))
                failed = True
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s (%s seeds)" % (w, args.seeds))
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) < 2 or med == 0:
                print("  %-32s median %-14.6g n=%d" % (name, med, len(vals)))
                continue
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / abs(med)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and \
                    spread >= bound / 3:
                flag = "  <-- >= bound/3"
            print("  %-32s median %-14.6g iqr/med %.4f  bound %s%s" % (
                name, med, spread, bound, flag))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
