#!/usr/bin/env python3
"""Regenerate perfbench/golden_digests.txt with the reference loop.

    python3 perfbench/make_golden.py [--seeds 0-99] [--workloads a,b]

Each (workload, seed) digest comes from one run of perfbench_driver with the
reference loop (SimFastPath skip_ahead and cache_decode_costs off), the
oracle the fast path must match bit for bit. Runs are serial. Rerun only
when a workload's definition or the simulated model changes on purpose; a
fast-path change must never need it.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402
from spread import seeds  # noqa: E402

HEADER = """\
# Reference digests: workload seed digest. Generated with the reference
# loop (skip_ahead and cache_decode_costs off) by perfbench/make_golden.py.
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--seeds", default="0-99")
    args = ap.parse_args()
    exe = run.build()
    fresh = {}
    for w in args.workloads.split(","):
        for s in seeds(args.seeds):
            out = subprocess.run([exe, "--workload", w, "--seed", str(s),
                                  "--reference-digest"],
                                 stdout=subprocess.PIPE, text=True,
                                 check=True)
            fresh[(w, s)] = out.stdout.strip()

    lines = {}
    if os.path.exists(run.GOLDEN):
        with open(run.GOLDEN) as f:
            for ln in f:
                if ln.strip() and not ln.startswith("#"):
                    w, s, _ = ln.split()
                    lines[(w, int(s))] = ln.strip()
    lines.update(fresh)
    order = {w: i for i, w in enumerate(run.WORKLOADS)}
    with open(run.GOLDEN, "w") as f:
        f.write(HEADER)
        for key in sorted(lines, key=lambda k: (order.get(k[0], 99), k[1])):
            f.write(lines[key] + "\n")
    print("wrote %d digests to %s" % (len(lines), run.GOLDEN))
    return 0


if __name__ == "__main__":
    sys.exit(main())
