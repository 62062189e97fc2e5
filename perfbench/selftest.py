#!/usr/bin/env python3
"""Self-test of the benchmark's correctness check.

    python3 perfbench/selftest.py

On the cheapest workload and a committed seed, shows that:
  1. an unmodified run matches its committed digest (exit 0, correct);
  2. flipping one bit of one simulated finish time (--perturb-bit)
     fails the check (exit 1, "correct": false);
  3. a committed digest with one bit flipped fails the check too.
Exits non-zero if any of these does not hold.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

WORKLOAD = "elastic-observed"


def committed_seed():
    with open(run.GOLDEN) as f:
        for ln in f:
            parts = ln.split()
            if len(parts) == 3 and parts[0] == WORKLOAD:
                return int(parts[1]), parts[2]
    raise SystemExit("no committed %s digest in %s" % (WORKLOAD, run.GOLDEN))


def drive(exe, seed, golden, *extra):
    proc = subprocess.run(
        [exe, "--workload", WORKLOAD, "--seed", str(seed), "--seconds",
         "0.1", "--trace", "0", "--golden", golden] +
        list(extra), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=run.DRIVER_TIMEOUT_S)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, result["correct"]


def main():
    exe = run.build()
    seed, digest = committed_seed()
    out_dir = os.path.join(run.REPO, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tampered = os.path.join(out_dir, "golden_tampered.txt")
    flipped = "%016x" % (int(digest, 16) ^ 1)
    with open(tampered, "w") as f:
        f.write("%s %d %s\n" % (WORKLOAD, seed, flipped))

    checks = [
        ("unmodified run matches", drive(exe, seed, run.GOLDEN), (0, True)),
        ("one-bit output perturbation fails",
         drive(exe, seed, run.GOLDEN, "--perturb-bit"), (1, False)),
        ("one-bit golden perturbation fails",
         drive(exe, seed, tampered), (1, False)),
    ]
    ok = True
    for name, got, want in checks:
        passed = got == want
        ok = ok and passed
        print("%-36s exit=%d correct=%s  %s" % (
            name, got[0], got[1], "PASS" if passed else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
