#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Builds the library and the benchmark driver from source (Release, the
repository's own CMake flags) into the build directory -- $CARGO_TARGET_DIR
when set, else .bench_build -- then runs one workload. The last line of
standard output is the result object
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.

Every result, stamped with its provenance (source revision, build type,
compiler, nproc, seed, reps, run length), is also written under
.bench_out/, with the traced run's spans next to it. The exit code is the
driver's: non-zero when a simulated output differs from its reference
digest (golden_digests.txt), or when anything fails to build or run.

`--workload all` runs every workload with --trace 0 and prints each
end-to-end metric by name and unit; it exits non-zero if any digest
differs.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden_digests.txt")
WORKLOADS = ["prefix-churn", "elastic-observed"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
DRIVER_TIMEOUT_S = 175


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(REPO, ".bench_build"))


def build():
    """Configure once, then (incrementally) build perfbench_driver; build
    output goes to stderr so stdout stays the result stream."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "Makefile")):
        subprocess.run(["cmake", "-G", "Unix Makefiles", "-S", HERE, "-B",
                        out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench_driver",
                    "-j", jobs], stdout=sys.stderr, check=True, timeout=880)
    return os.path.join(out, "perfbench_driver")


def source_revision():
    """Git sha read from .git without running git (the benchmark may run
    outside a repository), plus a digest of the sources it builds."""
    sha = "none"
    head = os.path.join(REPO, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = os.path.join(REPO, ".git", name)
            if os.path.exists(path):
                with open(path) as f:
                    sha = f.read().strip()
            else:
                with open(os.path.join(REPO, ".git", "packed-refs")) as f:
                    for line in f:
                        if line.strip().endswith(" " + name):
                            sha = line.split()[0]
        else:
            sha = ref
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(REPO, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return sha, h.hexdigest()[:16]


def run_workload(exe, workload, seed, seconds, trace):
    """Run perfbench_driver once; returns (exit code, result dict or None)."""
    out_dir = os.path.join(REPO, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d" % (workload, seed,
                                                        trace))
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--golden", GOLDEN]
    if trace:
        cmd += ["--spans", stem + ".spans.jsonl"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    result, provenance = None, {}
    for ln in lines:
        try:
            obj = json.loads(ln)
        except ValueError:
            continue
        if isinstance(obj, dict) and set(obj) == RESULT_KEYS:
            result = obj
        elif isinstance(obj, dict) and "provenance" in obj:
            provenance = obj["provenance"]
    if result is None:
        return proc.returncode or 1, None
    sha, src = source_revision()
    provenance.update({"git_sha": sha, "source_digest": src})
    with open(stem + ".json", "w") as f:
        json.dump({"provenance": provenance, "result": result}, f, indent=1)
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        exe = build()
    except (subprocess.SubprocessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    if args.workload != "all":
        code, result = run_workload(exe, args.workload, args.seed,
                                    args.seconds, args.trace)
        if result is not None:
            print(json.dumps(result))
        return code

    worst = 0
    for w in WORKLOADS:
        code, result = run_workload(exe, w, args.seed, args.seconds, 0)
        worst = worst or code
        if result is None:
            print("%-18s FAILED (exit %d)" % (w, code))
            continue
        print("%-18s correct=%s attempted=%d failed=%d" % (
            w, result["correct"], result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            print("  %-32s %16.6g %s" % (name, m["value"], m["unit"]))
    return worst


if __name__ == "__main__":
    sys.exit(main())
