#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run builds perfbench/ together with the checkout's library
sources into .bench_build/perfbench (CMake, Release); later runs rebuild
only what changed. The run then executes the decorator test and the
harness. The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json under --trace 0 and every
per-layer metric under --trace 1. The line before it is the host/config
block. Details (sample counts, per-layer-name rows, host-vs-model join,
failed checks) and, with --trace 1, a single-step Chrome trace are
written to .bench_out/.

Quality and model outputs must repeat exactly for one seed: each run
stores them under .bench_out/repeat/ and a later run of the same
workload, seed and sources that disagrees counts as failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("dropback_sparse", "dense_sgd_gemm", "cosim_replay",
             "tenants_prune_ckpt")
HARNESS_TIMEOUT_S = 170
# Sample counts copied from the details into the host/config line.
COUNTS = ("steps", "rounds", "replays", "step_samples",
          "step_samples_beyond_p90", "traced_steps")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def source_digest(root):
    """SHA-256 over the library sources, build file and benchmark."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if "__pycache__" in f:
                continue
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_revision(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None   # an exported checkout: the source digest stands in
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build(root):
    bench_dir = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(os.cpu_count() or 1), "--target", "perfbench_harness",
                  "perfbench_decorator_test"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)
    return build_dir


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def repeat_check(out_dir, args, digest, repeat):
    """Compare this run's deterministic outputs with an earlier run of the
    same workload, seed and sources. Returns False on a mismatch."""
    rdir = os.path.join(out_dir, "repeat")
    os.makedirs(rdir, exist_ok=True)
    path = os.path.join(rdir, "%s_s%d.json" % (args.workload, args.seed))
    record = {"digest": digest, "repeat": repeat}
    if os.path.exists(path):
        with open(path) as f:
            prev = json.load(f)
        if prev.get("digest") == digest:
            return prev["repeat"] == repeat
    with open(path, "w") as f:
        json.dump(record, f)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    for need in ("CMakeLists.txt", "src", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, need)):
            log("run from the root of a checkout: no %s here" % need)
            sys.exit(1)

    t0 = time.monotonic()
    build_dir = build(root)
    log("build ready in %.1f s" % (time.monotonic() - t0))

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    digest = source_digest(root)
    rev = git_revision(root)
    revision = ("git:%s " % rev if rev else "") + "src-sha256:" + digest

    failed_checks = []
    test = subprocess.run([os.path.join(build_dir, "perfbench_decorator_test"),
                           "--gtest_brief=1"],
                          stdout=sys.stderr, stderr=sys.stderr,
                          timeout=HARNESS_TIMEOUT_S)
    if test.returncode != 0:
        failed_checks.append("decorator test failed")

    cmd = [os.path.join(build_dir, "perfbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--revision", revision]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness exceeded %d s" % HARNESS_TIMEOUT_S)
        sys.exit(1)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log("harness failed with exit code %d" % run.returncode)
        sys.exit(1)
    result = json.loads(lines[-1])

    want = expected_metrics(root, args.trace)
    if sorted(result["metrics"]) != sorted(want):
        log("harness metrics do not match BENCHMARK.json: %s" %
            sorted(set(want) ^ set(result["metrics"])))
        sys.exit(1)

    tag = "%s_s%d_t%d_" % (args.workload, args.seed, args.trace)
    with open(os.path.join(out_dir, tag + "details.json")) as f:
        details = json.load(f)
    for name in os.listdir(out_dir):
        if name.startswith(tag) and name.endswith(".jsonl"):
            os.remove(os.path.join(out_dir, name))
    if not repeat_check(out_dir, args, digest, details["repeat"]):
        failed_checks.append("quality/model outputs differ from an earlier "
                             "run of the same seed")

    for what in failed_checks:
        log("check failed: " + what)
        result["failed"] += 1
    result["correct"] = result["failed"] == 0
    details["failures"] = details.get("failures", []) + failed_checks
    with open(os.path.join(out_dir, tag + "details.json"), "w") as f:
        json.dump(details, f, indent=1)

    host = dict(details["host"])
    host["backends"] = {b["layer"]: b["backend"]
                        for b in details.get("backends", [])
                        if b["backend"] != "none"}
    host["samples"] = {k: details[k] for k in COUNTS if k in details}
    print(json.dumps({"host": host}))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
