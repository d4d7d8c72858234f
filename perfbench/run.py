#!/usr/bin/env python3
"""End-to-end replay and solve benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the repository's libraries plus the e2ebench binary)
into .bench_build, derives the workload's inputs from --seed, runs
e2ebench, checks its output, and prints one JSON object as the last line of
standard output: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list. Exits non-zero, without printing a result, when the
build or an output check fails. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import signal
import subprocess
import sys

WORKLOADS = ("paper-chaos", "fleet-sharded", "solve-sweep", "paper-jsqd")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
GRID_POINTS = 2400
REPLICA_SEEDS = 1024
CHILD_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def derive(seed, label):
    """A 63-bit value derived from the workload seed for one input."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def lambda_grid(seed):
    """Stratified lambda' fractions in (0.02, 0.98): one jittered point per
    stratum, so every seed covers light to heavy load alike."""
    rng = random.Random(derive(seed, "grid"))
    return [0.02 + 0.96 * (k + rng.random()) / GRID_POINTS for k in range(GRID_POINTS)]


def build(root, build_dir):
    """Configures and builds e2ebench; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "e2ebench", "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if proc.returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.stderr.write(proc.stdout[-4000:])
            return None
    return os.path.join(build_dir, "e2ebench")


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def validate(result, wanted):
    """Problems with e2ebench's result against the declared metrics."""
    problems = []
    metrics = result.get("metrics", {})
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        problems.append(f"metric set differs: missing {missing}, unexpected {extra}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if not NAME_RE.match(m["name"]):
            problems.append(f"bad metric name {m['name']!r}")
        if got.get("unit") != m["unit"] or not UNIT_RE.match(got.get("unit", "")):
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, declared {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r} is not a finite number")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--horizon-scale", type=float, default=1.0,
                    help="shorten the replay horizons (the benchmark's own tests)")
    args = ap.parse_args()
    # A SIGTERM unwinds like an error, so the build and e2ebench are
    # stopped and waited for on every way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(4))

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    golden = os.path.join(root, "tests", "golden", "table1.csv")
    try:
        spec = load_spec(root)
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    if not os.path.isfile(golden):
        log(f"missing {golden}")
        return 2
    exe = build(root, build_dir)
    if exe is None:
        return 2

    inputs = os.path.join(build_dir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    grid_path = os.path.join(inputs, f"grid-{args.seed}.txt")
    with open(grid_path, "w", encoding="utf-8") as f:
        f.write("\n".join(repr(x) for x in lambda_grid(args.seed)) + "\n")

    seeds_path = os.path.join(inputs, f"seeds-{args.seed}.txt")
    with open(seeds_path, "w", encoding="utf-8") as f:
        for k in range(REPLICA_SEEDS):
            f.write(f"{derive(args.seed, f'trace/{k}')} {derive(args.seed, f'chaos/{k}')}\n")

    cmd = [exe, "--workload", args.workload, "--trace", str(args.trace),
           "--seconds", repr(args.seconds), "--seeds", seeds_path,
           "--grid", grid_path, "--golden", golden,
           "--horizon-scale", repr(args.horizon_scale)]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"e2ebench exceeded {CHILD_TIMEOUT_S} s")
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"e2ebench printed no result (exit {proc.returncode})")
        return 3

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    problems = [f"check failed: {c}" for c in result.get("failed_checks", [])]
    if proc.returncode != 0 and not problems:
        problems.append(f"e2ebench exited {proc.returncode}")
    problems += validate(result, wanted)
    log(f"{args.workload} seed {args.seed}: {result.get('checks', 0)} output checks, "
        f"info {json.dumps(result.get('info', {}))}")
    if problems:
        for p in problems:
            log(p)
        return 1
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
