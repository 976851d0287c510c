#!/usr/bin/env python3
"""Benchmark entry point for the greem TreePM stack.

Builds `perfbench/` twice (plain, and with span recording for the traced
run), runs one workload, and prints the result as the last line of
stdout:

    python3 perfbench/run.py --workload pp_clustered --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones. The line before the result holds the host facts,
the checks and the exact work counts of the run. `--self-test` runs
every workload twice and checks that the exact counts repeat bit for
bit. See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("pp_clustered", "pm_uniform", "ranks_cosmo")
# Per run, the build may take this long; a binary run far less.
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
# Per-layer counts that must repeat bit for bit between runs.
EXACT = (
    "kernels.interactions_per_step",
    "core.replay_ratio",
    "mpisim.messages_per_step",
    "mpisim.bytes_per_step",
    "mpisim.modeled_s_per_step",
)


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(traced):
    """Build the benchmark binary; returns its path."""
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if traced:
        target = os.path.join(target, "traced")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
        "--target-dir", target,
    ]
    if traced:
        cmd += ["--features", "record"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed (exit {done.returncode})")
    return os.path.join(target, "release", "greem-perfbench")


def run_binary(binary, workload, seed, seconds, layers):
    """Run one workload; returns (its JSON line, peak RSS in MB)."""
    env = dict(os.environ)
    # Serial workloads use every core through rayon (unset, the pool
    # sizes itself to the cores the process may use); ranks_cosmo puts one
    # rank thread per core and keeps rayon to the calling thread.
    env.pop("RAYON_NUM_THREADS", None)
    if workload == "ranks_cosmo":
        env["RAYON_NUM_THREADS"] = "1"
    # One glibc malloc arena: with per-thread arenas the peak RSS depends
    # on which rayon worker happened to allocate what (+-10 % run to run).
    env["MALLOC_ARENA_MAX"] = "1"
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if layers:
        cmd.append("--layers")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode()
        # wait4 gives this child's own resource usage: its peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        fail(f"{workload} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail(f"{workload} printed nothing")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def expected_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


def measure(workload, seed, seconds, trace):
    """One benchmark run; returns (detail line, result)."""
    # Both builds on every call, so the first run of a checkout builds them.
    plain = build(traced=False)
    traced = build(traced=True)
    detail, rss = run_binary(traced if trace else plain, workload, seed, seconds, layers=trace)
    result = detail.pop("result")
    if trace:
        return detail, order(result, expected_metrics("per_layer"))
    result["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return detail, order(result, expected_metrics("end_to_end"))


def order(result, names):
    """Keep exactly the listed metrics, in the listed order."""
    metrics = result["metrics"]
    missing = [n for n in names if n not in metrics]
    extra = [n for n in metrics if n not in names]
    if missing or extra:
        fail(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    for n in names:
        v = metrics[n]["value"]
        if not isinstance(v, (int, float)):
            fail(f"metric {n} has no value")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: metrics[n] for n in names},
    }


def self_test(seconds):
    """Two traced runs of each workload must repeat the exact counts."""
    ok = True
    for w in WORKLOADS:
        runs = [measure(w, 1, seconds, trace=True)[1]["metrics"] for _ in range(2)]
        for name in EXACT:
            a, b = (r[name]["value"] for r in runs)
            same = a == b
            ok &= same
            print(f"{w:13} {name:32} {a!r:>24} {b!r:>24} {'same' if same else 'DIFFERENT'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        sys.exit(0 if self_test(a.seconds or 4) else 1)
    if a.workload is None or a.seed is None or a.seconds is None or a.seconds < 1:
        ap.error("--workload, --seed and --seconds (>= 1) are required")
    detail, result = measure(a.workload, a.seed, a.seconds, bool(a.trace))
    print(json.dumps(detail))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
