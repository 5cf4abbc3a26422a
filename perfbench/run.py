#!/usr/bin/env python3
"""Build and run the trust stack's serving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of the repository. The first form builds the
benchmark package (``perfbench/Cargo.toml``, offline, into
``$CARGO_TARGET_DIR`` or ``.bench_build``) and runs one workload; the
last line of its standard output is the JSON result. ``--smoke`` runs
every workload at small sizes, untraced and traced, and checks each
result line against ``BENCHMARK.json``.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
OUT = os.path.join(HERE, "out")
# One run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def target_dir():
    return os.path.join(os.getcwd(), os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark; returns the binary's path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def run(binary, args, capture=False):
    """Runs the benchmark binary; returns (exit code, stdout or None)."""
    cmd = [binary] + args + ["--out", OUT]
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE if capture else None, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3, None
    return done.returncode, done.stdout


def smoke(binary):
    """Every workload at small sizes, untraced and traced; checks the result lines."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
            code, out = run(binary, args, capture=True)
            label = f"{workload} trace={trace}"
            before = len(failures)
            if code != 0 or not out:
                failures.append(f"{label}: exit code {code}")
                continue
            result = json.loads(out.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            if got != expected[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected[trace]))}")
            print(f"{label}: {'ok' if len(failures) == before else 'FAILED'}", file=sys.stderr)
    for f in failures:
        print(f"smoke: {f}", file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    opts = parser.parse_args()
    if not opts.smoke and None in (opts.workload, opts.seed, opts.seconds, opts.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    if binary is None:
        return 2
    os.makedirs(OUT, exist_ok=True)
    if opts.smoke:
        return smoke(binary)
    args = ["--workload", opts.workload, "--seed", str(opts.seed), "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    code, _ = run(binary, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
