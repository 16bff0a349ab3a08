#!/usr/bin/env python3
"""Build and run the rcr end-to-end QoS-serving benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload mix_tcp --seed 1 --seconds 45 --trace 0

Builds the `rcr-perfbench` package in this directory (release profile,
offline, into $CARGO_TARGET_DIR or `.bench_build/`), runs one workload and
passes its output through. The last stdout line is the JSON result
`{"correct", "attempted", "failed", "metrics"}`. The exit code is 0 only
when the run completed and every output check passed.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Digest of the sources the benchmark builds (a checkout may not be a
    git repository, so this stands in for the revision)."""
    h = hashlib.sha256()
    files = sorted(
        p
        for base in (ROOT / "crates", HERE / "src")
        for p in base.rglob("*")
        if p.is_file() and (p.suffix == ".rs" or p.name == "Cargo.toml")
    )
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 120:
        fail("--seconds must be between 1 and 120", 2)
    if args.seed < 0:
        fail("--seed must be non-negative", 2)

    if not (ROOT / "crates" / "serve" / "Cargo.toml").is_file():
        fail(f"no rcr workspace around {HERE} (crates/serve is missing)", 2)

    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}", 3)

    rev = command_output(["git", "rev-parse", "--short", "HEAD"])
    env["PERFBENCH_SOURCE"] = f"{rev or 'no-git'}/{source_digest()}"
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"]) or "unknown"

    binary = target / "release" / "rcr-perfbench"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(ROOT / ".bench_out")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was killed", 4)
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0:
        # The binary's last line still says what failed; keep it visible
        # but off stdout, so no result line is printed.
        if lines:
            print(lines[-1], file=sys.stderr)
        fail(f"benchmark exited with code {run.returncode}", 5)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("benchmark printed no result line", 6)
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        fail(f"malformed or incorrect result: {lines[-1][:200]}", 6)
    print(lines[-1])


if __name__ == "__main__":
    main()
