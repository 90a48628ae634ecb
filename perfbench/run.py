#!/usr/bin/env python3
"""Build and run the RATest-rs wall-clock benchmark.

    python3 perfbench/run.py --workload <course-pool|tpch-agg|serve-semester> \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR, default `.bench_build`, then runs it from the
checkout root. The benchmark's own output passes through; its last line is the
result object. Build output goes to standard error. Exits non-zero, without a
result line, when the build or any output check fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_timeout(argv):
    """Seconds after which a run is a hang: the benchmark stops at its
    deadline plus its set-up and the pass or cycle in flight."""
    seconds = 10
    for flag, value in zip(argv, argv[1:]):
        if flag == "--seconds" and value.isdigit():
            seconds = int(value)
    return 3 * seconds + 80


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, timeout=run_timeout(sys.argv[1:]))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
