#!/usr/bin/env python3
"""Builds sls-serve and the slsbench binary from source, then runs slsbench.

Usage (from the repository root):
    python3 slsbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Both builds go to $CARGO_TARGET_DIR (default: .bench_build under the current
directory). Cargo's output goes to stderr, so the benchmark's result stays the
last line of stdout.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "sls-serve", "--bin", "sls-serve"],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for build in builds:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *build],
            env=env,
            stdout=sys.stderr,
        )
        if done.returncode != 0:
            sys.exit(f"slsbench: build failed: {' '.join(build)}")
    release = os.path.join(target, "release")
    bench = os.path.join(release, "slsbench")
    serve = os.path.join(release, "sls-serve")
    os.execv(bench, [bench, "--serve-bin", serve, *sys.argv[1:]])


if __name__ == "__main__":
    main()
