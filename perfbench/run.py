#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload fig2_all --seed 42 --seconds 20 --trace 0

Builds `perfbench` and `perfbench-stages` in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), one `cargo build -p` each so
the stage prober's `bench-internals` feature never reaches the
`perfbench` binary, then runs `perfbench` with the given arguments. The
last line of standard output is the JSON result. Exits non-zero without
a result when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    for package in ("perfbench", "perfbench-stages"):
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", manifest, "-p", package],
            env=env, stdout=sys.stderr,
        )
        if build.returncode != 0:
            print(f"run.py: building {package} failed", file=sys.stderr)
            return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    out = os.path.join(target, "perfbench-out")
    bench = subprocess.run([exe, *sys.argv[1:], "--root", ROOT, "--out", out])
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
