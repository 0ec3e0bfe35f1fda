#!/usr/bin/env python3
"""Build and run the CloudyBench host-performance benchmark.

    python3 perfbench/run.py --workload oltp-rw-spill [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The benchmark package is built from source
in release mode into $CARGO_TARGET_DIR (default .bench_build); build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
A traced run (--trace 1) also writes its host-time spans as a Chrome trace
to <target dir>/perfbench/trace-<workload>-seed<seed>.json.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def flag(args, name, default):
    """Value following `name` in `args`, or `default`."""
    for i, arg in enumerate(args[:-1]):
        if arg == name:
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print(
            f"perfbench: no CloudyBench sources under {ROOT}/crates; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(ROOT, "perfbench", "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    if flag(args, "--trace", "0") == "1" and "--trace-out" not in args:
        name = f"trace-{flag(args, '--workload', 'none')}-seed{flag(args, '--seed', 'default')}.json"
        args += ["--trace-out", os.path.join(target, "perfbench", name)]
    binary = os.path.join(target, "release", "cb-perfbench")
    return subprocess.run([binary] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
