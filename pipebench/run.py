#!/usr/bin/env python3
"""Build the pipeline benchmark from source, then run it.

Usage, from the root of the repository:

    python3 pipebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (pipebench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR, or into .bench_build under the working directory
when that is unset. Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print(f"pipebench: build failed (exit {build.returncode})", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "keddah-pipebench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
