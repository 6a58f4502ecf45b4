#!/usr/bin/env python3
"""Build and run the Elk benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 10 --trace 0

Builds the `perfbench` package (release, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`) and runs it with the given
arguments. The benchmark's last stdout line is its JSON result. Exits
non-zero without a result when the build fails, for example when the
workspace crates are not next to this directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
