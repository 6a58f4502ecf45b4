#!/usr/bin/env python3
"""Fail when a change re-pins a digest suite without naming the file.

Usage: ci/pins_named.py BASE HEAD

Every file under `tests/pins/` that HEAD adds, changes or deletes
relative to its merge base with BASE must have its file name (for
example `engine.pins`) in a line that HEAD adds to `CHANGES.md`. Lists
the unnamed files and exits 1 if there are any; prints the named ones
otherwise.
"""

import os
import re
import subprocess
import sys

PINS = "tests/pins/"


def git(*args):
    return subprocess.run(
        ("git",) + args, check=True, capture_output=True, text=True
    ).stdout


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    span = f"{argv[1]}...{argv[2]}"
    changed = git("diff", "--no-renames", "--name-only", span, "--", PINS).split()
    added = [
        line[1:]
        for line in git("diff", "--unified=0", span, "--", "CHANGES.md").splitlines()
        if line.startswith("+") and not line.startswith("+++")
    ]
    # `engine.pins` or `tests/pins/engine.pins`, not `x_engine.pins`.
    def named(path):
        name = re.compile(r"(?<![\w.-])" + re.escape(os.path.basename(path)))
        return any(name.search(line) for line in added)

    unnamed = [path for path in changed if not named(path)]
    for path in unnamed:
        print(f"{path}: re-pinned, but no line this change adds to CHANGES.md names it")
    if unnamed:
        sys.exit(1)
    for path in changed:
        print(f"{path}: re-pinned and named in CHANGES.md")


if __name__ == "__main__":
    main(sys.argv)
