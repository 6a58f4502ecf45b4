#!/usr/bin/env python3
"""Net change in non-test Rust lines between two commits.

Usage: ci/net_lines.py BASE [HEAD]

Prints HEAD - BASE (HEAD defaults to the checked-out commit) as a
signed integer. The count covers every `.rs` file under `crates/`,
`shims/` and `src/`:

- blank and comment lines count like any other line;
- files under a `tests/` or `benches/` directory are left out;
- each `#[cfg(test)]` item is left out, from its attribute line to the
  line that ends the item (its closing brace, or its `;`).

Strings, character literals and comments are masked before braces are
matched, so a `{` inside a literal does not end an item early.
"""

import re
import subprocess
import sys

ROOTS = ("crates/", "shims/", "src/")
CFG_TEST = re.compile(r"^[ \t]*#\[cfg\(test\)\]", re.M)


def git(*args):
    return subprocess.run(
        ("git",) + args, check=True, capture_output=True, text=True
    ).stdout


def counted(path):
    parts = path.split("/")
    return (
        path.endswith(".rs")
        and path.startswith(ROOTS)
        and "tests" not in parts[:-1]
        and "benches" not in parts[:-1]
    )


def mask(text):
    """`text` with string, char and comment bodies blanked (newlines kept)."""
    out = list(text)
    i, n = 0, len(text)

    def blank(a, b):
        for j in range(a, b):
            if out[j] != "\n":
                out[j] = " "

    while i < n:
        c = text[i]
        prev = text[i - 1] if i else " "
        if text.startswith("//", i):
            end = text.find("\n", i)
            end = n if end < 0 else end
            blank(i, end)
            i = end
        elif text.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            blank(i, j)
            i = j
        elif c == "r" and not (prev.isalnum() or prev == "_"):
            m = re.match(r'r(#*)"', text[i:])
            if not m:
                i += 1
                continue
            close = '"' + m.group(1)
            end = text.find(close, i + m.end())
            end = n if end < 0 else end + len(close)
            blank(i, end)
            i = end
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            blank(i, j + 1)
            i = j + 1
        elif c == "'":
            if text.startswith("\\", i + 1):
                end = text.find("'", i + 2)
                blank(i, end + 1)
                i = end + 1
            elif i + 2 < n and text[i + 2] == "'":
                blank(i, i + 3)
                i += 3
            else:
                i += 1  # a lifetime
        else:
            i += 1
    return "".join(out)


def item_end(code, start):
    """Offset just past the item that begins at `start` in masked `code`."""
    depth = 0
    for j in range(start, len(code)):
        c = code[j]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return j + 1
        elif c == ";" and depth == 0:
            return j + 1
    return len(code)


def non_test_lines(text):
    code = mask(text)
    lines = text.count("\n") + (0 if text.endswith("\n") or not text else 1)
    skipped, pos = 0, 0
    for m in CFG_TEST.finditer(code):
        if m.start() < pos:
            continue  # nested inside an item already left out
        end = item_end(code, m.end())
        first = code.count("\n", 0, m.start())
        last = code.count("\n", 0, end)
        skipped += last - first + 1
        pos = end
    return lines - skipped


def total(rev):
    files = git("ls-tree", "-r", "--name-only", rev, "--", *ROOTS).split()
    return sum(
        non_test_lines(git("show", f"{rev}:{path}"))
        for path in files
        if counted(path)
    )


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__.strip().splitlines()[2])
    base = argv[1]
    head = argv[2] if len(argv) == 3 else "HEAD"
    print(f"{total(head) - total(base):+d}")


if __name__ == "__main__":
    main(sys.argv)
