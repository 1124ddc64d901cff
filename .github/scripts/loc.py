#!/usr/bin/env python3
"""Count the non-test lines of Rust sources.

Usage: loc.py PATH [PATH ...]

Each PATH is a `.rs` file or a directory searched recursively for them.
For every file it prints two counts over the lines before the file's
first `#[cfg(test)]` (the whole file if it has none): all lines, and
code lines, which are neither blank nor `//` comments (doc comments
included). A total row follows.
"""

import sys
from pathlib import Path


def count(path):
    lines = code = 0
    for line in path.read_text().splitlines():
        text = line.strip()
        if text.startswith("#[cfg(test)]"):
            break
        lines += 1
        if text and not text.startswith("//"):
            code += 1
    return lines, code


def main(args):
    if not args:
        sys.exit(__doc__)
    files = []
    for arg in args:
        p = Path(arg)
        files += sorted(p.rglob("*.rs")) if p.is_dir() else [p]
    width = max(len(str(f)) for f in files + [Path("total")])
    print(f"{'file':<{width}} {'lines':>7} {'code':>7}")
    total_lines = total_code = 0
    for f in files:
        lines, code = count(f)
        total_lines += lines
        total_code += code
        print(f"{str(f):<{width}} {lines:>7} {code:>7}")
    print(f"{'total':<{width}} {total_lines:>7} {total_code:>7}")


if __name__ == "__main__":
    main(sys.argv[1:])
