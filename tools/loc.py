#!/usr/bin/env python3
"""Count the non-comment source lines of Rust crates.

A counted line is non-blank and does not start with `//` (so `///` and
`//!` doc comments are skipped too). Every item under `#[cfg(test)]` is
dropped: the attribute, the item's header and its body, found by brace
matching from the first `{` after the attribute (an item that ends with
`;` before any brace, such as `mod tests;`, ends there).

Usage:

    python3 tools/loc.py [PATH ...]

Each PATH is a directory (its `*.rs` files, recursively) or one `.rs`
file; the default is `crates/*/src`. Prints one line per file, a total
per PATH, and a grand total when more than one PATH is given.
"""

import os
import sys


def strip_strings(line):
    """`line` with string and char literal contents blanked, so braces
    inside literals do not count."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == '"':
            j = i + 1
            while j < n and line[j] != '"':
                j += 2 if line[j] == "\\" else 1
            out.append('""')
            i = j + 1
        elif c == "'" and i + 2 < n and (line[i + 2] == "'" or line[i + 1] == "\\"):
            j = line.find("'", i + 2)
            out.append("' '")
            i = (j if j > 0 else n) + 1
        elif line.startswith("//", i):
            break
        else:
            out.append(c)
            i += 1
    return "".join(out)


def count_file(path):
    """Counted lines of one Rust file."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    count = 0
    i = 0
    while i < len(lines):
        stripped = lines[i].strip()
        if stripped.startswith("#[cfg(test)]"):
            i = skip_item(lines, i)
            continue
        if stripped and not stripped.startswith("//"):
            count += 1
        i += 1
    return count


def skip_item(lines, start):
    """Index of the first line after the `#[cfg(test)]` item at `start`."""
    depth = 0
    opened = False
    rest = lines[start].strip()[len("#[cfg(test)]"):]
    i = start
    while i < len(lines):
        code = strip_strings(rest if i == start else lines[i])
        for c in code:
            if c == "{":
                depth += 1
                opened = True
            elif c == "}":
                depth -= 1
            elif c == ";" and not opened:
                return i + 1
        if opened and depth == 0:
            return i + 1
        i += 1
    return i


def rust_files(path):
    if os.path.isfile(path):
        return [path]
    found = []
    for root, dirs, files in os.walk(path):
        dirs.sort()
        found.extend(os.path.join(root, f) for f in sorted(files) if f.endswith(".rs"))
    return found


def main(argv):
    paths = argv or sorted(
        os.path.join("crates", c, "src")
        for c in os.listdir("crates")
        if os.path.isdir(os.path.join("crates", c, "src"))
    )
    grand = 0
    for path in paths:
        total = 0
        for f in rust_files(path):
            n = count_file(f)
            total += n
            print(f"{n:7d}  {f}")
        print(f"{total:7d}  {path} (total)")
        grand += total
    if len(paths) > 1:
        print(f"{grand:7d}  all")


if __name__ == "__main__":
    main(sys.argv[1:])
