#!/usr/bin/env python3
"""Reachability gate: every src/ header must be reached from a program.

Usage:
    check_reachability.py

Checks the checkout the script lives in. Roots are every file under
bench/, examples/ and perfbench/. The walk follows `#include "..."`
edges; a name resolves against the including file's directory first,
then src/. Reaching a header also reaches its same-named .cpp, whose
includes are followed in turn. Tests are not roots: a module that only
its own unit tests include is code no trial runs. The gate names every
src/ header the walk never reaches and exits 1; it exits 0 when there is
none. Stdlib only.
"""

import argparse
import pathlib
import re
import sys

ROOT_DIRS = ("bench", "examples", "perfbench")
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def resolve(name, including, src):
    """The file `#include "name"` in `including` refers to, or None."""
    for base in (including.parent, src):
        candidate = (base / name).resolve()
        if candidate.is_file():
            return candidate
    return None


def reached(repo):
    """Every file reachable from the roots along include edges."""
    src = repo / "src"
    stack = [path.resolve() for top in ROOT_DIRS
             for path in sorted((repo / top).rglob("*")) if path.is_file()]
    seen = set(stack)
    while stack:
        path = stack.pop()
        text = path.read_text(encoding="utf-8", errors="replace")
        targets = [resolve(name, path, src) for name in INCLUDE.findall(text)]
        if path.suffix == ".hpp":
            targets.append(path.with_suffix(".cpp"))
        for target in targets:
            if target is not None and target.is_file() and target not in seen:
                seen.add(target)
                stack.append(target)
    return seen


def unreached_headers(repo):
    """src/-relative paths of the headers no root reaches, sorted."""
    repo = repo.resolve()
    src = repo / "src"
    found = reached(repo)
    return sorted(header.relative_to(src).as_posix()
                  for header in src.rglob("*.hpp")
                  if header.resolve() not in found)


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    repo = pathlib.Path(__file__).parent.parent
    unreached = unreached_headers(repo)
    for header in unreached:
        print(f"UNREACHED: src/{header}", file=sys.stderr)
    if unreached:
        print("src/ headers must be reached from a bench, example or "
              "perfbench program: delete them or run them from one",
              file=sys.stderr)
        return 1
    print("OK: every src/ header is reached from bench/, examples/ or "
          "perfbench/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
