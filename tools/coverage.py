#!/usr/bin/env python3
"""Per-file line coverage of src/, checked against recorded floors.

Build a separate tree with gcc's --coverage instrumentation, run the test
suite in it, then run this script from anywhere in the checkout:

  cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS=--coverage
  cmake --build build-cov -j4
  ctest --test-dir build-cov -j4
  python3 tools/coverage.py

It runs gcov over every .gcda file the test run left in build-cov/, prints
covered / instrumented lines for each instrumented file under src/ (a
header's lines count once, covered if any translation unit ran them), and
exits 1 when a file named in tools/coverage_floors.json is below its
floor, in whole percent, or was never instrumented, and when an
instrumented file has no floor there (a new file must be given one).
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / "build-cov"
FLOORS = ROOT / "tools" / "coverage_floors.json"


def fail(message):
    print(f"coverage: {message}", file=sys.stderr)
    sys.exit(1)


def gcov_lines(gcda):
    """{source path: {line: hit}} for one object file's counters."""
    out = subprocess.run(["gcov", "--json-format", "--stdout", gcda.name],
                         cwd=gcda.parent, capture_output=True, text=True)
    if out.returncode:
        fail(f"gcov failed on {gcda}:\n{out.stderr}")
    found = {}
    for doc in out.stdout.splitlines():
        for f in json.loads(doc)["files"]:
            path = Path(f["file"])
            if not path.is_absolute():
                path = gcda.parent / path
            # A template's lines are listed once per instantiation.
            hits = found.setdefault(path.resolve(), {})
            for ln in f["lines"]:
                n = ln["line_number"]
                hits[n] = hits.get(n, False) or ln["count"] > 0
    return found


def main():
    gcdas = sorted(BUILD.rglob("*.gcda"))
    if not gcdas:
        fail(f"no .gcda files under {BUILD}: build with --coverage and run "
             "ctest there first")
    lines = {}  # src-relative path -> {line: hit in any translation unit}
    for gcda in gcdas:
        for path, hits in gcov_lines(gcda).items():
            if not hits or not path.is_relative_to(SRC):
                continue
            merged = lines.setdefault(path.relative_to(ROOT).as_posix(), {})
            for ln, hit in hits.items():
                merged[ln] = merged.get(ln, False) or hit

    floors = json.loads(FLOORS.read_text())
    failed = []
    print(f"{'file':44} {'lines':>13} {'cover':>7} {'floor':>6}")
    for name in sorted(lines):
        total = len(lines[name])
        hit = sum(lines[name].values())
        pct = 100.0 * hit / total
        floor = floors.get(name)
        mark = ""
        if floor is None:
            failed.append(name)
            mark = "  NO FLOOR"
        elif pct < floor:
            failed.append(name)
            mark = "  BELOW FLOOR"
        print(f"{name:44} {hit:6}/{total:<6} {pct:6.1f}% "
              f"{'' if floor is None else floor:>6}{mark}")
    missing = sorted(set(floors) - set(lines))
    for name in missing:
        print(f"{name:44} {'not instrumented':>20}  BELOW FLOOR")
    total = sum(len(v) for v in lines.values())
    hit = sum(sum(v.values()) for v in lines.values())
    print(f"{'src/ total':44} {hit:6}/{total:<6} "
          f"{100.0 * hit / max(total, 1):6.1f}%")
    if failed or missing:
        fail(f"{len(failed) + len(missing)} file(s) below their floor or "
             "without one")


if __name__ == "__main__":
    main()
