#!/usr/bin/env python3
"""Checks every recorded perfbench outcome digest.

Runs `xlink_perfbench --workload W --seed S --digest-only` for every
workload and seed in perfbench/digests.json and compares the digest it
prints with the table. Exits 1 when any digest differs or is missing. The
table is only read, never written: a change that moves a session outcome
must be fixed, not re-recorded.

  python3 perfbench/run.py --list      # builds .bench_build/perfbench
  python3 tools/check_digests.py
"""
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "perfbench" / "digests.json"
EXE = ROOT / ".bench_build" / "perfbench" / "xlink_perfbench"
JOBS = max(1, min(4, os.cpu_count() or 1))
TIMEOUT_S = 170


def digest_of(workload, seed):
    """The digest line's hex field, or an error description."""
    try:
        out = subprocess.run(
            [str(EXE), "--workload", workload, "--seed", seed,
             "--digest-only"],
            capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"no result within {TIMEOUT_S} s"
    fields = (out.stdout.strip().splitlines() or [""])[-1].split()
    if out.returncode or fields[:3] != ["digest", workload, seed]:
        return None, (out.stderr.strip() or out.stdout.strip()
                      or f"exit {out.returncode}")
    return fields[3], None


def main():
    if not EXE.is_file():
        sys.exit(f"check_digests: {EXE} not found; build it with "
                 "`python3 perfbench/run.py --list`")
    table = json.loads(TABLE.read_text())
    cases = [(w, s, d) for w, seeds in sorted(table.items())
             for s, d in sorted(seeds.items(), key=lambda kv: int(kv[0]))]

    start = time.monotonic()
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(lambda c: digest_of(c[0], c[1]), cases))
    bad = 0
    for (workload, seed, expected), (got, error) in zip(cases, results):
        if error:
            print(f"{workload} seed {seed}: {error}")
            bad += 1
        elif got != expected:
            print(f"{workload} seed {seed}: digest {got}, recorded {expected}")
            bad += 1
    print(f"{len(cases) - bad}/{len(cases)} digests match "
          f"({time.monotonic() - start:.1f} s)")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
