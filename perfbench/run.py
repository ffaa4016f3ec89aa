#!/usr/bin/env python3
"""Repository benchmark launcher.

Builds the library and xlink_perfbench from this checkout's sources,
then runs one workload in its own process and forwards its output.
The last line of standard output is its JSON result; build output
goes to standard error.

  python3 perfbench/run.py --workload ab_day --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --list
  python3 perfbench/run.py --record-digests 0-31

The build lives in $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that is unset, relative to the checkout root.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
MANIFEST = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds xlink_perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources not found (src/CMakeLists.txt); "
             "run from the root of a full checkout")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "xlink_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "xlink_perfbench"


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record_digests(exe, seeds):
    """Writes the current code's batch digest for every workload and seed."""
    listing = subprocess.run([exe, "--list"], capture_output=True, text=True,
                             check=True).stdout.splitlines()
    names = []
    for line in listing[1:]:  # the indented lines under "workloads:"
        if not line.startswith(" "):
            break
        names.append(line.split()[0])
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for name in names:
        for seed in seeds:
            out = subprocess.run(
                [exe, "--workload", name, "--seed", str(seed),
                 "--digest-only"], capture_output=True, text=True,
                timeout=RUN_TIMEOUT_S)
            line = (out.stdout.strip().splitlines() or [""])[-1].split()
            if out.returncode or line[:3] != ["digest", name, str(seed)]:
                fail(f"no digest for {name} seed {seed}:\n{out.stdout}")
            table.setdefault(name, {})[str(seed)] = line[3]
            print(f"{name} {seed} {line[3]}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def check_metric_names(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json declares."""
    if not MANIFEST.is_file():
        return
    manifest = json.loads(MANIFEST.read_text())
    declared = {m["name"] for m in
                manifest["per_layer" if trace else "end_to_end"]}
    got = set(result.get("metrics", {}))
    if got != declared:
        fail(f"metric names differ from BENCHMARK.json: missing "
             f"{sorted(declared - got)}, extra {sorted(got - declared)}")


def main():
    ap = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Build and run the repository benchmark.")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true",
                    help="print every workload and metric with its unit")
    ap.add_argument("--record-digests", metavar="FIRST-LAST",
                    help="record the current code's digests for these seeds")
    args = ap.parse_args()
    if not (args.list or args.record_digests):
        missing = [flag for flag, value in (("--workload", args.workload),
                                            ("--seed", args.seed),
                                            ("--seconds", args.seconds))
                   if value is None]
        if missing:
            ap.error("missing " + ", ".join(missing))
        if args.seed < 0 or args.seconds <= 0:
            ap.error("--seed must be >= 0 and --seconds > 0")

    exe = build()
    if args.list:
        sys.exit(subprocess.run([exe, "--list"]).returncode)
    if args.record_digests:
        record_digests(exe, parse_seeds(args.record_digests))
        return

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected = digests.get(args.workload, {}).get(str(args.seed))
    if expected:
        cmd += ["--expect-digest", expected]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"xlink_perfbench did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(out.stdout)
    sys.stdout.flush()
    if out.returncode:
        sys.exit(out.returncode)
    lines = out.stdout.strip().splitlines()
    check_metric_names(json.loads(lines[-1]) if lines else {}, args.trace)


if __name__ == "__main__":
    main()
