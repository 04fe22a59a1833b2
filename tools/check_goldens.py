#!/usr/bin/env python3
"""Golden-summary regression check for the figure benches.

Runs every bench listed in the goldens file at `--fast --trials 1 --seed 1`
(a deterministic, sub-second configuration), hashes its stdout (the
TrialSummary CSV tables), and compares against the checked-in hash. Any
drift in simulation results — intended or not — shows up as a failing
`bench_goldens` ctest; intended drift is recorded with --update.

A goldens entry is `<binary>[:flag,flag,...] <sha256>`: the optional
comma-separated suffix appends mode flags to the standard argument set, so
one binary can be pinned in several modes (e.g. `ext_alert_storm` and
`ext_alert_storm:--storm`). A bare `--trace` among the flags pins the trace
instead of stdout: the bench runs with `--trace <tmpfile>` and the entry
hashes the JSONL file it writes, so every per-event record of the message
path (sends, replies, timeouts, retries, localization tiers) is pinned too.
Each such trace must also pass `trace_report.py --validate`, so an event the
schema lacks fails the check even when its hash is pinned.

Usage:
  check_goldens.py --bench-dir build/bench --goldens tests/goldens/bench_goldens.txt
  check_goldens.py --bench-dir build/bench --goldens ... --update
"""

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile

import trace_report

BENCH_ARGS = ["--fast", "--trials", "1", "--seed", "1"]


def read_goldens(path):
    goldens = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, digest = line.split()
            goldens[name] = digest
    return goldens


def write_goldens(path, goldens):
    with open(path, "w", encoding="utf-8") as f:
        f.write("# sha256 of each bench's stdout at "
                f"`{' '.join(BENCH_ARGS)}`; a `--trace` entry hashes the "
                "trace file instead.\n")
        f.write("# Regenerate with: tools/check_goldens.py --update "
                "--bench-dir <build>/bench --goldens <this file>\n")
        for name in sorted(goldens):
            f.write(f"{name} {goldens[name]}\n")


def split_entry(name):
    """'ext_alert_storm:--storm' -> ('ext_alert_storm', ['--storm'])."""
    binary, _, flags = name.partition(":")
    return binary, [f for f in flags.split(",") if f]


def run_bench(bench_dir, name):
    binary, extra = split_entry(name)
    exe = os.path.join(bench_dir, binary)
    if not os.path.exists(exe):
        return None, f"missing bench binary: {exe}"
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = None
        if "--trace" in extra:
            trace_path = os.path.join(tmp, "trace.jsonl")
            i = extra.index("--trace")
            extra = extra[:i + 1] + [trace_path] + extra[i + 1:]
        try:
            out = subprocess.run([exe] + BENCH_ARGS + extra,
                                 capture_output=True, timeout=300, check=True)
        except subprocess.CalledProcessError as e:
            return None, (f"{name} exited {e.returncode}: "
                          f"{e.stderr.decode()[:500]}")
        except subprocess.TimeoutExpired:
            return None, f"{name} timed out"
        if trace_path is None:
            return hashlib.sha256(out.stdout).hexdigest(), None
        with contextlib.redirect_stdout(io.StringIO()):
            if trace_report.validate(trace_path) != 0:
                return None, f"{name} trace fails schema validation"
        digest = hashlib.sha256()
        with open(trace_path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                digest.update(chunk)
        return digest.hexdigest(), None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench-dir", required=True,
                        help="directory holding the bench binaries")
    parser.add_argument("--goldens", required=True,
                        help="checked-in goldens file")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the goldens file from current output")
    args = parser.parse_args()

    goldens = read_goldens(args.goldens)
    if not goldens:
        print(f"no goldens in {args.goldens}", file=sys.stderr)
        return 1

    failures = []
    fresh = {}
    for name, expected in sorted(goldens.items()):
        digest, err = run_bench(args.bench_dir, name)
        if err:
            failures.append(err)
            print(f"ERROR {name}: {err}")
            continue
        fresh[name] = digest
        if args.update:
            print(f"update {name} {digest}")
        elif digest == expected:
            print(f"ok    {name}")
        else:
            failures.append(name)
            print(f"DRIFT {name}: expected {expected}, got {digest}")

    if args.update:
        if failures:
            print("refusing to update with failing benches", file=sys.stderr)
            return 1
        write_goldens(args.goldens, fresh)
        print(f"wrote {len(fresh)} goldens to {args.goldens}")
        return 0

    if failures:
        print(f"\n{len(failures)} golden mismatch(es). If the change is "
              "intended, regenerate with --update.", file=sys.stderr)
        return 1
    print(f"all {len(goldens)} bench goldens match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
