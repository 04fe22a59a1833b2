#!/usr/bin/env python3
"""The repository benchmark: Monte-Carlo trials of the secure-localization
system, timed from outside, with per-layer costs in a separate traced run.

    python3 perfbench/run.py --workload paper_1k --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (CMake, Release) into .bench_build/perfbench; later runs rebuild
incrementally. Build output goes to stderr. Stdout carries one line per
metric (name, value, unit) and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics.

--trace 0 measures the end-to-end metrics in one process. --trace 1 runs two
processes over the same trial seeds: a clean one that also times each
layer's public functions on the trial's inputs, and one with the memstats
allocation counters on (sticky once enabled, so never shared with a clean
run). See README.md for the workloads, metrics and layer map.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Trials whose outputs define the quality metrics and the digest: an exact
# function of (workload, seed), whatever the run length. paper_1k's 20 cover
# the effectiveness cycle twice.
QUALITY_TRIALS = {"paper_1k": 20, "scale_16k": 2, "storm_lossy": 20}

END_TO_END = [
    ("trial_ms_p50", "ms"),
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("passed_share", "ratio"),
    ("detection_rate", "ratio"),
    ("benign_kept_share", "ratio"),
    ("localized_share", "ratio"),
    ("median_loc_error_ft", "ft"),
]

MEM_SCOPES = ["scheduler", "channel", "messages", "arq", "detection", "revocation"]

PER_LAYER = [
    ("network.connected_calls", "count"),
    ("network.connected_pass_ms", "ms"),
    ("network.connectivity_ms", "ms"),
    ("network.avg_degree", "count"),
    ("scheduler.events", "count"),
    ("scheduler.max_queue_depth", "count"),
    ("scheduler.sift_steps_per_pop", "steps/pop"),
    ("scheduler.event_ns", "ns"),
    ("scheduler.ms", "ms"),
    ("channel.transmissions", "count"),
    ("channel.delivery_attempts", "count"),
    ("channel.deliveries", "count"),
    ("channel.delivery_ratio", "ratio"),
    ("channel.drops", "count"),
    ("channel.bytes_per_tx", "B"),
    ("channel.scan_fanout", "nodes/scan"),
    ("channel.packet_lifetime_p99_us", "us"),
    ("crypto.macs", "count"),
    ("crypto.mac_ns", "ns"),
    ("crypto.mac_ms", "ms"),
    ("crypto.mac_failures", "count"),
    ("detection.checks", "count"),
    ("detection.flags", "count"),
    ("detection.flag_ratio", "ratio"),
    ("detection.replay_filtered", "count"),
    ("detection.check_ns", "ns"),
    ("arq.retransmissions", "count"),
    ("arq.no_response", "count"),
    ("arq.retry_ratio", "ratio"),
    ("revocation.alerts_submitted", "count"),
    ("revocation.alerts_received", "count"),
    ("revocation.accept_ratio", "ratio"),
    ("revocation.revocations", "count"),
    ("revocation.ingest_rate_limited", "count"),
    ("revocation.ingest_shed", "count"),
    ("revocation.wal_appends", "count"),
    ("revocation.submit_ns", "ns"),
    ("revocation.ms", "ms"),
    ("localization.solves", "count"),
    ("localization.refs_per_sensor", "count"),
    ("localization.solve_us", "us"),
    ("localization.ms", "ms"),
    ("localization.centroid_share", "ratio"),
    ("core.deployment_ms", "ms"),
    ("core.provisioning_ms", "ms"),
    ("core.probing_ms", "ms"),
    ("core.localization_ms", "ms"),
    ("mem.allocs_per_event", "allocs/event"),
    ("mem.bytes_per_event", "B/event"),
] + [(f"mem.{scope}.allocs", "count") for scope in MEM_SCOPES] + [
    ("attributed_share", "ratio"),
    ("trace_overhead", "ratio"),
]

# The layers' *.ms costs that attributed_share sums.
ATTRIBUTED = ["network.connectivity_ms", "scheduler.ms", "crypto.mac_ms",
              "revocation.ms", "localization.ms"]

# Host-speed normalisation (README.md). This host's speed drifts by up to
# ~2x over tens of seconds as other tenants contend for the memory
# hierarchy, so raw trial times from two runs are not comparable. The trials
# process times a fixed reference kernel of the benchmark's own between
# trials. Every time metric is multiplied by
#     (REF_NOMINAL_S / mean of the readings just before and after it) ** REF_SENSITIVITY
# which reports it as if the kernel took REF_NOMINAL_S, about its
# uncontended time here. The simulator slows more than the kernel does:
# measured on paper_1k, log(trial slowdown) ~ 1.25 x log(kernel slowdown).
REF_NOMINAL_S = 0.014
REF_SENSITIVITY = 1.25

# Seconds one trials process may take beyond its measuring budget (the
# warm-up trial, the minimum trial count, unit costs), keeping a --trace 1
# run of 30 s, which starts two processes, well inside three minutes.
SLACK_S = 60


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (target if target.is_absolute() else ROOT / target) / "perfbench"


def build():
    """Configures (once) and builds the trials program; returns its path."""
    out = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))

    def attempt():
        if not (out / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release", *generator],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                       stdout=sys.stderr, check=True)

    try:
        attempt()
    except subprocess.CalledProcessError:
        if not (out / "CMakeCache.txt").exists():
            raise BenchError("build failed")
        log("perfbench: build failed in an existing tree; rebuilding clean")
        shutil.rmtree(out)
        try:
            attempt()
        except subprocess.CalledProcessError:
            raise BenchError("build failed")
    return out / "perfbench_trials"


def run_trials(binary, workload, seed, seconds, min_trials, extra=(), tiny=False):
    """Runs one trials process; returns its records (trial, units, end)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--min-trials", str(min_trials),
           *extra]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + SLACK_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"trials process exceeded {seconds + SLACK_S:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"trials process exited with {proc.returncode}")
    records = [json.loads(line) for line in proc.stdout.splitlines() if line]
    if not records or records[-1].get("kind") != "end":
        raise BenchError("trials process ended without its end record")
    scale_to_nominal_speed(records)
    return records


def scale_to_nominal_speed(records):
    """Sets the factors that bring each phase to nominal host speed, from the
    readings just before and just after it. Trials get `setup_scale` and
    `run_scale`, units records `scale`."""
    factor = lambda *s: (REF_NOMINAL_S / statistics.mean(s)) ** REF_SENSITIVITY
    before, pending = None, []
    for r in records:
        if r["kind"] in ("trial", "units"):
            if before is None:
                raise BenchError("a trial started before any host-speed reading")
            pending.append(r)
        elif r["kind"] == "ref":
            for p in pending:
                mid = p.get("mid_ref_s")
                p["scale"] = factor(before, r["s"])
                p["setup_scale"] = factor(before, mid) if mid else p["scale"]
                p["run_scale"] = factor(mid, r["s"]) if mid else p["scale"]
            before, pending = r["s"], []
    if pending:
        raise BenchError("a trial ended after the last host-speed reading")


def scaled_ms(t):
    """A trial's constructor + run() time at nominal host speed, in ms."""
    return 1e3 * (t["setup_s"] * t["setup_scale"] + t["run_s"] * t["run_scale"])


def trials_of(records, warmup=False):
    return [r for r in records if r["kind"] == "trial" and r["warmup"] == warmup]


def ratio(num, den):
    return num / den if den else 0.0


def p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else values[0]


class Report:
    """Collects failures across a run's processes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, records):
        for t in (r for r in records if r["kind"] == "trial"):
            self.attempted += 1
            if t["failures"]:
                self.failed += 1
                self.problems.extend(f"trial {t['i']} (seed {t['seed']}): {f}"
                                     for f in t["failures"])
        if not records[-1]["rerun_identical"]:
            self.problems.append("in-process re-run of the first seed differed")

    @property
    def correct(self):
        return self.failed == 0 and not self.problems


def workload_digest(trials, k):
    text = "|".join(t.get("digest", "failed") for t in trials[:k])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def end_to_end(binary, args, report):
    k = QUALITY_TRIALS[args.workload]
    records = run_trials(binary, args.workload, args.seed, args.seconds, k,
                         tiny=args.tiny)
    report.add(records)
    timed = [t for t in trials_of(records) if not t["failures"]]
    quality = [t for t in timed if t["i"] < k]
    if not quality:
        raise BenchError("no passing trial to compute the metrics from")

    trial_ms = [scaled_ms(t) for t in timed]
    total = lambda key: sum(t[key] for t in quality)
    values = {
        "trial_ms_p50": statistics.median(trial_ms),
        "setup_s": statistics.median(t["setup_s"] * t["setup_scale"] for t in timed),
        "events_per_s": statistics.median(t["events"] / (t["run_s"] * t["run_scale"])
                                          for t in timed),
        "peak_rss_mb": records[-1]["peak_rss_mb"],
        "passed_share": ratio(report.attempted - report.failed, report.attempted),
        "detection_rate": ratio(total("detected"), total("malicious")),
        "benign_kept_share": 1.0 - ratio(total("benign_revoked"), total("benign")),
        "localized_share": ratio(total("localized"), total("sensors")),
        "median_loc_error_ft": statistics.median(t["loc_error_p50_ft"]
                                                 for t in quality),
    }
    raw = {
        "trial_ms_p50": statistics.median(1e3 * (t["setup_s"] + t["run_s"])
                                          for t in timed),
        "setup_s": statistics.median(t["setup_s"] for t in timed),
        "events_per_s": statistics.median(t["events"] / t["run_s"] for t in timed),
    }
    print(f"workload {args.workload}  seed {args.seed}  timed trials {len(timed)} "
          f"(+1 warm-up)  digest {workload_digest(trials_of(records), k)} "
          f"(first {k} trials)")
    for name, unit in END_TO_END:
        note = f"  (raw {raw[name]:.6g}, host at " \
               f"{statistics.median(t['scale'] for t in timed):.3g}x nominal)" \
               if name in raw else ""
        print(f"  {name:<22} {values[name]:>14.6g} {unit}{note}")
    print(f"  trial_ms_p90 {p90(trial_ms):.6g} ms (n={len(trial_ms)}), "
          f"failed_share {ratio(report.failed, report.attempted):.6g} "
          f"({report.failed}/{report.attempted}), false_positive_rate "
          f"{1.0 - values['benign_kept_share']:.6g}")
    return {name: (values[name], unit) for name, unit in END_TO_END}


def gauge(trial, name):
    return trial["metrics"]["gauges"].get(name, 0.0)


def layer_values(c, t, u):
    """Per-layer metrics of one traced trial `t` (counts `c`), with the unit
    costs `u` timed in the clean process."""
    v = {
        "network.connected_calls": c["connected_calls"],
        "network.connected_pass_ms": u["connected_pass_ms"],
        "network.connectivity_ms":
            c["connected_calls"] * u["connected_pass_ms"] / c["nodes"],
        "network.avg_degree": u["avg_degree"],
        "scheduler.events": c["events"],
        "scheduler.max_queue_depth": c["max_queue_depth"],
        "scheduler.sift_steps_per_pop": ratio(c["sift_down_steps"], c["events"]),
        "scheduler.event_ns": u["event_ns"],
        "scheduler.ms": c["events"] * u["event_ns"] / 1e6,
        "channel.transmissions": c["transmissions"],
        "channel.delivery_attempts": c["delivery_attempts"],
        "channel.deliveries": c["deliveries"],
        "channel.delivery_ratio": ratio(c["deliveries"], c["delivery_attempts"]),
        "channel.drops": c["drops"],
        "channel.bytes_per_tx": ratio(c["bytes_sent"], c["transmissions"]),
        "channel.scan_fanout": ratio(c["scan_nodes"], c["scans"]),
        "channel.packet_lifetime_p99_us": c["packet_lifetime_p99_ns"] / 1e3,
        # One compute_mac per transmission, one verify_mac per delivery.
        "crypto.macs": c["transmissions"] + c["deliveries"],
        "crypto.mac_ns": u["mac_ns"],
        "crypto.mac_failures": c["mac_failures"],
        "detection.checks": c["checks"],
        "detection.flags": c["flags"],
        "detection.flag_ratio": ratio(c["flags"], c["checks"]),
        "detection.replay_filtered": c["replay_filtered"],
        "detection.check_ns": u["check_ns"],
        "arq.retransmissions": c["retransmissions"],
        "arq.no_response": c["no_response"],
        "arq.retry_ratio": ratio(c["retransmissions"], c["first_sends"]),
        "revocation.alerts_submitted": c["alerts_submitted"],
        "revocation.alerts_received": c["alerts_received"],
        "revocation.accept_ratio": ratio(c["alerts_accepted"], c["alerts_received"]),
        "revocation.revocations": c["revocations"],
        "revocation.ingest_rate_limited": c["ingest_rate_limited"],
        "revocation.ingest_shed": c["ingest_shed"],
        "revocation.wal_appends": c["wal_appends"],
        "revocation.submit_ns": u["submit_ns"],
        "revocation.ms": c["revocation_calls"] * u["submit_ns"] / 1e6,
        "localization.solves": c["solves"],
        "localization.refs_per_sensor": ratio(c["refs_used"], c["solves"]),
        "localization.solve_us": u["solve_us"],
        "localization.ms": c["solves"] * u["solve_us"] / 1e3,
        "localization.centroid_share": ratio(c["tier_centroid"], t["localized"]),
        "mem.allocs_per_event": ratio(c["allocs"], c["events"]),
        "mem.bytes_per_event": ratio(c["alloc_bytes"], c["events"]),
    }
    v["crypto.mac_ms"] = v["crypto.macs"] * u["mac_ns"] / 1e6
    for scope in MEM_SCOPES:
        v[f"mem.{scope}.allocs"] = t["metrics"]["counters"].get(f"mem.{scope}.allocs", 0)
    return v


def per_layer(binary, args, report):
    # The clean process gets the smaller share: its trials are only the
    # denominators of attributed_share and trace_overhead.
    clean = run_trials(binary, args.workload, args.seed, 0.4 * args.seconds, 1,
                       extra=["--units"], tiny=args.tiny)
    traced = run_trials(binary, args.workload, args.seed, 0.6 * args.seconds, 1,
                        extra=["--memstats"], tiny=args.tiny)
    report.add(clean)
    report.add(traced)
    units = next((r for r in clean if r["kind"] == "units"), None)
    if units is not None:
        units = dict(units)
        for name in ("connected_pass_ms", "event_ns", "mac_ns", "check_ns",
                     "submit_ns", "solve_us"):
            units[name] *= units["scale"]
    clean_by_i = {t["i"]: t for t in trials_of(clean) if not t["failures"]}
    traced_ok = [t for t in trials_of(traced)
                 if not t["failures"] and t["i"] in clean_by_i]
    if units is None or not traced_ok:
        raise BenchError("no passing trial to compute the metrics from")

    rows = []
    for t in traced_ok:
        v = layer_values(t["counts"], t, units)
        ct = clean_by_i[t["i"]]
        clean_ms = scaled_ms(ct)
        for phase, scale in (("deployment", "setup_scale"),
                             ("provisioning", "setup_scale"),
                             ("probing", "run_scale"), ("localization", "run_scale")):
            v[f"core.{phase}_ms"] = gauge(ct, f"phase.{phase}_ms") * ct[scale]
        v["attributed_share"] = sum(v[name] for name in ATTRIBUTED) / clean_ms
        v["clean_ms"] = clean_ms
        v["traced_ms"] = scaled_ms(t)
        rows.append(v)
    med = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    med["trace_overhead"] = med["traced_ms"] / med["clean_ms"]

    print(f"workload {args.workload}  seed {args.seed}  traced trials {len(rows)} "
          f"matched to clean ones; clean trial_ms_p50 {med['clean_ms']:.6g} ms")
    for name, unit in PER_LAYER:
        share = ""
        if name in ATTRIBUTED:
            share = f"  ({100.0 * med[name] / med['clean_ms']:.1f}% of clean trial)"
        print(f"  {name:<34} {med[name]:>14.6g} {unit}{share}")
    return {name: (med[name], unit) for name, unit in PER_LAYER}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(QUALITY_TRIALS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="300-node deployments, for the self-test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    report = Report()
    try:
        binary = build()
        metrics = (per_layer if args.trace else end_to_end)(binary, args, report)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    for problem in report.problems:
        log(f"perfbench: output check failed: {problem}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
