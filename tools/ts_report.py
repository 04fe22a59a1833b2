#!/usr/bin/env python3
"""Timeline reporting over `timeseries/v1` telemetry streams.

Usage:
    ts_report.py TS.jsonl                     # per-metric sparkline report
    ts_report.py --validate TS.jsonl          # schema check, exit 1 on errors
    ts_report.py --dashboard TS.jsonl         # storm/failover dashboard
    ts_report.py --metric NAME TS.jsonl       # only the named metric(s)
    ts_report.py --expect-breach RULE --expect-recover RULE TS.jsonl
                                              # CI assertions, exit 1 if unmet

The stream is produced by the `--timeseries FILE` bench flag (or a
telemetry-enabled SystemConfig): one `ts.meta` header per trial followed by
one `ts.window` record per closed sampling window, with `slo.breach` /
`slo.recover` transitions interleaved (see DESIGN.md "Streaming telemetry &
SLO monitors"). Validation checks the schema AND the stream's internal
arithmetic: contiguous window indices and edges, per-window deltas
consistent with the cumulative counters, cumulative counters monotone.
Stdlib only.
"""

import argparse
import sys

from jsonl_schema import TELEMETRY_FIELDS, finish_validation, load

SCHEMA_NAME = "timeseries/v1"

# Sparkline intensity ramp, blank = zero, '@' = the metric's maximum.
RAMP = " .:-=+*#%@"

# The dashboard's curated tracks (shown when present in the stream).
DASHBOARD_COUNTERS = [
    "bs.ingest.submitted",
    "bs.ingest.accepted",
    "bs.ingest.rate_limited",
    "bs.ingest.shed",
    "bs.ingest.committed",
    "bs.revocations",
    "channel.tx",
    "channel.drops",
    "alerts.submitted",
]
DASHBOARD_GAUGES = [
    "bs.ingest.breaker_state",
    "bs.cluster.in_service",
    "sched.pending",
    "mem.rss_kb",
]


# --- validation -------------------------------------------------------------

def validate(path):
    errors = []
    count = 0
    in_segment = False
    prev_idx = None
    prev_end = None
    prev_counters = {}
    try:
        for n, rec in load(path):
            count += 1
            if not isinstance(rec, dict):
                errors.append(f"line {n}: not a JSON object")
                continue
            etype = rec.get("e")
            if not isinstance(etype, str):
                errors.append(f"line {n}: 'e' missing or not a string")
                continue
            if etype not in TELEMETRY_FIELDS:
                errors.append(
                    f"line {n}: unexpected event '{etype}' in a "
                    f"timeseries stream")
                continue
            missing = [k for k in TELEMETRY_FIELDS[etype] if k not in rec]
            if missing:
                errors.append(f"line {n}: {etype} missing field(s) {missing}")
                continue
            if etype == "ts.meta":
                if rec["schema"] != SCHEMA_NAME:
                    errors.append(
                        f"line {n}: schema '{rec['schema']}' != "
                        f"'{SCHEMA_NAME}'")
                if not isinstance(rec["cadence_ns"], int) or \
                        rec["cadence_ns"] <= 0:
                    errors.append(f"line {n}: cadence_ns must be a positive "
                                  f"integer")
                in_segment = True
                prev_idx = None
                prev_end = None
                prev_counters = {}
            elif etype == "ts.window":
                if not in_segment:
                    errors.append(f"line {n}: ts.window before any ts.meta")
                    in_segment = True  # report it once, keep checking
                idx, start, end = rec["idx"], rec["start"], rec["end"]
                if prev_idx is not None and idx != prev_idx + 1:
                    errors.append(
                        f"line {n}: window idx {idx} is not contiguous "
                        f"(previous {prev_idx})")
                if end <= start:
                    errors.append(
                        f"line {n}: window end {end} <= start {start}")
                if prev_end is not None and start != prev_end:
                    errors.append(
                        f"line {n}: window start {start} != previous "
                        f"end {prev_end}")
                counters, deltas = rec["counters"], rec["deltas"]
                for name, cum in counters.items():
                    before = prev_counters.get(name, 0)
                    if cum < before:
                        errors.append(
                            f"line {n}: counter '{name}' went backwards "
                            f"({cum} < {before})")
                    delta = deltas.get(name)
                    if delta is None:
                        errors.append(
                            f"line {n}: counter '{name}' has no delta")
                    elif cum - before != delta:
                        errors.append(
                            f"line {n}: '{name}' delta {delta} != "
                            f"cumulative step {cum - before}")
                prev_idx, prev_end = idx, end
                prev_counters = dict(counters)
    except (OSError, ValueError) as exc:
        errors.append(str(exc))
    return finish_validation(
        errors, f"OK: {count} records, all schema-valid and self-consistent")


# --- report -----------------------------------------------------------------

def parse_stream(path):
    """Returns (meta, windows, slo_events) from the first trial segment."""
    meta = None
    windows = []
    slo_events = []
    for _, rec in load(path):
        etype = rec.get("e")
        if etype == "ts.meta":
            if meta is not None:
                break  # report the first trial only
            meta = rec
        elif etype == "ts.window":
            windows.append(rec)
        elif etype in ("slo.breach", "slo.recover"):
            slo_events.append(rec)
    return meta, windows, slo_events


def sparkline(values, width=72):
    """One character per window (chunk-maxed down to `width` columns)."""
    if not values:
        return ""
    if len(values) > width:
        chunk = (len(values) + width - 1) // width
        values = [max(values[i:i + chunk])
                  for i in range(0, len(values), chunk)]
    peak = max(values)
    if peak <= 0:
        return RAMP[0] * len(values)
    out = []
    for v in values:
        level = int(v / peak * (len(RAMP) - 1) + 0.5)
        out.append(RAMP[max(0, min(level, len(RAMP) - 1))])
    return "".join(out)


def series(windows, kind, name):
    """Per-window series for a metric: counter deltas or gauge values."""
    return [w[kind].get(name, 0) for w in windows]


def all_metric_names(windows, kind):
    names = []
    for w in windows:
        for name in w[kind]:
            if name not in names:
                names.append(name)
    return names


def breach_ticks(windows, slo_events):
    """A marker line aligned with the sparklines: '^' at breach windows,
    'v' at recoveries (both, if they collide, show as '!')."""
    marks = [" "] * len(windows)
    index_of = {w["idx"]: i for i, w in enumerate(windows)}
    for rec in slo_events:
        i = index_of.get(rec["window"])
        if i is None:
            continue
        mark = "^" if rec["e"] == "slo.breach" else "v"
        marks[i] = "!" if marks[i] not in (" ", mark) else mark
    return "".join(marks)


def print_timeline(meta, windows, slo_events, counters, gauges):
    cadence_ms = meta["cadence_ns"] / 1e6
    span_ms = windows[-1]["end"] / 1e6 if windows else 0.0
    print(f"{len(windows)} windows x {cadence_ms:g} ms "
          f"(span {span_ms:g} ms), seed {meta.get('seed')}")
    print()
    name_w = max((len(n) for n in counters + gauges), default=0)
    for name in counters:
        vals = series(windows, "deltas", name)
        if not any(vals):
            continue
        peak = max(vals)
        total = sum(vals)
        print(f"  {name:{name_w}s} |{sparkline(vals)}| "
              f"peak {peak}/win, total {total}")
    for name in gauges:
        vals = series(windows, "gauges", name)
        if not any(vals):
            continue
        print(f"  {name:{name_w}s} |{sparkline(vals)}| "
              f"peak {max(vals):g}")
    ticks = breach_ticks(windows, slo_events)
    if ticks.strip():
        pad = " " * name_w
        print(f"  {pad} |{ticks}| ^ breach, v recover")
    print()


def print_slo_timeline(slo_events):
    if not slo_events:
        return
    print("-- SLO transitions --")
    active = set()
    for rec in slo_events:
        if rec["e"] == "slo.breach":
            active.add(rec["rule"])
            kind = "BREACH "
        else:
            active.discard(rec["rule"])
            kind = "recover"
        print(f"  [{rec['t'] / 1e6:10.3f} ms] {kind} {rec['rule']:16s} "
              f"value {rec['value']} vs {rec['threshold']} "
              f"(window {rec['window']})")
    verdict = "UNHEALTHY" if active else "healthy"
    print(f"  end-of-stream verdict: {verdict}"
          + (f" (still in breach: {', '.join(sorted(active))})"
             if active else ""))
    print()


def report(path, metrics=None, dashboard=False):
    meta, windows, slo_events = parse_stream(path)
    if meta is None or not windows:
        print("error: no ts.meta/ts.window records found", file=sys.stderr)
        return 1
    title = "storm/failover dashboard" if dashboard else "timeline report"
    print(f"=== {title}: {path} ===")
    if dashboard:
        counters = [n for n in DASHBOARD_COUNTERS
                    if n in all_metric_names(windows, "deltas")]
        gauges = [n for n in DASHBOARD_GAUGES
                  if n in all_metric_names(windows, "gauges")]
        # Aggregate per-shard queue depths into one track.
        depth_names = [n for n in all_metric_names(windows, "gauges")
                       if n.startswith("bs.ingest.queue_depth.")]
        if depth_names:
            for w in windows:
                w["gauges"]["bs.ingest.queue_depth(total)"] = sum(
                    w["gauges"].get(n, 0) for n in depth_names)
            gauges.insert(0, "bs.ingest.queue_depth(total)")
    elif metrics:
        counters = [n for n in metrics
                    if n in all_metric_names(windows, "deltas")]
        gauges = [n for n in metrics
                  if n in all_metric_names(windows, "gauges")]
        unknown = [n for n in metrics if n not in counters + gauges]
        if unknown:
            print(f"error: metric(s) not in stream: {unknown}",
                  file=sys.stderr)
            return 1
    else:
        counters = all_metric_names(windows, "deltas")
        gauges = all_metric_names(windows, "gauges")
    print_timeline(meta, windows, slo_events, counters, gauges)
    print_slo_timeline(slo_events)
    return 0


def check_expectations(path, expect_breach, expect_recover):
    """CI assertions: exit nonzero unless the named rules transitioned."""
    _, _, slo_events = parse_stream(path)
    breached = {rec["rule"] for rec in slo_events
                if rec["e"] == "slo.breach"}
    recovered = {rec["rule"] for rec in slo_events
                 if rec["e"] == "slo.recover"}
    failures = []
    for rule in expect_breach:
        if rule not in breached:
            failures.append(f"expected slo.breach for rule '{rule}', "
                            f"saw breaches for {sorted(breached) or 'none'}")
    for rule in expect_recover:
        if rule not in recovered:
            failures.append(
                f"expected slo.recover for rule '{rule}', saw recoveries "
                f"for {sorted(recovered) or 'none'}")
    for f in failures:
        print(f"UNMET: {f}", file=sys.stderr)
    if not failures:
        print(f"expectations met: breach={sorted(expect_breach)} "
              f"recover={sorted(expect_recover)}")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("stream", help="timeseries/v1 JSONL (from --timeseries)")
    ap.add_argument("--validate", action="store_true",
                    help="schema + consistency check only; exit nonzero on "
                         "any error")
    ap.add_argument("--dashboard", action="store_true",
                    help="curated ingest/failover tracks instead of every "
                         "metric")
    ap.add_argument("--metric", action="append", default=[],
                    help="only this metric (repeatable)")
    ap.add_argument("--expect-breach", action="append", default=[],
                    metavar="RULE",
                    help="exit 1 unless this rule fired slo.breach "
                         "(repeatable)")
    ap.add_argument("--expect-recover", action="append", default=[],
                    metavar="RULE",
                    help="exit 1 unless this rule fired slo.recover "
                         "(repeatable)")
    args = ap.parse_args()
    if args.validate:
        sys.exit(validate(args.stream))
    try:
        code = 0
        if args.expect_breach or args.expect_recover:
            code = check_expectations(args.stream, args.expect_breach,
                                      args.expect_recover)
        else:
            code = report(args.stream, metrics=args.metric,
                          dashboard=args.dashboard)
        sys.exit(code)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
