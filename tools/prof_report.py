#!/usr/bin/env python3
"""Chrome-trace / Perfetto exporter for sld telemetry output.

Usage:
    prof_report.py --timeseries TS.jsonl -o OUT.json
    prof_report.py --validate OUT.json [OUT.json ...]

Converts a `timeseries/v1` JSONL stream (bench --timeseries FILE): every
per-window counter delta and gauge (the `mem.*` allocation mirrors,
`hot.*` queue-depth/fan-out instruments, `mem.rss_kb`, breaker states,
...) becomes a "ph":"C" counter track sampled at the window edge;
histogram quantiles surface as `<name>.p99` tracks. Window timestamps are
sim time, so these tracks are deterministic.

The output is the Chrome Trace Event JSON-object format — load it at
chrome://tracing or ui.perfetto.dev. --validate structurally checks a
produced file (stdlib only, no jsonschema): traceEvents array, required
keys and types per phase, non-negative ts/dur. Exit codes: 0 ok,
1 validation failure, 2 bad input.
"""

import argparse
import json
import sys

from jsonl_schema import records

TS_SCHEMA = "timeseries/v1"

# Trace-event layout: every counter track belongs to one fake process.
PID = 1


def _counter(name, ts_us, value):
    return {"name": name, "ph": "C", "ts": ts_us, "pid": PID,
            "args": {"value": value}}


def timeseries_to_events(lines, path):
    """Turns ts.window records into "ph":"C" counter tracks: one track
    per counter delta, gauge, and histogram p99, sampled at window-end
    sim time (ns -> us)."""
    events = []
    saw_meta = False
    for lineno, rec in records(lines, path):
        kind = rec.get("e")
        if kind == "ts.meta":
            if rec.get("schema") != TS_SCHEMA:
                raise ValueError(
                    f"{path}:{lineno}: schema is '{rec.get('schema')}', "
                    f"expected '{TS_SCHEMA}'")
            saw_meta = True
        elif kind == "ts.window":
            ts_us = rec.get("end", rec.get("t", 0)) / 1000.0
            for name, val in rec.get("deltas", {}).items():
                events.append(_counter(name, ts_us, val))
            for name, val in rec.get("gauges", {}).items():
                events.append(_counter(name, ts_us, val))
            for name, q in rec.get("hists", {}).items():
                events.append(_counter(name + ".p99", ts_us,
                                       q.get("p99", 0)))
        # Other record kinds (slo.breach markers, trial events when the
        # stream aliases the trace sink) carry no per-window samples.
    if not saw_meta:
        raise ValueError(f"{path}: no ts.meta header — not a "
                         f"{TS_SCHEMA} stream")
    return events


def build_trace(timeseries_path):
    events = [{"name": "process_name", "ph": "M", "pid": PID,
               "args": {"name": "sld"}}]
    with open(timeseries_path, encoding="utf-8") as f:
        events.extend(timeseries_to_events(f, timeseries_path))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _check(cond, path, msg):
    if not cond:
        raise ValueError(f"{path}: {msg}")


def validate_trace(path):
    """Structural check of a Chrome-trace JSON file produced by this
    tool (or anything trace-viewer-compatible in the JSON-object form)."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    _check(isinstance(doc, dict), path, "top level is not an object")
    events = doc.get("traceEvents")
    _check(isinstance(events, list), path, "traceEvents is not an array")
    _check(len(events) > 0, path, "traceEvents is empty")
    num = (int, float)
    for i, ev in enumerate(events):
        ctx = f"traceEvents[{i}]"
        _check(isinstance(ev, dict), path, f"{ctx}: not an object")
        _check(isinstance(ev.get("name"), str), path,
               f"{ctx}: missing string 'name'")
        ph = ev.get("ph")
        _check(ph in ("X", "C", "M", "I", "B", "E"), path,
               f"{ctx}: unsupported phase '{ph}'")
        _check(isinstance(ev.get("pid"), int), path,
               f"{ctx}: missing int 'pid'")
        if ph == "M":
            continue
        ts = ev.get("ts")
        _check(isinstance(ts, num) and not isinstance(ts, bool), path,
               f"{ctx}: missing numeric 'ts'")
        _check(ts >= 0, path, f"{ctx}: negative ts")
        if ph == "X":
            dur = ev.get("dur")
            _check(isinstance(dur, num) and not isinstance(dur, bool),
                   path, f"{ctx}: 'X' event missing numeric 'dur'")
            _check(dur >= 0, path, f"{ctx}: negative dur")
        if ph == "C":
            value = (ev.get("args") or {}).get("value")
            _check(isinstance(value, num) and not isinstance(value, bool),
                   path, f"{ctx}: 'C' event missing numeric args.value")
    return len(events)


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--timeseries", metavar="FILE",
                    help="timeseries/v1 JSONL stream (bench --timeseries)")
    ap.add_argument("-o", "--output", metavar="FILE",
                    help="write the Chrome-trace JSON here "
                         "(default: stdout)")
    ap.add_argument("--validate", nargs="+", metavar="FILE",
                    help="structurally check Chrome-trace files instead "
                         "of converting")
    args = ap.parse_args(argv)

    if args.validate:
        failures = 0
        for path in args.validate:
            try:
                n = validate_trace(path)
                print(f"ok: {path} ({n} events)")
            except (OSError, json.JSONDecodeError, ValueError) as e:
                print(f"invalid: {e}", file=sys.stderr)
                failures += 1
        return 1 if failures else 0

    if not args.timeseries:
        ap.error("need --timeseries (or --validate)")
    try:
        trace = build_trace(args.timeseries)
    except (OSError, ValueError) as e:
        print(f"prof_report: {e}", file=sys.stderr)
        return 2
    out = json.dumps(trace, indent=1)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(out + "\n")
        counters = sum(1 for e in trace["traceEvents"] if e["ph"] == "C")
        print(f"wrote {args.output}: {counters} counter samples")
    else:
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
