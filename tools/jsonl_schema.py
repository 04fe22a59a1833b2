"""JSONL reading and the telemetry record schema shared by the report tools.

trace_report.py, ts_report.py and prof_report.py all read the simulator's
one-JSON-object-per-line streams; this module holds what they have in
common: the line reader, the required fields of the `timeseries/v1` records
(which also appear in event traces that alias the telemetry sink), and the
validation error tail. Stdlib only.
"""

import json
import sys

# Required fields per telemetry record type. A field listed here must be
# present; extra fields are always allowed (the schema is append-only).
TELEMETRY_FIELDS = {
    # ts.meta opens each trial's stream.
    "ts.meta": ["schema", "cadence_ns", "seed"],
    "ts.window": ["idx", "start", "end", "counters", "deltas", "gauges",
                  "hists"],
    # SLO monitor transitions ("windows" = the sustain/clear streak length
    # that triggered the transition).
    "slo.breach": ["rule", "value", "threshold", "window", "windows"],
    "slo.recover": ["rule", "value", "threshold", "window", "windows"],
}

# Validation prints at most this many errors, then a count of the rest.
MAX_ERRORS_SHOWN = 50


def records(lines, source):
    """Yields (line_number, record) for every non-blank line. An unparsable
    line raises ValueError naming `source` and the line number."""
    for n, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{source}:{n}: {exc}") from exc
        yield n, rec


def load(path):
    """records() over the file at `path`."""
    with open(path, "r", encoding="utf-8") as fh:
        yield from records(fh, path)


def finish_validation(errors, ok_message):
    """Prints the first MAX_ERRORS_SHOWN errors to stderr, or `ok_message`
    to stdout when there are none; returns the exit code."""
    for e in errors[:MAX_ERRORS_SHOWN]:
        print(f"INVALID: {e}", file=sys.stderr)
    if len(errors) > MAX_ERRORS_SHOWN:
        print(f"... and {len(errors) - MAX_ERRORS_SHOWN} more",
              file=sys.stderr)
    if errors:
        return 1
    print(ok_message)
    return 0
