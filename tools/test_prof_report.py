#!/usr/bin/env python3
"""Unit tests for prof_report.py: counter tracks from timeseries windows
and the structural Chrome-trace validator.

Run from tools/:  python3 -m unittest test_prof_report
(registered as the `prof_report_unittest` ctest target).
"""

import contextlib
import io
import json
import os
import tempfile
import unittest

import prof_report

TS_LINES = [
    {"t": 0, "e": "ts.meta", "schema": "timeseries/v1",
     "cadence_ns": 1000, "seed": 1},
    {"t": 1000, "e": "ts.window", "idx": 0, "start": 0, "end": 1000,
     "counters": {"mem.scheduler.allocs": 5},
     "deltas": {"mem.scheduler.allocs": 5},
     "gauges": {"mem.rss_kb": 2048.0},
     "hists": {"hot.queue_depth": {"count": 9, "p50": 2, "p90": 5,
                                   "p99": 7}}},
    {"t": 2000, "e": "ts.window", "idx": 1, "start": 1000, "end": 2000,
     "counters": {"mem.scheduler.allocs": 8},
     "deltas": {"mem.scheduler.allocs": 3},
     "gauges": {"mem.rss_kb": 2112.0}, "hists": {}},
]


def run_main(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = prof_report.main(argv)
    return code, out.getvalue(), err.getvalue()


class Fixtures(unittest.TestCase):
    def write(self, content, suffix):
        f = tempfile.NamedTemporaryFile("w", suffix=suffix, delete=False)
        f.write(content)
        f.close()
        self.addCleanup(os.unlink, f.name)
        return f.name

    def write_timeseries(self, lines=TS_LINES):
        return self.write(
            "".join(json.dumps(rec) + "\n" for rec in lines), ".jsonl")

    def out_path(self):
        f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
        f.close()
        self.addCleanup(os.unlink, f.name)
        return f.name


class CounterTracks(Fixtures):
    def test_windows_become_counter_samples(self):
        events = prof_report.timeseries_to_events(
            [json.dumps(r) for r in TS_LINES], "mem")
        allocs = [e for e in events
                  if e["name"] == "mem.scheduler.allocs"]
        # Counter tracks carry the per-window DELTA, not the cumulative.
        self.assertEqual([e["args"]["value"] for e in allocs], [5, 3])
        # Sampled at window end, ns -> us.
        self.assertEqual([e["ts"] for e in allocs], [1.0, 2.0])
        rss = [e for e in events if e["name"] == "mem.rss_kb"]
        self.assertEqual([e["args"]["value"] for e in rss],
                         [2048.0, 2112.0])
        p99 = [e for e in events if e["name"] == "hot.queue_depth.p99"]
        self.assertEqual([e["args"]["value"] for e in p99], [7])
        for e in events:
            self.assertEqual(e["ph"], "C")

    def test_stream_without_meta_header_rejected(self):
        with self.assertRaises(ValueError):
            prof_report.timeseries_to_events(
                [json.dumps(TS_LINES[1])], "mem")


class EndToEnd(Fixtures):
    def test_convert_then_validate(self):
        out = self.out_path()
        code, stdout, _ = run_main(["--timeseries", self.write_timeseries(),
                                    "-o", out])
        self.assertEqual(code, 0)
        self.assertIn("5 counter samples", stdout)
        code, stdout, _ = run_main(["--validate", out])
        self.assertEqual(code, 0)
        self.assertIn("ok:", stdout)
        doc = json.load(open(out, encoding="utf-8"))
        self.assertIn("traceEvents", doc)

    def test_bad_timeseries_is_input_error(self):
        bad = self.write("{not json\n", ".jsonl")
        code, _, err = run_main(["--timeseries", bad,
                                 "-o", self.out_path()])
        self.assertEqual(code, 2)
        self.assertIn("prof_report:", err)


class Validator(Fixtures):
    def _validate(self, doc):
        return run_main(["--validate", self.write(json.dumps(doc),
                                                  ".json")])

    def test_rejects_missing_trace_events(self):
        code, _, err = self._validate({"foo": []})
        self.assertEqual(code, 1)
        self.assertIn("traceEvents", err)

    def test_rejects_empty_trace_events(self):
        code, _, err = self._validate({"traceEvents": []})
        self.assertEqual(code, 1)
        self.assertIn("empty", err)

    def test_rejects_complete_event_without_dur(self):
        code, _, err = self._validate({"traceEvents": [
            {"name": "x", "ph": "X", "ts": 0, "pid": 1}]})
        self.assertEqual(code, 1)
        self.assertIn("dur", err)

    def test_rejects_counter_without_value(self):
        code, _, err = self._validate({"traceEvents": [
            {"name": "x", "ph": "C", "ts": 0, "pid": 1, "args": {}}]})
        self.assertEqual(code, 1)
        self.assertIn("args.value", err)

    def test_rejects_unknown_phase(self):
        code, _, err = self._validate({"traceEvents": [
            {"name": "x", "ph": "Z", "ts": 0, "pid": 1}]})
        self.assertEqual(code, 1)
        self.assertIn("phase", err)


if __name__ == "__main__":
    unittest.main()
