#!/usr/bin/env python3
"""Unit tests for trace_report.py: schema validation on known-good and
deliberately corrupted JSONL fixtures, plus a report() smoke test.

Run from tools/:  python3 -m unittest test_trace_report
(registered as the `trace_report_unittest` ctest target).
"""

import contextlib
import io
import json
import os
import tempfile
import unittest

import trace_report

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
GOOD = os.path.join(FIXTURES, "trace_good.jsonl")
CORRUPT = os.path.join(FIXTURES, "trace_corrupt.jsonl")


def validate_quietly(path):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = trace_report.validate(path)
    return code, out.getvalue(), err.getvalue()


class ValidateGoodTrace(unittest.TestCase):
    def test_known_good_fixture_passes(self):
        code, out, err = validate_quietly(GOOD)
        self.assertEqual(code, 0, err)
        self.assertIn("all schema-valid", out)

    def test_good_fixture_covers_core_event_families(self):
        with open(GOOD, encoding="utf-8") as fh:
            events = {json.loads(line)["e"] for line in fh if line.strip()}
        for family in ("trial.start", "pkt.send", "detect.consistency",
                       "bs.alert", "bs.revoke", "bs.quarantine",
                       "bs.exonerate", "coverage.usable_beacons",
                       "arq.retry", "trial.end"):
            self.assertIn(family, events)

    def test_every_good_record_is_in_schema(self):
        with open(GOOD, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                self.assertIn(rec["e"], trace_report.SCHEMA)
                for field in trace_report.SCHEMA[rec["e"]]:
                    self.assertIn(field, rec, f"{rec['e']} missing {field}")


class ValidateCorruptTraces(unittest.TestCase):
    def _validate_lines(self, lines):
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                         delete=False) as fh:
            fh.write("\n".join(lines) + "\n")
            path = fh.name
        try:
            return validate_quietly(path)
        finally:
            os.unlink(path)

    def test_corrupt_fixture_fails_with_each_corruption_reported(self):
        code, _, err = validate_quietly(CORRUPT)
        self.assertEqual(code, 1)
        self.assertIn("missing field", err)          # pkt.send without bytes
        self.assertIn("unknown event type", err)     # pkt.teleport
        self.assertIn("time went backwards", err)    # 500 after 1000
        self.assertIn("not an integer", err)         # "t": "soon"

    def test_missing_required_field_fails(self):
        code, _, err = self._validate_lines([
            '{"t": 0, "e": "bs.revoke", "target": 2}',
        ])
        self.assertEqual(code, 1)
        self.assertIn("missing field", err)

    def test_unknown_event_type_fails(self):
        code, _, err = self._validate_lines([
            '{"t": 0, "e": "no.such.event"}',
        ])
        self.assertEqual(code, 1)
        self.assertIn("unknown event type", err)

    def test_time_backwards_within_trial_fails(self):
        code, _, err = self._validate_lines([
            '{"t": 0, "e": "trial.start", "seed": 1, "nodes": 1,'
            ' "beacons": 1, "malicious": 0, "sensors": 0}',
            '{"t": 500, "e": "pkt.fault_drop", "src": 1, "dst": 2}',
            '{"t": 100, "e": "pkt.fault_drop", "src": 1, "dst": 2}',
        ])
        self.assertEqual(code, 1)
        self.assertIn("time went backwards", err)

    def test_trial_start_resets_the_clock(self):
        code, _, err = self._validate_lines([
            '{"t": 0, "e": "trial.start", "seed": 1, "nodes": 1,'
            ' "beacons": 1, "malicious": 0, "sensors": 0}',
            '{"t": 900, "e": "pkt.fault_drop", "src": 1, "dst": 2}',
            '{"t": 0, "e": "trial.start", "seed": 2, "nodes": 1,'
            ' "beacons": 1, "malicious": 0, "sensors": 0}',
            '{"t": 10, "e": "pkt.fault_drop", "src": 1, "dst": 2}',
        ])
        self.assertEqual(code, 0, err)

    def test_unparsable_json_fails(self):
        code, _, err = self._validate_lines(['{"t": 0, "e": "pkt.fault_drop",'])
        self.assertEqual(code, 1)
        self.assertTrue(err.strip(), "expected a parse error report")

    def test_non_object_line_fails(self):
        code, _, err = self._validate_lines(['[1, 2, 3]'])
        self.assertEqual(code, 1)
        self.assertIn("not a JSON object", err)


class ChaosEvents(unittest.TestCase):
    """The crash-recovery / chaos event family added for the chaos
    campaign: schema-valid lines pass, and the report summarizes them."""

    CHAOS_LINES = [
        '{"t": 0, "e": "trial.start", "seed": 1, "nodes": 10, "beacons": 3,'
        ' "malicious": 1, "sensors": 7}',
        '{"t": 5, "e": "partition.start", "nodes_a": 4}',
        '{"t": 6, "e": "pkt.partition_drop", "src": 1, "dst": 2}',
        '{"t": 9, "e": "partition.heal", "duration_ns": 4}',
        '{"t": 10, "e": "node.reboot", "node": 7, "down_ns": 100}',
        '{"t": 11, "e": "alert.reporter_down", "reporter": 4, "target": 2,'
        ' "attempt": 1}',
        '{"t": 12, "e": "bs.snapshot", "records": 8, "wal_tail": 2}',
        '{"t": 13, "e": "bs.failover", "epoch": 2, "role": "takeover"}',
        '{"t": 14, "e": "bs.failover", "epoch": 2, "role": "fence"}',
        '{"t": 20, "e": "trial.end", "seed": 1, "malicious_revoked": 1,'
        ' "benign_revoked": 0, "sensors_localized": 7}',
    ]

    def _write(self, lines):
        fh = tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False)
        fh.write("\n".join(lines) + "\n")
        fh.close()
        self.addCleanup(os.unlink, fh.name)
        return fh.name

    def test_chaos_events_are_schema_valid(self):
        code, out, err = validate_quietly(self._write(self.CHAOS_LINES))
        self.assertEqual(code, 0, err)
        self.assertIn("all schema-valid", out)

    def test_chaos_events_require_their_fields(self):
        for bad in ('{"t": 1, "e": "node.reboot", "node": 7}',
                    '{"t": 1, "e": "bs.failover", "epoch": 2}',
                    '{"t": 1, "e": "partition.start"}',
                    '{"t": 1, "e": "pkt.partition_drop", "src": 1}'):
            code, _, err = validate_quietly(self._write([bad]))
            self.assertEqual(code, 1, bad)
            self.assertIn("missing field", err)

    def test_report_summarizes_crash_recovery(self):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            trace_report.report(self._write(self.CHAOS_LINES), chains=False)
        text = out.getvalue()
        self.assertIn("crash recovery", text)
        self.assertIn("node reboots: 1", text)
        self.assertIn("bs.failover takeover: 1", text)
        self.assertIn("partitions: 1 started, 1 healed", text)
        self.assertIn("reporter crashes: 1", text)


class OverloadEvents(unittest.TestCase):
    """The ingestion-overload event family (alert-storm PR): sheds,
    breaker transitions and shard commit batches."""

    STORM_LINES = [
        '{"t": 0, "e": "trial.start", "seed": 1, "nodes": 10, "beacons": 3,'
        ' "malicious": 1, "sensors": 7}',
        '{"t": 5, "e": "bs.shed", "reporter": 9, "target": 2,'
        ' "reason": "rate_limited", "shard": 0}',
        '{"t": 6, "e": "bs.shed", "reporter": 8, "target": 3,'
        ' "reason": "queue_full", "shard": 1}',
        '{"t": 7, "e": "bs.breaker", "from": "closed", "to": "shedding"}',
        '{"t": 8, "e": "bs.breaker", "from": "shedding", "to": "degraded"}',
        '{"t": 9, "e": "bs.shard_commit", "shard": 1, "batch": 4,'
        ' "queue_depth": 2}',
        '{"t": 20, "e": "trial.end", "seed": 1, "malicious_revoked": 1,'
        ' "benign_revoked": 0, "sensors_localized": 7}',
    ]

    def _write(self, lines):
        fh = tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False)
        fh.write("\n".join(lines) + "\n")
        fh.close()
        self.addCleanup(os.unlink, fh.name)
        return fh.name

    def test_overload_events_are_schema_valid(self):
        code, out, err = validate_quietly(self._write(self.STORM_LINES))
        self.assertEqual(code, 0, err)
        self.assertIn("all schema-valid", out)

    def test_overload_events_require_their_fields(self):
        for bad in ('{"t": 1, "e": "bs.shed", "reporter": 9, "target": 2}',
                    '{"t": 1, "e": "bs.breaker", "from": "closed"}',
                    '{"t": 1, "e": "bs.shard_commit", "shard": 0}'):
            code, _, err = validate_quietly(self._write([bad]))
            self.assertEqual(code, 1, bad)
            self.assertIn("missing field", err)

    def test_report_summarizes_overload(self):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            trace_report.report(self._write(self.STORM_LINES), chains=False)
        text = out.getvalue()
        self.assertIn("ingestion overload", text)
        self.assertIn("shed (queue_full): 1", text)
        self.assertIn("shed (rate_limited): 1", text)
        self.assertIn("breaker closed -> shedding: 1", text)
        self.assertIn("shard commits: 1 batch(es), largest 4 record(s)", text)


class TelemetryEvents(unittest.TestCase):
    """The streaming-telemetry event family (timeseries/v1 + SLO monitor):
    ts.meta/ts.window/slo.breach/slo.recover validate, ts.meta resets the
    monotone clock, and the report renders the breach timeline."""

    TS_LINES = [
        '{"t": 0, "e": "ts.meta", "schema": "timeseries/v1",'
        ' "cadence_ns": 1000, "seed": 7}',
        '{"t": 1000, "e": "ts.window", "idx": 0, "start": 0, "end": 1000,'
        ' "counters": {"c": 3}, "deltas": {"c": 3}, "gauges": {"g": 1.5},'
        ' "hists": {}}',
        '{"t": 1000, "e": "slo.breach", "rule": "flood", "value": 3000.0,'
        ' "threshold": 50.0, "window": 0, "windows": 1}',
        '{"t": 2000, "e": "ts.window", "idx": 1, "start": 1000, "end": 2000,'
        ' "counters": {"c": 3}, "deltas": {"c": 0}, "gauges": {"g": 0.0},'
        ' "hists": {}}',
        '{"t": 2000, "e": "slo.recover", "rule": "flood", "value": 0.0,'
        ' "threshold": 50.0, "window": 1, "windows": 1}',
    ]

    def _write(self, lines):
        fh = tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False)
        fh.write("\n".join(lines) + "\n")
        fh.close()
        self.addCleanup(os.unlink, fh.name)
        return fh.name

    def test_telemetry_events_are_schema_valid(self):
        code, out, err = validate_quietly(self._write(self.TS_LINES))
        self.assertEqual(code, 0, err)
        self.assertIn("all schema-valid", out)

    def test_telemetry_events_require_their_fields(self):
        for bad in ('{"t": 1, "e": "ts.meta", "schema": "timeseries/v1"}',
                    '{"t": 1, "e": "ts.window", "idx": 0, "start": 0,'
                    ' "end": 1}',
                    '{"t": 1, "e": "slo.breach", "rule": "flood"}',
                    '{"t": 1, "e": "slo.recover", "rule": "flood"}'):
            code, _, err = validate_quietly(self._write([bad]))
            self.assertEqual(code, 1, bad)
            self.assertIn("missing field", err)

    def test_ts_meta_resets_the_clock_like_trial_start(self):
        code, _, err = validate_quietly(self._write([
            '{"t": 0, "e": "trial.start", "seed": 1, "nodes": 1,'
            ' "beacons": 1, "malicious": 0, "sensors": 0}',
            '{"t": 900, "e": "pkt.fault_drop", "src": 1, "dst": 2}',
            '{"t": 0, "e": "ts.meta", "schema": "timeseries/v1",'
            ' "cadence_ns": 1000, "seed": 2}',
            '{"t": 10, "e": "pkt.fault_drop", "src": 1, "dst": 2}',
        ]))
        self.assertEqual(code, 0, err)

    def test_report_renders_breach_timeline(self):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            trace_report.report(self._write(self.TS_LINES), chains=False)
        text = out.getvalue()
        self.assertIn("SLO breach timeline", text)
        self.assertIn("BREACH  flood", text)
        self.assertIn("recover flood", text)
        self.assertIn("1 breach(es), 1 recovery(ies)", text)
        self.assertIn("verdict: healthy", text)

    def test_report_flags_unrecovered_breach_as_unhealthy(self):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            trace_report.report(self._write(self.TS_LINES[:3]), chains=False)
        text = out.getvalue()
        self.assertIn("verdict: UNHEALTHY", text)
        self.assertIn("still in breach: flood", text)


class LifecycleEvents(unittest.TestCase):
    """The evidence-lifecycle event family (framing-resistance PR):
    quarantine / escalate / exonerate transitions and the coverage-guard
    cell censuses."""

    LIFECYCLE_LINES = [
        '{"t": 0, "e": "trial.start", "seed": 1, "nodes": 10, "beacons": 4,'
        ' "malicious": 1, "sensors": 6}',
        '{"t": 0, "e": "node.beacon", "id": 2, "x": 400.0, "y": 250.0,'
        ' "malicious": true}',
        '{"t": 5, "e": "coverage.usable_beacons", "cx": 1, "cy": 0,'
        ' "usable": 3}',
        '{"t": 5, "e": "bs.quarantine", "target": 2, "evidence": 3.2}',
        '{"t": 6, "e": "coverage.usable_beacons", "cx": 0, "cy": 1,'
        ' "usable": 0}',
        '{"t": 6, "e": "bs.escalate", "target": 3, "evidence": 6.1,'
        ' "usable": 0}',
        '{"t": 6, "e": "bs.quarantine", "target": 3, "evidence": 6.1}',
        '{"t": 9, "e": "bs.exonerate", "target": 3, "evidence": 0.3}',
        '{"t": 20, "e": "trial.end", "seed": 1, "malicious_revoked": 0,'
        ' "benign_revoked": 0, "sensors_localized": 6}',
    ]

    def _write(self, lines):
        fh = tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False)
        fh.write("\n".join(lines) + "\n")
        fh.close()
        self.addCleanup(os.unlink, fh.name)
        return fh.name

    def test_lifecycle_events_are_schema_valid(self):
        code, out, err = validate_quietly(self._write(self.LIFECYCLE_LINES))
        self.assertEqual(code, 0, err)
        self.assertIn("all schema-valid", out)

    def test_lifecycle_events_require_their_fields(self):
        for bad in ('{"t": 1, "e": "bs.quarantine", "target": 2}',
                    '{"t": 1, "e": "bs.exonerate", "evidence": 0.4}',
                    '{"t": 1, "e": "bs.escalate", "target": 3,'
                    ' "evidence": 6.1}',
                    '{"t": 1, "e": "coverage.usable_beacons", "cx": 1,'
                    ' "cy": 0}'):
            code, _, err = validate_quietly(self._write([bad]))
            self.assertEqual(code, 1, bad)
            self.assertIn("missing field", err)

    def test_report_renders_quarantine_timeline(self):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            trace_report.report(self._write(self.LIFECYCLE_LINES),
                                chains=False)
        text = out.getvalue()
        self.assertIn("quarantine timeline", text)
        self.assertIn("quarantine beacon 2", text)
        self.assertIn("— malicious", text)
        self.assertIn("escalate   beacon 3", text)
        self.assertIn("cell usable 0", text)
        self.assertIn("exonerate  beacon 3", text)
        self.assertIn("— benign", text)
        self.assertIn("2 quarantine(s), 1 escalation(s), 1 exoneration(s)",
                      text)
        self.assertIn("coverage censuses: 2 over 2 cell(s), min usable 0",
                      text)


class ReportSmoke(unittest.TestCase):
    def test_report_renders_revocation_and_chain(self):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            trace_report.report(GOOD, chains=True)
        text = out.getvalue()
        self.assertIn("trace report", text)
        self.assertIn("revocations", text)
        self.assertIn("beacon 2 revoked", text)
        self.assertIn("true detection", text)
        self.assertIn("causal chains", text)
        # The malicious beacon's chain must surface the inconsistency.
        self.assertIn("inconsistent", text)


if __name__ == "__main__":
    unittest.main()
