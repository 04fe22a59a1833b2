#!/usr/bin/env python3
"""Forensic reporting over the simulator's JSONL event traces.

Usage:
    trace_report.py TRACE.jsonl             # human-readable report
    trace_report.py --validate TRACE.jsonl  # schema check, exit 1 on errors

The trace format is one JSON object per line, `{"t": <sim ns>, "e":
"<event type>", ...}`, produced by the `--trace FILE` flag of the benches
(see DESIGN.md "Observability" for the full event taxonomy). The report
reconstructs, per revoked beacon, the causal chain probe -> inconsistency
verdict -> alert -> counter crossing -> revocation, flags false positives
with the ground truth carried in `node.beacon` records, and summarizes
retry storms. Stdlib only.
"""

import argparse
import collections
import sys

from jsonl_schema import TELEMETRY_FIELDS, finish_validation, load

# Required fields per event type. A field listed here must be present;
# extra fields are always allowed (the schema is append-only).
SCHEMA = {
    # Channel packet fates.
    "pkt.send": ["node", "src", "dst", "type", "bytes"],
    "pkt.deliver": ["src", "dst", "type", "wormhole", "delay_ns"],
    "pkt.loss": ["src", "dst"],
    "pkt.out_of_range": ["src", "dst"],
    "pkt.suppressed": ["src", "dst"],
    "pkt.fault_drop": ["src", "dst"],
    "pkt.duplicate": ["src", "dst"],
    "pkt.corrupt": ["src", "dst"],
    "pkt.crash_tx": ["node"],
    "pkt.crash_rx": ["node"],
    "pkt.partition_drop": ["src", "dst"],
    # ARQ.
    "arq.timeout": ["node", "target", "kind", "attempt"],
    "arq.retry": ["node", "target", "kind", "attempt"],
    "arq.giveup": ["node", "target", "kind", "attempt"],
    # Probe / query lifecycle.
    "probe.send": ["node", "det_id", "target", "nonce", "attempt", "retx"],
    "probe.reply": ["node", "target", "nonce", "dist_ft", "rtt_cycles"],
    "query.send": ["node", "target", "nonce", "attempt", "retx"],
    "query.reply": ["node", "target", "nonce", "dist_ft", "rtt_cycles"],
    "query.verdict": ["node", "target", "verdict"],
    "query.accept": ["node", "target", "effective_malicious"],
    # Detection stages.
    "detect.consistency": [
        "node", "target", "measured_ft", "expected_ft", "deviation_ft",
        "threshold_ft", "malicious",
    ],
    "detect.wormhole": ["node", "target", "role", "detected"],
    "detect.rtt": ["node", "target", "role", "rtt_cycles", "x_max_cycles",
                   "replay"],
    "detect.verdict": ["node", "target", "outcome"],
    # Alert transport + base station.
    "alert.submit": ["reporter", "target", "collusion"],
    "alert.delivered": ["reporter", "target", "attempt"],
    "alert.lost": ["reporter", "target", "attempt"],
    "alert.retry": ["reporter", "target", "attempt", "delay_ns"],
    "alert.giveup": ["reporter", "target", "attempt"],
    # Alerts that died with their crashed reporter (volatile ARQ state).
    "alert.reporter_down": ["reporter", "target", "attempt"],
    "bs.alert": ["reporter", "target", "disposition", "alert_counter",
                 "report_counter"],
    "bs.revoke": ["target", "alert_counter", "threshold"],
    # Durability + failover lifecycle (role: takeover | restart | fence).
    "bs.snapshot": ["records", "wal_tail"],
    "bs.failover": ["epoch", "role"],
    # Ingestion overload path (reason: queue_full | rate_limited; from/to:
    # closed | shedding | degraded | recovering).
    "bs.shed": ["reporter", "target", "reason", "shard"],
    "bs.breaker": ["from", "to"],
    "bs.shard_commit": ["shard", "batch", "queue_depth"],
    # Evidence-lifecycle revocation (framing resistance). bs.escalate fires
    # when escalated evidence overrides the coverage guard; the census
    # event records the usable-beacon count of one grid cell.
    "bs.quarantine": ["target", "evidence"],
    "bs.exonerate": ["target", "evidence"],
    "bs.escalate": ["target", "evidence", "usable"],
    "coverage.usable_beacons": ["cx", "cy", "usable"],
    "dissem.miss": ["sensor", "target"],
    # Trial lifecycle.
    "trial.start": ["seed", "nodes", "beacons", "malicious", "sensors"],
    "trial.end": ["seed", "malicious_revoked", "benign_revoked",
                  "sensors_localized"],
    "node.beacon": ["id", "x", "y", "malicious"],
    # Crash-recovery lifecycle (chaos schedules).
    "node.reboot": ["node", "down_ns"],
    "partition.start": ["nodes_a"],
    "partition.heal": ["duration_ns"],
    # Sensor outcomes.
    "sensor.drop_revoked": ["node", "target"],
    "sensor.localized": ["node", "err_ft", "refs"],
    "sensor.unlocalized": ["node", "refs"],
    # Streaming telemetry (timeseries/v1) and SLO transitions, when the
    # telemetry stream aliases the trace sink.
    **TELEMETRY_FIELDS,
}

# Events that open a new trial/stream segment and reset the monotone-time
# validation cursor.
RESET_EVENTS = ("trial.start", "ts.meta")

VERDICT_EVENTS = ("detect.verdict", "query.verdict")


def validate(path):
    errors = []
    count = 0
    last_t_per_trial = None
    try:
        for n, rec in load(path):
            count += 1
            if not isinstance(rec, dict):
                errors.append(f"line {n}: not a JSON object")
                continue
            t = rec.get("t")
            if not isinstance(t, int):
                errors.append(f"line {n}: 't' missing or not an integer")
            etype = rec.get("e")
            if not isinstance(etype, str):
                errors.append(f"line {n}: 'e' missing or not a string")
                continue
            if etype not in SCHEMA:
                errors.append(f"line {n}: unknown event type '{etype}'")
                continue
            missing = [k for k in SCHEMA[etype] if k not in rec]
            if missing:
                errors.append(
                    f"line {n}: {etype} missing field(s) {missing}")
            # Sim time is monotone within a trial (trial.start resets it).
            if etype in RESET_EVENTS:
                last_t_per_trial = t
            elif isinstance(t, int) and last_t_per_trial is not None:
                if t < last_t_per_trial:
                    errors.append(
                        f"line {n}: time went backwards ({t} < "
                        f"{last_t_per_trial})")
                else:
                    last_t_per_trial = t
    except (OSError, ValueError) as exc:
        errors.append(str(exc))
    return finish_validation(errors,
                             f"OK: {count} records, all schema-valid")


def ms(t_ns):
    return t_ns / 1e6


def report(path, chains):
    records = [rec for _, rec in load(path)]
    by_type = collections.Counter(rec.get("e", "?") for rec in records)

    print(f"=== trace report: {path} ===")
    print(f"{len(records)} records, {by_type.get('trial.start', 0)} trial(s)")
    print()
    print("-- event counts --")
    for etype, n in sorted(by_type.items(), key=lambda kv: -kv[1]):
        print(f"  {etype:24s} {n}")
    print()

    # Verdict breakdowns.
    for event in VERDICT_EVENTS:
        key = "outcome" if event == "detect.verdict" else "verdict"
        verdicts = collections.Counter(
            rec[key] for rec in records if rec.get("e") == event)
        if verdicts:
            print(f"-- {event} breakdown --")
            for v, n in sorted(verdicts.items(), key=lambda kv: -kv[1]):
                print(f"  {v:24s} {n}")
            print()

    # Ground truth and revocations (IDs are per-trial; trials share a
    # deployment schema so the malicious set is keyed by (trial, id)).
    trial = -1
    malicious = set()
    revokes = []  # (trial, t, target, counter, threshold)
    for rec in records:
        etype = rec.get("e")
        if etype == "trial.start":
            trial += 1
        elif etype == "node.beacon" and rec.get("malicious"):
            malicious.add((trial, rec["id"]))
        elif etype == "bs.revoke":
            revokes.append((trial, rec["t"], rec["target"],
                            rec["alert_counter"], rec["threshold"]))

    if revokes:
        print("-- revocations --")
        fp = 0
        for tr, t, target, counter, threshold in revokes:
            truth = ("true detection" if (tr, target) in malicious
                     else "FALSE POSITIVE")
            fp += (tr, target) not in malicious
            print(f"  trial {tr} [{ms(t):10.3f} ms] beacon {target} revoked "
                  f"(counter {counter} > {threshold}) — {truth}")
        print(f"  {len(revokes)} revocation(s), {fp} false positive(s)")
        print()

    # False-positive forensics: which alerts built up a benign target's
    # counter, and what did the reporters measure?
    fp_targets = {(tr, target) for tr, _, target, _, _ in revokes
                  if (tr, target) not in malicious}
    if fp_targets:
        print("-- false-positive forensics --")
        trial = -1
        for rec in records:
            etype = rec.get("e")
            if etype == "trial.start":
                trial += 1
            elif (etype == "bs.alert"
                  and (trial, rec["target"]) in fp_targets
                  and rec["disposition"].startswith("accepted")):
                print(f"  trial {trial} [{ms(rec['t']):10.3f} ms] "
                      f"{rec['reporter']} -> {rec['target']} accepted "
                      f"(counter {rec['alert_counter']})")
            elif (etype == "detect.consistency"
                  and (trial, rec["target"]) in fp_targets
                  and rec["malicious"]):
                print(f"  trial {trial} [{ms(rec['t']):10.3f} ms] node "
                      f"{rec['node']} measured {rec['measured_ft']:.1f} ft "
                      f"vs expected {rec['expected_ft']:.1f} ft "
                      f"(threshold {rec['threshold_ft']:.1f})")
        print()

    # Crash recovery / chaos lifecycle: reboots, failovers, partitions.
    reboots = [rec for rec in records if rec.get("e") == "node.reboot"]
    roles = collections.Counter(
        rec["role"] for rec in records if rec.get("e") == "bs.failover")
    partitions = by_type.get("partition.start", 0)
    if reboots or roles or partitions:
        print("-- crash recovery --")
        if reboots:
            mean_down = sum(r["down_ns"] for r in reboots) / len(reboots)
            print(f"  node reboots: {len(reboots)} "
                  f"(mean downtime {ms(mean_down):.1f} ms)")
        for role, n in sorted(roles.items()):
            print(f"  bs.failover {role}: {n}")
        if partitions:
            healed = by_type.get("partition.heal", 0)
            print(f"  partitions: {partitions} started, {healed} healed")
        dropped = by_type.get("pkt.partition_drop", 0)
        orphaned = by_type.get("alert.reporter_down", 0)
        if dropped:
            print(f"  deliveries dropped at partition cuts: {dropped}")
        if orphaned:
            print(f"  alerts lost to reporter crashes: {orphaned}")
        print()

    # Ingestion overload: sheds by reason, breaker moves, commit batching.
    sheds = collections.Counter(
        rec["reason"] for rec in records if rec.get("e") == "bs.shed")
    breaker_moves = collections.Counter(
        (rec["from"], rec["to"]) for rec in records
        if rec.get("e") == "bs.breaker")
    batches = [rec["batch"] for rec in records
               if rec.get("e") == "bs.shard_commit"]
    if sheds or breaker_moves or batches:
        print("-- ingestion overload --")
        for reason, n in sorted(sheds.items()):
            print(f"  shed ({reason}): {n}")
        for (src, dst), n in sorted(breaker_moves.items()):
            print(f"  breaker {src} -> {dst}: {n}")
        if batches:
            print(f"  shard commits: {len(batches)} batch(es), "
                  f"largest {max(batches)} record(s)")
        print()

    # Quarantine timeline: every suspect's quarantine / escalation /
    # exoneration in time order, annotated with ground truth, plus the
    # coverage floor the guard observed across its cell censuses.
    lifecycle_kinds = ("bs.quarantine", "bs.escalate", "bs.exonerate")
    lifecycle = []
    census = []
    trial = -1
    for rec in records:
        etype = rec.get("e")
        if etype == "trial.start":
            trial += 1
        elif etype in lifecycle_kinds:
            lifecycle.append((trial, rec))
        elif etype == "coverage.usable_beacons":
            census.append(rec)
    if lifecycle or census:
        print("-- quarantine timeline --")
        for tr, rec in lifecycle:
            truth = ("malicious" if (tr, rec["target"]) in malicious
                     else "benign")
            kind = rec["e"].split(".", 1)[1]
            extra = (f", cell usable {rec['usable']}"
                     if rec["e"] == "bs.escalate" else "")
            print(f"  trial {tr} [{ms(rec['t']):10.3f} ms] {kind:10s} "
                  f"beacon {rec['target']} (evidence {rec['evidence']:.2f}"
                  f"{extra}) — {truth}")
        quarantines = sum(r["e"] == "bs.quarantine" for _, r in lifecycle)
        escalations = sum(r["e"] == "bs.escalate" for _, r in lifecycle)
        exonerations = sum(r["e"] == "bs.exonerate" for _, r in lifecycle)
        print(f"  {quarantines} quarantine(s), {escalations} "
              f"escalation(s), {exonerations} exoneration(s)")
        if census:
            floor = min(rec["usable"] for rec in census)
            cells = {(rec["cx"], rec["cy"]) for rec in census}
            print(f"  coverage censuses: {len(census)} over {len(cells)} "
                  f"cell(s), min usable {floor}")
        print()

    # SLO breach timeline: every monitor transition in time order, with
    # the trial health verdict it adds up to.
    slo_events = [rec for rec in records
                  if rec.get("e") in ("slo.breach", "slo.recover")]
    if slo_events:
        print("-- SLO breach timeline --")
        active = set()
        for rec in slo_events:
            if rec["e"] == "slo.breach":
                active.add(rec["rule"])
                kind = "BREACH "
            else:
                active.discard(rec["rule"])
                kind = "recover"
            print(f"  [{ms(rec['t']):10.3f} ms] {kind} {rec['rule']:16s} "
                  f"value {rec['value']} vs {rec['threshold']} "
                  f"(window {rec['window']}, streak {rec['windows']})")
        breaches = sum(rec["e"] == "slo.breach" for rec in slo_events)
        verdict = "UNHEALTHY" if active else "healthy"
        print(f"  {breaches} breach(es), {len(slo_events) - breaches} "
              f"recovery(ies); end-of-stream verdict: {verdict}"
              + (f" (still in breach: {', '.join(sorted(active))})"
                 if active else ""))
        print()

    # Retry storms: nodes with the most ARQ retries.
    retries = collections.Counter(
        (rec["node"], rec["kind"]) for rec in records
        if rec.get("e") == "arq.retry")
    if retries:
        print("-- retry storms (top 10 node/kind) --")
        for (node, kind), n in retries.most_common(10):
            print(f"  node {node} ({kind}): {n} retransmissions")
        alert_retries = by_type.get("alert.retry", 0)
        giveups = by_type.get("arq.giveup", 0) + by_type.get(
            "alert.giveup", 0)
        print(f"  alert retries: {alert_retries}, giveups: {giveups}")
        print()

    if chains:
        report_chains(records, malicious)


def report_chains(records, malicious):
    """Per revoked beacon: the full probe -> alert -> revocation chain."""
    print("-- causal chains (per revoked beacon) --")
    trial = -1
    revoked = set()
    for rec in records:
        if rec.get("e") == "trial.start":
            trial += 1
        elif rec.get("e") == "bs.revoke":
            revoked.add((trial, rec["target"]))
    trial = -1
    shown = collections.Counter()
    for rec in records:
        etype = rec.get("e")
        if etype == "trial.start":
            trial += 1
            continue
        target = rec.get("target")
        if (trial, target) not in revoked:
            continue
        stamp = f"  trial {trial} [{ms(rec['t']):10.3f} ms]"
        if etype == "detect.consistency" and rec["malicious"]:
            if shown[(trial, target, etype)] >= 3:
                continue  # a few exemplars per target suffice
            shown[(trial, target, etype)] += 1
            print(f"{stamp} node {rec['node']}: beacon {target} measured "
                  f"{rec['measured_ft']:.1f} ft vs expected "
                  f"{rec['expected_ft']:.1f} ft -> inconsistent")
        elif etype == "detect.verdict" and rec["outcome"] == "alert":
            if shown[(trial, target, etype)] >= 3:
                continue
            shown[(trial, target, etype)] += 1
            print(f"{stamp} node {rec['node']}: verdict alert on {target}")
        elif etype == "alert.submit":
            print(f"{stamp} {rec['reporter']} submits alert on {target}")
        elif etype == "bs.alert" and rec["disposition"].startswith("accept"):
            print(f"{stamp} base station accepts "
                  f"{rec['reporter']} -> {target} "
                  f"(counter {rec['alert_counter']})")
        elif etype == "bs.revoke":
            truth = ("true detection" if (trial, target) in malicious
                     else "FALSE POSITIVE")
            print(f"{stamp} *** {target} REVOKED "
                  f"(counter {rec['alert_counter']} > {rec['threshold']}) "
                  f"— {truth} ***")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="JSONL trace file (from --trace FILE)")
    ap.add_argument("--validate", action="store_true",
                    help="schema-check only; exit nonzero on any error")
    ap.add_argument("--no-chains", action="store_true",
                    help="skip the per-revocation causal chains")
    args = ap.parse_args()
    if args.validate:
        sys.exit(validate(args.trace))
    try:
        report(args.trace, chains=not args.no_chains)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
