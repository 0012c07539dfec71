#!/usr/bin/env python3
"""Validate a trace produced by the obs/ subsystem (bench/trace_demo).

Checks, in order:
  1. the file parses as JSON and is a Chrome trace-event container
     ({"traceEvents": [...]});
  2. every event carries the fields its phase requires, with sane types
     (ph/pid/tid/name/ts, dur on "X", args.value on "C");
  3. timestamps are non-negative and durations finite;
  4. per-pid/tid metadata ("M" process_name / thread_name) exists for every
     track that carries events;
  5. the expected event categories are present (--require, default the full
     set trace_demo exercises).

With --metrics CSV the long-form per-step metrics export is validated too:
exact "step,metric,value" header, well-typed rows (non-negative integer
step, non-empty metric name, finite value), non-decreasing step numbers,
no duplicate (step, metric) pairs, and an identical metric set on every
step -- a truncated or interleaved export fails.

With --sdc the run must exercise the silent-data-corruption ladder: the
trace must carry cat="sdc" instants including at least one "sdc-repair"
(localized repair happened), the metrics CSV must sample the sdc.*
instruments, and if the run escalated to a rollback the FIRST repair must
precede the FIRST rollback -- the ladder tries surgery before amputation.
Escalation REWINDS the step counter (restore + replay), so with --sdc
step numbers may decrease between groups and a step may be sampled more
than once; each contiguous group must still be internally consistent (no
duplicate metric within a group, identical metric set across groups).

Exit 0 on success; nonzero with a message on the first violation. Stdlib
only, so it runs anywhere CI has a python3.

Usage: tools/validate_trace.py results/trace_demo.json \
           [--require step,fault] [--metrics results/trace_demo_metrics.csv]
"""

import argparse
import json
import math
import sys

DEFAULT_REQUIRED = "step,tree,balancer,expansion,p2p,transfer,fault,state"
VALID_PHASES = {"X", "i", "C", "M"}
# Instruments the SDC ladder registers up front (obs/step_emitter.cpp);
# every one must appear in an --sdc run's metric set.
SDC_METRICS = (
    "sdc.injected",
    "sdc.detected",
    "sdc.repaired",
    "sdc.escalated",
    "sdc.injected_total",
    "sdc.detected_total",
    "sdc.repairs_total",
    "sdc.rollbacks_total",
)


def fail(msg: str) -> None:
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_metrics(path: str, min_steps: int, sdc: bool = False) -> None:
    """Validate a MetricsRegistry CSV export (obs/metrics.hpp).

    With sdc a step REWIND between groups is legal (escalation restores an
    older checkpoint and replays), so the same step may appear in more than
    one contiguous group; the sdc.* instrument set must also be present.
    """
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"cannot load {path}: {e}")

    if not lines or lines[0] != "step,metric,value":
        got = lines[0] if lines else "<empty file>"
        fail(f"{path}: bad header {got!r} (want 'step,metric,value')")
    if len(lines) < 2:
        fail(f"{path}: no metric rows")

    groups = []     # contiguous (step, set-of-metric-names) runs
    prev_step = None
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            fail(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
        raw_step, metric, raw_value = parts
        try:
            step = int(raw_step)
        except ValueError:
            fail(f"{path}:{lineno}: non-integer step {raw_step!r}")
        if step < 0:
            fail(f"{path}:{lineno}: negative step {step}")
        if prev_step is not None and step < prev_step and not sdc:
            fail(f"{path}:{lineno}: step {step} after step {prev_step} "
                 "(rows must be grouped by non-decreasing step; pass "
                 "--sdc for restarts)")
        if not metric:
            fail(f"{path}:{lineno}: empty metric name")
        try:
            value = float(raw_value)
        except ValueError:
            fail(f"{path}:{lineno}: non-numeric value {raw_value!r}")
        if not math.isfinite(value):
            fail(f"{path}:{lineno}: non-finite value {raw_value!r}")
        if step != prev_step:
            groups.append((step, set()))
            prev_step = step
        elif metric in groups[-1][1]:
            # Same step, metric seen again: a replayed group after a
            # recovery rewound the step counter to exactly where it was.
            if not sdc:
                fail(f"{path}:{lineno}: duplicate metric {metric!r} "
                     f"for step {step}")
            groups.append((step, set()))
        names = groups[-1][1]
        if metric in names:
            fail(f"{path}:{lineno}: duplicate metric {metric!r} "
                 f"for step {step}")
        names.add(metric)

    # Every sampled group carries the same metric set: a partial group means
    # the export was truncated or the emitter skipped a sink. (In sdc mode
    # a step can legally appear in two groups -- once before a rollback,
    # once replayed -- so groups, not steps, are compared.)
    reference = groups[0][1]
    for step, names in groups:
        diff = names ^ reference
        if diff:
            fail(f"{path}: step {step} metric set differs on: "
                 f"{', '.join(sorted(diff))}")

    if sdc:
        missing = [m for m in SDC_METRICS if m not in reference]
        if missing:
            fail(f"{path}: sdc run missing metrics: {', '.join(missing)}")

    distinct = len({step for step, _ in groups})
    if distinct < min_steps:
        fail(f"{path}: only {distinct} steps sampled "
             f"(--min-metric-steps {min_steps})")

    rewinds = len(groups) - distinct
    suffix = f" ({rewinds} recovery rewind groups)" if rewinds else ""
    print(f"validate_trace: OK: {len(lines) - 1} metric rows over "
          f"{distinct} steps, {len(reference)} metrics per step{suffix}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="path to the trace JSON")
    ap.add_argument(
        "--require",
        default=DEFAULT_REQUIRED,
        help="comma-separated categories that must appear "
        f"(default: {DEFAULT_REQUIRED}; pass '' to skip)",
    )
    ap.add_argument(
        "--metrics",
        default=None,
        metavar="CSV",
        help="also validate this per-step metrics CSV "
        "(step,metric,value long form)",
    )
    ap.add_argument(
        "--min-metric-steps",
        type=int,
        default=1,
        metavar="N",
        help="fail unless the metrics CSV covers at least N steps "
        "(catches truncated exports; default 1)",
    )
    ap.add_argument(
        "--sdc",
        action="store_true",
        help="validate a silent-data-corruption run: require cat='sdc' "
        "instants with at least one 'sdc-repair', require the sdc.* "
        "metrics, require the first repair to precede any rollback, and "
        "tolerate escalation step rewinds in the metrics CSV",
    )
    args = ap.parse_args()

    try:
        with open(args.trace, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {args.trace}: {e}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("not a trace-event container (missing 'traceEvents')")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail("'traceEvents' is empty or not a list")

    named_tracks = set()   # (pid, tid) with a thread_name metadata event
    named_pids = set()     # pid with a process_name metadata event
    used_tracks = set()
    categories = {}
    sdc_first_ts = {}      # sdc instant name -> earliest ts
    first_rollback_ts = None
    for i, e in enumerate(events):
        where = f"event {i} ({e.get('name', '?')!r})"
        ph = e.get("ph")
        if ph not in VALID_PHASES:
            fail(f"{where}: unknown phase {ph!r}")
        for key in ("pid", "tid"):
            if not isinstance(e.get(key), int):
                fail(f"{where}: missing/non-integer {key!r}")
        if not isinstance(e.get("name"), str) or not e["name"]:
            fail(f"{where}: missing name")
        if ph == "M":
            if e["name"] == "process_name":
                named_pids.add(e["pid"])
            elif e["name"] == "thread_name":
                named_tracks.add((e["pid"], e["tid"]))
            continue
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or not math.isfinite(ts) or ts < 0:
            fail(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = e.get("dur")
            if (not isinstance(dur, (int, float)) or not math.isfinite(dur)
                    or dur < 0):
                fail(f"{where}: bad dur {dur!r}")
        if ph == "C" and "value" not in e.get("args", {}):
            fail(f"{where}: counter without args.value")
        used_tracks.add((e["pid"], e["tid"]))
        cat = e.get("cat", "")
        categories[cat] = categories.get(cat, 0) + 1
        if cat == "sdc":
            prev = sdc_first_ts.get(e["name"])
            if prev is None or ts < prev:
                sdc_first_ts[e["name"]] = ts
        elif e["name"] == "rollback" and ph == "i":
            if first_rollback_ts is None or ts < first_rollback_ts:
                first_rollback_ts = ts

    for pid, tid in sorted(used_tracks):
        if pid not in named_pids:
            fail(f"pid {pid} carries events but has no process_name metadata")
        if (pid, tid) not in named_tracks:
            fail(f"track pid={pid} tid={tid} carries events but has no "
                 "thread_name metadata")

    required = [c for c in args.require.split(",") if c]
    missing = [c for c in required if c not in categories]
    if missing:
        fail(f"missing required categories: {', '.join(missing)} "
             f"(present: {', '.join(sorted(categories))})")

    if args.sdc:
        if "sdc" not in categories:
            fail("sdc run has no cat='sdc' instants "
                 f"(present: {', '.join(sorted(categories))})")
        if "sdc-repair" not in sdc_first_ts:
            fail("sdc run has no 'sdc-repair' instant "
                 f"(sdc instants: {', '.join(sorted(sdc_first_ts))})")
        if first_rollback_ts is not None:
            # Surgery before amputation: a localized repair must have
            # happened before the ladder ever escalated to a rollback.
            repair_ts = sdc_first_ts["sdc-repair"]
            if repair_ts >= first_rollback_ts:
                fail(f"first sdc-repair (ts={repair_ts}) does not precede "
                     f"first rollback (ts={first_rollback_ts})")

    n = sum(categories.values())
    cats = ", ".join(f"{k}={v}" for k, v in sorted(categories.items()))
    print(f"validate_trace: OK: {n} events on {len(used_tracks)} tracks "
          f"({cats})")

    if args.metrics is not None:
        check_metrics(args.metrics, args.min_metric_steps, args.sdc)


if __name__ == "__main__":
    main()
