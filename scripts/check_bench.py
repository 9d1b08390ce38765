#!/usr/bin/env python3
"""Gate the haocl-bench JSON reports on their model-level invariants.

CI's bench-smoke job regenerates every experiment with -quick -json and
pipes the files through this checker; it exits non-zero when a report
violates a design invariant. The rules are keyed off the report's
"experiment" field:

pipeline
    Pipelining must never change simulated time; every comparison must
    report virtual_match.

chaos
    The failure-injected leg must finish byte-identical to the healthy
    leg (virtual_match carries that bit; DESIGN.md §7), must actually
    absorb crashes (recoveries > 0 on every chaos row), and recovery
    overhead must stay bounded: the chaos leg's enqueue rate may not
    drop below 1/3 of the healthy leg's (speedup >= 1/3).

serve
    Fair-share admission must hold every light tenant's p99 virtual
    latency within 3x its solo baseline despite the 10x aggressor, FIFO
    must demonstrably fail that bound (>= 3x — otherwise the experiment
    exerted no contention), and the fair leg's rerun must reproduce every
    job latency exactly (virtual_match on the fair-rerun comparison;
    DESIGN.md §8). The speedup field of a serve comparison carries the
    p99 ratio versus solo.

serve-trace
    The trace-sized serve run: too few jobs for the p99 bounds to be
    statistically meaningful, so only the fair-rerun determinism bit is
    gated.

Every report also passes a schema check: known row and comparison fields
must carry their expected JSON types (ints are fine where floats are
expected), while unknown fields are tolerated so old checkers keep
working when the reports grow new columns.

Usage: check_bench.py [report.json ...]
With no arguments, checks the default bench-*.json set in the current
directory.
"""

import json
import sys

DEFAULT_REPORTS = [
    "bench-pipeline.json",
    "bench-chaos.json",
    "bench-serve.json",
    "bench-serve-trace.json",
]

# The chaos leg may not run slower than this fraction of the healthy
# leg's enqueue rate; below it, recovery overhead is considered unbounded.
CHAOS_MIN_SPEEDUP = 1.0 / 3.0

# Serve: a light tenant's p99 under fair-share may be at most this
# multiple of its solo p99; under FIFO it must be at least it (the
# aggressor must actually distort the baseline for the bound to mean
# anything).
SERVE_P99_BOUND = 3.0

# Expected JSON types of the known report fields. float entries accept
# ints too (Go's encoder emits whole floats without a decimal point as
# far as json.load is concerned); fields not listed here are tolerated
# untyped, so reports may grow columns without breaking old checkers.
ROW_FIELD_TYPES = {
    "workload": str,
    "transport": str,
    "mode": str,
    "commands": int,
    "wall_ms": float,
    "cmds_per_sec": float,
    "virtual_sec": float,
    "wire_mb": float,
    "recoveries": int,
    "replayed_commands": int,
    "tenant": str,
    "jobs": int,
    "p50_virtual_ms": float,
    "p99_virtual_ms": float,
    "jobs_per_virtual_sec": float,
}
COMPARISON_FIELD_TYPES = {
    "workload": str,
    "baseline": str,
    "mode": str,
    "speedup": float,
    "virtual_match": bool,
    "bytes_ratio": float,
}


def type_ok(val, want):
    """True when val satisfies the expected type (ints pass for floats;
    bools never pass for numbers, Python's bool-is-int notwithstanding)."""
    if want is bool:
        return isinstance(val, bool)
    if isinstance(val, bool):
        return False
    if want is float:
        return isinstance(val, (int, float))
    return isinstance(val, want)


def check_types(name, rep):
    """Return violations for known fields carrying the wrong JSON type."""
    bad = []
    for kind, objs, types in (
        ("row", rep.get("rows") or [], ROW_FIELD_TYPES),
        ("comparison", rep.get("comparisons") or [], COMPARISON_FIELD_TYPES),
    ):
        for obj in objs:
            for field, val in sorted(obj.items()):
                want = types.get(field)
                if want is not None and not type_ok(val, want):
                    bad.append((name, obj.get("workload", "-"),
                                "%s field %r is %s, want %s"
                                % (kind, field, type(val).__name__, want.__name__)))
    return bad


def check_report(name, rep):
    """Return a list of (name, workload, problem) violations for one report."""
    bad = []
    exp = rep.get("experiment")
    comparisons = rep.get("comparisons") or []
    rows = rep.get("rows") or []

    if exp == "pipeline":
        for c in comparisons:
            if not c["virtual_match"]:
                bad.append((name, c["workload"], "makespan diverged"))
    elif exp == "chaos":
        for c in comparisons:
            if not c["virtual_match"]:
                bad.append((name, c["workload"], "chaos results diverged from no-failure leg"))
            if c.get("speedup", 0) < CHAOS_MIN_SPEEDUP:
                bad.append((name, c["workload"],
                            "recovery overhead unbounded (rate %.2fx healthy, floor %.2fx)"
                            % (c.get("speedup", 0), CHAOS_MIN_SPEEDUP)))
        for r in rows:
            if r.get("mode") == "chaos" and not r.get("recoveries", 0):
                bad.append((name, r["workload"], "chaos leg recorded no recoveries"))
            if (r.get("mode") == "chaos" and r.get("recoveries", 0)
                    and not r.get("replayed_commands", 0)):
                bad.append((name, r["workload"],
                            "chaos leg recovered without replaying any commands"))
        if not any(r.get("mode") == "chaos" for r in rows):
            bad.append((name, "-", "no chaos rows in report"))
    elif exp == "serve-trace":
        rerun = [c for c in comparisons if c.get("mode") == "fair-rerun"]
        for c in rerun:
            if not c.get("virtual_match"):
                bad.append((name, c["workload"], "fair rerun latencies diverged"))
        if not rerun:
            bad.append((name, "-", "missing fair-rerun determinism comparison"))
    elif exp == "serve":
        fair = [c for c in comparisons
                if c.get("mode") == "fair" and c.get("baseline") == "solo"]
        fifo = [c for c in comparisons
                if c.get("mode") == "fifo" and c.get("baseline") == "solo"]
        rerun = [c for c in comparisons if c.get("mode") == "fair-rerun"]
        for c in fair:
            if c.get("speedup", float("inf")) > SERVE_P99_BOUND:
                bad.append((name, c["workload"],
                            "fair-share p99 %.2fx solo exceeds %.1fx bound"
                            % (c.get("speedup", 0), SERVE_P99_BOUND)))
        for c in fifo:
            if c.get("speedup", 0) < SERVE_P99_BOUND:
                bad.append((name, c["workload"],
                            "fifo p99 only %.2fx solo — aggressor exerted no contention"
                            % c.get("speedup", 0)))
        for c in rerun:
            if not c.get("virtual_match"):
                bad.append((name, c["workload"], "fair rerun latencies diverged"))
        if not fair or not fifo:
            bad.append((name, "-", "missing fair/fifo-vs-solo comparisons"))
        if not rerun:
            bad.append((name, "-", "missing fair-rerun determinism comparison"))
    else:
        bad.append((name, "-", "unknown experiment %r" % (exp,)))

    if not comparisons:
        bad.append((name, "-", "no comparisons in report"))
    bad.extend(check_types(name, rep))
    return bad


def main(argv):
    paths = argv or DEFAULT_REPORTS
    bad = []
    for path in paths:
        try:
            with open(path) as f:
                rep = json.load(f)
        except (OSError, ValueError) as e:
            bad.append((path, "-", "unreadable: %s" % e))
            continue
        bad.extend(check_report(path, rep))
    if bad:
        print("bench invariants violated:")
        for name, workload, problem in bad:
            print("  %s: %s: %s" % (name, workload, problem))
        return 1
    print("bench invariants hold (%d reports)" % len(paths))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
