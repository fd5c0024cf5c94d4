#!/usr/bin/env python3
"""Diff a fresh bench artifact against its committed baseline.

The virtual-time serving artifacts (BENCH_latency_serving.json,
BENCH_overload_serving.json, BENCH_fleet_serving.json) are pure
functions of their seeds, so a fresh run must reproduce the
committed file exactly: every field, same keys, same values. Only
the fields measured on the host may differ (HOST_FIELDS: the SIMD
tier the run's CPU resolved, and the latency bench's tracer-overhead
gate, which times wall-clock drains and counts the trace events they
record). Prints one line per moved field, old -> new, and exits
non-zero if any field moved.

Usage: python3 tools/bench_diff.py COMMITTED.json FRESH.json
"""

import json
import sys

HOST_FIELDS = {
    "simd_kernel",
    "tracer_overhead_frac",
    "tracer_overhead_ok",
    "trace_events",
    "trace_events_dropped",
}


def diff(committed, fresh):
    """(key, committed value, fresh value) for every moved field."""
    moved = []
    for key in sorted(set(committed) | set(fresh)):
        if key in HOST_FIELDS:
            continue
        old = committed.get(key, "<absent>")
        new = fresh.get(key, "<absent>")
        if old != new or type(old) is not type(new):
            moved.append((key, old, new))
    return moved


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        committed = json.load(f)
    with open(sys.argv[2]) as f:
        fresh = json.load(f)
    moved = diff(committed, fresh)
    for key, old, new in moved:
        print("MOVED %s: %r -> %r" % (key, old, new))
    print(
        "%s vs %s: %d field(s) moved"
        % (sys.argv[1], sys.argv[2], len(moved))
    )
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
