#!/usr/bin/env python3
"""Diff two --perf-json artifacts, gating on the simulated fields.

Usage: check_perf_json.py BASELINE.json FRESH.json

The simulated machine is deterministic, so the per-point simulated
cycle counts (and scheduler event counts) of a fresh run must match
the committed baseline exactly — any drift means a change altered
simulated behaviour, which this repo treats as a hard failure unless
the baseline is regenerated on purpose.

The "adaptive", "boosted", "durable", "serving" and "distributed"
blocks and the "host" block's "faults" counters are simulated state
too: when both artifacts carry one, every field must match exactly,
with one exception. "distributed.mean_shard_occupancy" is a ratio of
float sums whose summation order may move its last bits, so it must
match within a relative 1e-12.

Host-side fields (wall_s, sim_cycles_per_wall_s, the rest of the
"host" block, the hand-written "baseline" block, hardware_threads)
vary run to run and machine to machine; they are reported but never
gated.

Points are compared as a multiset keyed on (label, sim_cycles,
sched_switches, sched_elisions): labels legally repeat across sweep
workloads, and record order depends on host-thread completion order.
"""

import json
import math
import sys
from collections import Counter

SIM_POINT_FIELDS = ("sim_cycles", "sched_switches", "sched_elisions")
SIM_TOTAL_FIELDS = ("sim_cycles", "sched_switches", "sched_elisions")
EXACT_BLOCKS = ("adaptive", "boosted", "durable", "serving", "distributed",
                "host.faults")
# Block fields gated within a relative tolerance instead of exactly.
REL_TOLERANCE = {"distributed.mean_shard_occupancy": 1e-12}


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"error: cannot load {path}: {e}")


def block(artifact, path):
    """The sub-object at dotted @path, or None when absent."""
    for key in path.split("."):
        artifact = artifact.get(key) if isinstance(artifact, dict) else None
    return artifact


def point_key(p):
    return (p.get("label"),) + tuple(p.get(f) for f in SIM_POINT_FIELDS)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2])
    base_path, fresh_path = sys.argv[1], sys.argv[2]
    base, fresh = load(base_path), load(fresh_path)

    failures = []

    for field in SIM_TOTAL_FIELDS:
        b = base.get("totals", {}).get(field)
        f = fresh.get("totals", {}).get(field)
        if b != f:
            failures.append(f"totals.{field}: baseline {b} != fresh {f}")

    base_points = Counter(map(point_key, base.get("points", [])))
    fresh_points = Counter(map(point_key, fresh.get("points", [])))
    if base_points != fresh_points:
        only_base = base_points - fresh_points
        only_fresh = fresh_points - base_points
        for key, n in sorted(only_base.items())[:10]:
            failures.append(f"point only in baseline (x{n}): {key}")
        for key, n in sorted(only_fresh.items())[:10]:
            failures.append(f"point only in fresh (x{n}): {key}")
        more = max(len(only_base) - 10, 0) + max(len(only_fresh) - 10, 0)
        if more:
            failures.append(f"... and {more} more differing points")

    nb, nf = len(base.get("points", [])), len(fresh.get("points", []))
    if nb != nf:
        failures.append(f"point count: baseline {nb} != fresh {nf}")

    # Blocks of simulated state, exact-match gated when both artifacts
    # carry them: the epoch controller's decision log
    # (docs/adaptive.md), the durable counters (log bytes, fences,
    # redo/undo decisions; docs/durability.md), the serving layer's
    # arrival clocks, batches and percentiles (docs/serving.md), the
    # boosting counters (docs/boosting.md), the 2PC rounds and bytes
    # (docs/distributed.md) and the injected-fault counters
    # (docs/robustness.md). Any drift means simulated behaviour changed.
    for name in EXACT_BLOCKS:
        b_blk, f_blk = block(base, name), block(fresh, name)
        if b_blk is None or f_blk is None or b_blk == f_blk:
            continue
        for field in sorted(set(b_blk) | set(f_blk)):
            bv, fv = b_blk.get(field), f_blk.get(field)
            tol = REL_TOLERANCE.get(f"{name}.{field}")
            if bv == fv or (tol is not None
                            and isinstance(bv, float)
                            and isinstance(fv, float)
                            and math.isclose(bv, fv, rel_tol=tol)):
                continue
            if isinstance(bv, list) and isinstance(fv, list):
                first = next((i for i, (x, y) in enumerate(zip(bv, fv))
                              if x != y), min(len(bv), len(fv)))
                failures.append(f"{name}.{field}: baseline {len(bv)} "
                                f"entries != fresh {len(fv)} (first "
                                f"difference at index {first})")
            else:
                failures.append(f"{name}.{field}: baseline "
                                f"{json.dumps(bv)[:200]} != fresh "
                                f"{json.dumps(fv)[:200]}")

    # Host performance: informational only.
    bw = base.get("totals", {}).get("wall_s")
    fw = fresh.get("totals", {}).get("wall_s")
    if bw and fw:
        print(f"wall time (report only): baseline {bw:.3f}s, "
              f"fresh {fw:.3f}s ({bw / fw:.2f}x)")

    if failures:
        print(f"SIMULATED-FIELD MISMATCH between {base_path} and "
              f"{fresh_path}:")
        for line in failures:
            print(f"  {line}")
        print("If the simulated cost model changed intentionally, "
              "regenerate the baseline artifact.")
        print("Artifact schema (all fields, incl. the optional 'trace' "
              "block): docs/observability.md#perf-json-schema")
        sys.exit(1)
    print(f"OK: {nf} points, simulated fields identical")


if __name__ == "__main__":
    main()
