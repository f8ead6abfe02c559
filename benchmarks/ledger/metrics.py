"""Metric catalogue of the ledger, sample statistics, and compare verdicts.

``BENCHMARK.json`` lists the same names (``test_ledger.py`` checks the two
agree); this module adds what the contract's fixed keys have no room for:
absolute floors, the per-workload bound of the simulated metrics, and the
rule that turns two result files into better / worse / unchanged /
unresolved.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from tracing import SPAN_NAMES

#: Blocks of equal duration a run's samples are cut into.
BLOCKS = 10


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the baseline by which the metric may worsen (end-to-end
    #: metrics only; layer metrics explain, they do not gate).
    bound: float | None = None
    #: A change must also exceed this absolute amount to count.
    floor: float = 0.0


#: The nine end-to-end metrics of one workload, from the untraced run.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, 0.05),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("wall_p50_ms", "ms", "lower", 0.25, 0.02),
    Metric("wall_p95_ms", "ms", "lower", 0.25, 0.05),
    Metric("failed_frac", "frac", "lower", 0.0),
    Metric("sim_ms_per_op", "sim_ms", "lower", 0.02),
    Metric("wire_bytes_per_op", "bytes", "lower", 0.02),
    Metric("msgs_per_op", "count", "lower", 0.02),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
)

#: The simulated cost model's three: exact counts, not timings.  They read
#: 0 (messages, bytes) or a constant (simulated ms) on ``hot_read``, which
#: the driver's contract forbids for a bounded metric, so BENCHMARK.json
#: carries them under ``per_layer`` and the traced run prints them too.
SIMULATED = ("sim_ms_per_op", "wire_bytes_per_op", "msgs_per_op")
#: Two threads interleave differently on every run of ``mixed_sessions``.
MIXED_SIMULATED_BOUND = 0.05

#: ``failed_frac`` travels as the contract's ``failed`` / ``attempted``.
CONTRACT_END_TO_END = tuple(
    m
    for m in END_TO_END
    if m.name not in SIMULATED and m.name != "failed_frac"
)

#: Layer counts read from public statistics (and span count hooks).
LAYER_COUNTS = (
    Metric("query.fetches_per_op", "count", "lower"),
    Metric("query.semijoin_fetches_per_op", "count", "lower"),
    Metric("query.rows_fetched_per_op", "count", "lower"),
    Metric("query.rows_fetched_per_row_returned", "ratio", "lower"),
    Metric("cache.plans.hit_ratio", "ratio", "higher"),
    Metric("cache.plans.evictions_per_op", "count", "lower"),
    Metric("cache.fragments.hit_ratio", "ratio", "higher"),
    Metric("cache.fragments.stale_drops_per_op", "count", "lower"),
    Metric("gateway.rows_shipped_per_op", "count", "lower"),
    Metric("engine.rows_scanned_per_op", "count", "lower"),
    Metric("engine.rows_scanned_per_row_shipped", "ratio", "lower"),
    Metric("txn.aborts_per_op", "count", "lower"),
    Metric("txn.msgs_per_commit", "count", "lower"),
    Metric("server.read_p50_ms", "ms", "lower"),
    Metric("server.read_p95_ms", "ms", "lower"),
    Metric("server.agg_p50_ms", "ms", "lower"),
    Metric("server.xfer_p50_ms", "ms", "lower"),
    Metric("server.xfer_p95_ms", "ms", "lower"),
    Metric("trace.overhead_frac", "frac", "lower"),
    Metric("trace.unattributed_frac", "frac", "lower"),
)

PER_LAYER = (
    tuple(
        metric
        for span in SPAN_NAMES
        for metric in (
            Metric(f"{span}.self_ms_per_op", "ms", "lower"),
            Metric(f"{span}.calls_per_op", "count", "lower"),
        )
    )
    + LAYER_COUNTS
    + tuple(m for m in END_TO_END if m.name in SIMULATED)
)

#: The traced run must explain at least this share of every op's wall.
MAX_UNATTRIBUTED = 0.10


# ---------------------------------------------------------------------------
# Sample statistics
# ---------------------------------------------------------------------------


def percentile(ordered: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    if not ordered:
        return 0.0
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def timing_stats(samples: list[tuple[float, float]]) -> dict[str, dict]:
    """ops/s, p50 and p95 of ``(start, end)`` samples: the best block's.

    The samples are cut into :data:`BLOCKS` blocks of equal duration by
    completion time and each metric is computed per block.  The reported
    value is the *best* block's (highest rate, lowest percentile): on a
    shared host a neighbour only ever slows a block down, for seconds at
    a time, so the best block is the closest reading of the program
    itself.  Measured on ten runs of each workload it halved the
    run-to-run spread of the all-sample percentiles.  Every entry also
    carries the all-sample value, the sample count, and as its ``range``
    the best and the median block: when those two are far apart the run
    was disturbed for more than half its length and ``compare`` says
    *unresolved*.
    """
    begin = min(start for start, _ in samples)
    finish = max(end for _, end in samples)
    width = (finish - begin) / BLOCKS
    blocks: list[list[float]] = [[] for _ in range(BLOCKS)]
    for start, end in samples:
        index = min(int((end - begin) / width), BLOCKS - 1)
        blocks[index].append((end - start) * 1000.0)
    for block in blocks:
        block.sort()
    durations = sorted(d for block in blocks for d in block)

    def entry(best, overall: float, per_block: list[float]) -> dict:
        value = best(per_block)
        return {
            "value": value,
            "all": overall,
            "n": len(durations),
            "range": sorted((value, statistics.median(per_block))),
        }

    measured = [block for block in blocks if block]
    return {
        "ops_per_s": entry(
            max,
            len(durations) / (finish - begin),
            [len(block) / width for block in blocks],
        ),
        "wall_p50_ms": entry(
            min,
            percentile(durations, 0.50),
            [percentile(block, 0.50) for block in measured],
        ),
        "wall_p95_ms": entry(
            min,
            percentile(durations, 0.95),
            [percentile(block, 0.95) for block in measured],
        ),
    }


# ---------------------------------------------------------------------------
# Comparing two result files
# ---------------------------------------------------------------------------


def verdict(metric: Metric, workload: str, a: dict, b: dict) -> str:
    """``b`` against baseline ``a`` for one (workload, metric) pair.

    - *unchanged*: the values differ by no more than the bound (or the
      floor) and each side's own ``range`` is within it too;
    - *better* / *worse*: they differ by more, and the two sides' ranges
      do not overlap;
    - *unresolved*: the spread is too wide to say either.
    """
    bound = metric.bound
    if workload == "mixed_sessions" and metric.name in SIMULATED:
        bound = MIXED_SIMULATED_BOUND
    old, new = a["value"], b["value"]
    allowed = max(bound * abs(old), metric.floor)
    worse_by = new - old if metric.better == "lower" else old - new
    ranges = [side.get("range", [side["value"]] * 2) for side in (a, b)]
    if abs(worse_by) <= allowed:
        steady = all(hi - lo <= allowed for lo, hi in ranges)
        return "unchanged" if steady else "unresolved"
    (a_lo, a_hi), (b_lo, b_hi) = ranges
    if a_lo <= b_hi and b_lo <= a_hi:
        return "unresolved"
    return "worse" if worse_by > 0 else "better"


def compare(a: dict, b: dict) -> list[tuple]:
    """Rows ``(workload, metric, unit, old, new, change, verdict)``."""
    rows = []
    for workload, old_run in a["workloads"].items():
        new_run = b["workloads"].get(workload)
        if new_run is None:
            continue
        for metric in END_TO_END:
            old = old_run["end_to_end"][metric.name]
            new = new_run["end_to_end"][metric.name]
            change = (
                (new["value"] - old["value"]) / abs(old["value"])
                if old["value"]
                else 0.0
            )
            rows.append(
                (
                    workload,
                    metric.name,
                    metric.unit,
                    old["value"],
                    new["value"],
                    change,
                    verdict(metric, workload, old, new),
                )
            )
    return rows
