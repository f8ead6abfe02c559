"""E2 — Simple vs. full-fledged optimization.

Claim validated (paper §2): the initially-implemented *simple* strategy is
a baseline; the cost-based optimizer (selection/projection pushdown) wins on
distributed queries, with the gap growing as predicates get more selective
and relations get bigger.
"""

import pytest
from conftest import emit

from repro.workloads import build_two_site_join

SELECTIVITIES = [0.01, 0.1, 0.5, 1.0]
SIZES = [200, 1000, 3000]


def _build(size: int, seed: int):
    # Every query must reach the gateways: a fragment cached by one
    # optimizer's run would let the other's same fetch ship 0 bytes.
    return build_two_site_join(
        size, size, match_fraction=0.5, seed=seed, fragment_cache=False
    )


def test_e2_selectivity_sweep(benchmark):
    system = _build(2000, seed=21)
    rows = []
    for selectivity in SELECTIVITIES:
        sql = f"SELECT k, pad FROM lhs WHERE flt < {selectivity}"
        simple = system.query("synth", sql, optimizer="simple")
        cost = system.query("synth", sql, optimizer="cost")
        assert sorted(simple.rows) == sorted(cost.rows)
        rows.append(
            (
                selectivity,
                simple.bytes_shipped,
                cost.bytes_shipped,
                simple.elapsed_s * 1000,
                cost.elapsed_s * 1000,
                simple.elapsed_s / max(cost.elapsed_s, 1e-9),
            )
        )
    emit(
        "E2a",
        "optimizer vs selectivity (2000-row relation, bytes + simulated ms)",
        ["sel", "simple_B", "cost_B", "simple_ms", "cost_ms", "speedup"],
        rows,
    )
    # Shape assertions: cost never worse; gap grows as selectivity shrinks.
    speedups = [row[5] for row in rows]
    assert all(s >= 0.99 for s in speedups)
    assert speedups[0] > speedups[-1]

    benchmark(
        lambda: system.query(
            "synth", "SELECT k, pad FROM lhs WHERE flt < 0.1", optimizer="cost"
        )
    )


def test_e2_size_sweep(benchmark):
    rows = []
    for size in SIZES:
        system = _build(size, seed=22)
        sql = "SELECT k, pad FROM lhs WHERE flt < 0.05"
        simple = system.query("synth", sql, optimizer="simple")
        cost = system.query("synth", sql, optimizer="cost")
        assert sorted(simple.rows) == sorted(cost.rows)
        rows.append(
            (
                size,
                simple.bytes_shipped,
                cost.bytes_shipped,
                simple.elapsed_s * 1000,
                cost.elapsed_s * 1000,
                simple.elapsed_s / max(cost.elapsed_s, 1e-9),
            )
        )
    emit(
        "E2b",
        "optimizer vs relation size (selectivity 0.05)",
        ["rows", "simple_B", "cost_B", "simple_ms", "cost_ms", "speedup"],
        rows,
    )
    # The absolute saving grows with size.
    savings = [row[1] - row[2] for row in rows]
    assert savings == sorted(savings)

    small = _build(200, seed=22)
    benchmark(
        lambda: small.query(
            "synth", "SELECT k, pad FROM lhs WHERE flt < 0.05", optimizer="cost"
        )
    )


def test_e2_estimates_track_measurements(benchmark):
    """The cost model's estimate and the measured virtual time correlate."""
    system = _build(1500, seed=23)
    processor = system.processor("synth")
    benchmark.pedantic(
        lambda: processor.plan("SELECT k FROM lhs WHERE flt < 0.1", "cost"),
        rounds=3,
        iterations=1,
    )
    pairs = []
    for selectivity in SELECTIVITIES:
        sql = f"SELECT k, pad FROM lhs WHERE flt < {selectivity}"
        plan = processor.plan(sql, "cost")
        measured = processor.executor.execute(plan)
        pairs.append((plan.estimated_cost_s, measured.elapsed_s))
    # Estimates must be monotone in the same direction as measurements.
    estimated_order = sorted(range(len(pairs)), key=lambda i: pairs[i][0])
    measured_order = sorted(range(len(pairs)), key=lambda i: pairs[i][1])
    assert estimated_order == measured_order
    for estimated, measured in pairs:
        assert estimated == pytest.approx(measured, rel=1.0)
