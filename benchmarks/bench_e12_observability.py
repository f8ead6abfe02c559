"""E12 — Observability: tracing/metrics overhead and EXPLAIN ANALYZE.

Claims validated:

1. The observability layer is *virtually free*: spans and metrics record
   wall-clock measurements only — the simulated network cost of a query is
   bit-identical with observability on and off.
2. It is *actually cheap*: on the E8 scale-out workload, full tracing +
   metrics adds **< 5 %** real wall-clock overhead versus a system built
   with ``observability=False``.
3. The collected telemetry is useful: the rendered metrics report and an
   ``EXPLAIN ANALYZE`` of a cross-site join are emitted as artifacts.
"""

import time

from conftest import RESULTS_DIR, emit

from repro.workloads import build_partitioned_sites, build_two_site_join

SITE_COUNT = 4
ROWS_PER_SITE = 400
SQL_AGG = (
    "SELECT grp, COUNT(*), AVG(val) FROM measurements "
    "GROUP BY grp ORDER BY grp"
)
SQL_FILTER = "SELECT k FROM measurements WHERE val < 0.05"

#: Overhead measurement: best-of-BATCHES batches of BATCH_QUERIES queries,
#: in pairs that alternate which system runs first, so scheduler noise and
#: any drift within a pair hit both alike.
BATCHES = 15
BATCH_QUERIES = 3


def _build(observability: bool):
    # Fragment caching is off, as in E18: with it on every timed query is
    # a cache hit, and the gate would weigh telemetry against a cache
    # lookup instead of the four-site fetch workload described above.
    return build_partitioned_sites(
        SITE_COUNT,
        ROWS_PER_SITE,
        seed=81,
        observability=observability,
        fragment_cache=False,
    )


def _batch_seconds(system) -> float:
    start = time.perf_counter()
    for _ in range(BATCH_QUERIES):
        system.query("synth", SQL_AGG)
    return time.perf_counter() - start


def test_e12_overhead(benchmark):
    enabled = _build(observability=True)
    disabled = _build(observability=False)

    # Claim 1: identical results and identical *simulated* cost — the
    # observability layer adds zero virtual seconds, bytes, or messages.
    result_on = enabled.query("synth", SQL_AGG)
    result_off = disabled.query("synth", SQL_AGG)
    assert result_on.rows == result_off.rows
    assert result_on.elapsed_s == result_off.elapsed_s
    assert result_on.bytes_shipped == result_off.bytes_shipped
    assert result_on.trace.message_count == result_off.trace.message_count

    # Claim 2: < 5 % wall-clock overhead, best-of-batches (alternating so
    # transient machine noise cannot bias one side).
    on_times, off_times = [], []
    for pair in range(BATCHES):
        if pair % 2:
            off_times.append(_batch_seconds(disabled))
            on_times.append(_batch_seconds(enabled))
        else:
            on_times.append(_batch_seconds(enabled))
            off_times.append(_batch_seconds(disabled))
    best_on, best_off = min(on_times), min(off_times)
    overhead = best_on / best_off - 1.0

    emit(
        "E12",
        f"observability overhead on the E8 workload "
        f"({SITE_COUNT} sites x {ROWS_PER_SITE} rows)",
        ["mode", "best_batch_ms", "sim_ms", "overhead_pct"],
        [
            ("off", best_off * 1000, result_off.elapsed_s * 1000, 0.0),
            (
                "on",
                best_on * 1000,
                result_on.elapsed_s * 1000,
                overhead * 100,
            ),
        ],
    )
    assert overhead < 0.05, (
        f"observability overhead {overhead:.1%} exceeds the 5% budget "
        f"(on={best_on * 1000:.2f}ms, off={best_off * 1000:.2f}ms)"
    )

    benchmark(lambda: enabled.query("synth", SQL_AGG))


def test_e12_metrics_report(benchmark):
    """Run a mixed workload and persist the rendered telemetry report."""
    system = _build(observability=True)
    for _ in range(3):
        system.query("synth", SQL_AGG)
    system.query("synth", SQL_FILTER, optimizer="simple")
    system.query("synth", SQL_FILTER, optimizer="cost")

    metrics = system.metrics
    # every site shipped rows, every purpose was counted
    for index in range(SITE_COUNT):
        assert metrics.counter("site.rows_shipped", site=f"p{index}") > 0
    assert metrics.counter("net.messages", purpose="query") > 0
    assert metrics.counter("net.messages", purpose="result") > 0
    assert metrics.counter_total("query.executed") == 5
    latency = metrics.histogram_summary("query.sim_elapsed_s")
    assert latency["count"] == 5
    assert latency["p50"] <= latency["p95"] <= latency["p99"]

    # EXPLAIN ANALYZE on a cross-site join (the E2 query shape), both
    # optimizer strategies.
    join_system = build_two_site_join(200, 200, seed=7)
    join_sql = (
        "SELECT lhs.k, rhs.val FROM lhs, rhs "
        "WHERE lhs.k = rhs.k AND lhs.flt < 0.5"
    )
    explains = []
    for strategy in ("simple", "cost"):
        result = join_system.query("synth", join_sql, optimizer=strategy)
        explains.append(result.explain_analyze())
        assert f"GlobalPlan[{strategy}]" in explains[-1]

    RESULTS_DIR.mkdir(exist_ok=True)
    report = RESULTS_DIR / "e12_metrics_report.txt"
    report.write_text(
        "# E12: rendered observability report (mixed workload)\n\n"
        + system.observability_report(last_spans=4)
        + "\n\n# EXPLAIN ANALYZE: two-site join, both strategies\n\n"
        + "\n\n".join(explains)
        + "\n"
    )
    print(f"\nwrote {report}", flush=True)

    benchmark(lambda: system.observability_report(last_spans=4))
