"""EXPLAIN ANALYZE for global queries.

Renders an executed :class:`~repro.query.executor.GlobalResult` as the plan
that ran, annotated per fetch with the *actual* rows / bytes / simulated
time measured during execution next to the optimizer's *estimates* — so the
paper's simple-vs-full-fledged optimizer claims (experiment E2) are
auditable from a single report: a bad estimate shows up as an est/actual gap
on the exact fetch that caused it.

This module only formats; the measurements are collected by
:class:`~repro.query.executor.GlobalExecutor` (one :class:`FetchActual` per
fetch) and the estimates by the optimizers (stored on each
:class:`~repro.query.localizer.Fetch`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class FetchActual:
    """Measured execution of one fetch: what actually crossed the wire."""

    rows: int = 0
    bytes: int = 0
    messages: int = 0
    sim_s: float = 0.0
    wall_s: float = 0.0
    #: True when the fragment came from the federation-site fragment cache
    #: (zero messages crossed the wire for this fetch).
    cached: bool = False
    #: Pre-compression bytes of this fetch's messages; equals ``bytes``
    #: unless wire compression shrank the result payload.
    raw_bytes: int = 0
    #: Column-encoding summary of the shipped fragment (e.g. ``"dict,rle"``)
    #: when wire compression encoded it; None otherwise.
    codec: str | None = None
    #: Rows the component engine scanned to answer this fetch (its access
    #: path seen from outside: an index probe scans what it returns, a
    #: bypassed index scans the whole table); None for cache hits.
    scanned: int | None = None
    #: How the component engine ran it: ``"batch"`` or ``"row"``; None
    #: for cache hits.
    strategy: str | None = None


def _fmt_est(value: float | None, unit: str = "") -> str:
    if value is None:
        return "?"
    if unit == "ms":
        return f"{value * 1000:.3f}ms"
    return f"{value:.0f}"


def render_explain_analyze(result) -> str:
    """Text report: executed plan with per-fetch actuals vs. estimates.

    ``result`` is a :class:`~repro.query.executor.GlobalResult`; duck-typed
    here to keep the observability layer free of query-layer imports.
    """
    plan = result.plan
    trace = result.trace
    missing = set(getattr(result, "missing_sites", ()) or ())
    header = f"EXPLAIN ANALYZE GlobalPlan[{plan.strategy}]"
    request_id = getattr(result, "request_id", None)
    if request_id is not None:
        # The same id is on the execution's spans, events, and message
        # records, so a debug bundle joins this report to its trace.
        header += f" request={request_id}"
    lines = [header]
    if getattr(result, "degraded", False):
        lines.append(
            "  DEGRADED: partial result, missing sites: "
            + ", ".join(sorted(missing))
        )
    estimated = (
        f"{plan.estimated_cost_s * 1000:.3f}ms"
        if plan.estimated_cost_s is not None
        else "?"
    )
    lines.append(
        f"  plan: estimated cost {estimated}; "
        f"measured {trace.elapsed_s * 1000:.3f}ms simulated, "
        f"{trace.message_count} messages, {trace.total_bytes} bytes"
    )
    for fetch in plan.fetches:
        lines.append("  " + plan.fetch_summary(fetch))
        replanned = (
            " (replanned)" if getattr(fetch, "replanned", False) else ""
        )
        lines.append(
            "    est:    rows={} bytes={} time={}{}".format(
                _fmt_est(fetch.est_rows),
                _fmt_est(fetch.est_bytes),
                _fmt_est(fetch.est_cost_s, "ms"),
                replanned,
            )
        )
        actual = result.fetch_actuals.get(fetch.index)
        if actual is None:
            if fetch.site in missing:
                lines.append(
                    f"    actual: (skipped: site {fetch.site!r} unreachable, "
                    "empty fragment substituted)"
                )
            else:
                lines.append("    actual: (not executed)")
            continue
        cached = " cached" if actual.cached else ""
        wire = ""
        if actual.raw_bytes > actual.bytes:
            saved = 100.0 * (1 - actual.bytes / actual.raw_bytes)
            codec = f" codec={actual.codec}" if actual.codec else ""
            wire = f" raw={actual.raw_bytes} (-{saved:.0f}%{codec})"
        scanned = ""
        if actual.scanned is not None:
            scanned = f" scanned={actual.scanned} {actual.strategy}"
        lines.append(
            f"    actual: rows={actual.rows}{scanned} bytes={actual.bytes}{wire} "
            f"time={actual.sim_s * 1000:.3f}ms "
            f"(msgs={actual.messages}, wall={actual.wall_s * 1000:.3f}ms)"
            f"{cached}"
        )
    for note in plan.notes:
        lines.append(f"  note: {note}")
    from repro.sql.printer import SQLPrinter

    lines.append("  residual: " + SQLPrinter().print_query(plan.query))
    residual = getattr(result, "residual", None)
    if residual is not None:
        # The federation-site engine's path and scan work on the residual.
        lines.append(
            f"    engine: {residual.strategy}, "
            f"{residual.rows_scanned} rows scanned"
        )
    lines.append(
        f"  result: {len(result.rows)} rows "
        f"({result.fetched_rows} fetched from {len(plan.fetches)} fragments)"
    )
    return "\n".join(lines)
