"""Observability: span tracing, metrics, and EXPLAIN ANALYZE.

The paper's experiments reason about *why* a plan was chosen and *where* a
global operation spends its time; this package makes both first-class
instead of ad-hoc :class:`~repro.net.MessageTrace` arithmetic:

- :class:`Tracer` / :class:`~repro.obs.trace.Span` — nested spans threaded
  through the query processor, executor, gateways, 2PC coordinator, and
  deadlock monitor, carrying wall-clock and simulated durations
- :class:`MetricsRegistry` — counters / gauges / histograms (p50/p95/p99)
  for rows and bytes shipped per site, messages by purpose, fetch latency,
  2PC outcomes, deadlock aborts, and fault-injector drops
- :func:`render_explain_analyze` — the executed plan annotated with actual
  per-fetch rows/bytes/time against the optimizer's estimates
  (``GlobalResult.explain_analyze()``)

One :class:`Observability` handle bundles a tracer and a registry; a
:class:`~repro.myriad.MyriadSystem` owns one (``system.obs``, with
``system.metrics`` / ``system.tracer`` shortcuts) and shares it with every
layer through the simulated :class:`~repro.net.Network`.  Everything is
zero-dependency and near-free when disabled
(``MyriadSystem(observability=False)``).
"""

from __future__ import annotations

import itertools

from repro.obs.events import Event, EventLog, load_events_jsonl
from repro.obs.explain import FetchActual, render_explain_analyze
from repro.obs.metrics import MetricsRegistry, percentile
from repro.obs.slo import SLO, BurnRateRule
from repro.obs.trace import NULL_SPAN, Span, Tracer
from repro.obs.window import WindowedMetrics

#: Marker returned by reports/exporters when observability is off, so a
#: disabled handle can never be mistaken for a quiet (but observed) run.
DISABLED_REPORT = (
    "observability disabled: no metrics, traces, or events were recorded\n"
    "(construct the system with observability=True to collect telemetry)"
)


class Observability:
    """One tracer + metrics registry + event log, enabled or disabled together."""

    def __init__(
        self,
        enabled: bool = True,
        max_roots: int = 64,
        max_events: int = 4096,
        slow_query_threshold_s: float | None = 1.0,
        trace_sample_rate: float = 1.0,
        window_bucket_s: float = 0.5,
        window_buckets: int = 120,
    ):
        self.enabled = enabled
        self.tracer = Tracer(
            enabled=enabled, max_roots=max_roots, sample_rate=trace_sample_rate
        )
        self.metrics = MetricsRegistry(enabled=enabled)
        self.events = EventLog(enabled=enabled, max_events=max_events)
        # Evicted root spans surface as the obs.spans_dropped counter.
        self.tracer.metrics = self.metrics
        #: Queries whose *simulated* latency crosses this threshold emit a
        #: ``query.slow`` event (with a plan digest); ``None`` disables.
        self.slow_query_threshold_s = slow_query_threshold_s
        #: Rolling QPS / error-rate / latency percentiles over recent
        #: simulated time; clock bound by the owning system.
        self.window = WindowedMetrics(
            enabled=enabled,
            bucket_s=window_bucket_s,
            bucket_count=window_buckets,
        )
        #: Registered :class:`~repro.obs.slo.SLO` objects by name, fed by
        #: :meth:`record_request` and evaluated on every request.
        self.slos: dict[str, SLO] = {}
        self._clock = lambda: 0.0
        self._request_ids = itertools.count(1)
        #: ``span(name, **tags)``: the tracer's own method,
        #: bound here so a span costs no extra call layer.
        self.span = self.tracer.span

    def emit(self, etype: str, sim_s: float | None = None, **fields: object):
        """Record one structured event (no-op when disabled)."""
        return self.events.emit(etype, sim_s=sim_s, **fields)

    # -- request correlation -----------------------------------------------

    def mint_request_id(self) -> str:
        """A new installation-unique request id (e.g. ``req-000042``).

        Minted even on a disabled handle: request correlation is part of
        the result contract, not a telemetry feature, and the counter
        costs nothing on the simulated clock.
        """
        return f"req-{next(self._request_ids):06d}"

    # -- windows & SLOs ------------------------------------------------------

    def bind_clock(self, clock) -> None:
        """Point the window/SLO machinery at a clock (``Network.now_s``)."""
        self._clock = clock
        self.window.clock = clock
        for slo in self.slos.values():
            slo.clock = clock

    def add_slo(
        self,
        name: str,
        objective: float = 0.999,
        kind: str = "availability",
        threshold_s: float | None = None,
        rules=None,
    ) -> SLO:
        """Register an SLO fed by every :meth:`record_request`."""
        if name in self.slos:
            raise ValueError(f"SLO {name!r} already registered")
        slo = SLO(
            name,
            objective=objective,
            kind=kind,
            threshold_s=threshold_s,
            rules=rules,
            clock=self._clock,
            obs=self,
        )
        self.slos[name] = slo
        return slo

    def record_request(
        self,
        ok: bool,
        sim_latency_s: float,
        federation: str | None = None,
    ) -> None:
        """Feed one finished request into the window and every SLO.

        ``ok`` means the request succeeded *and* was not degraded; the
        latency is simulated seconds.  The ``query.latency_s`` series
        counts the requests too (failures also count under
        ``query.errors``).  Each call re-evaluates the registered SLOs, so
        burn-rate alerts fire (and clear) on the request path itself — no
        separate evaluation thread.
        """
        if not self.enabled:
            return
        labels = {"federation": federation} if federation else {}
        window = self.window
        if not ok:
            window.inc("query.errors", **labels)
        window.observe("query.latency_s", sim_latency_s, **labels)
        for slo in self.slos.values():
            slo.record(ok, sim_latency_s)
            slo.evaluate()

    def evaluate_slos(self) -> list[dict]:
        """Force one evaluation pass (clock-driven clears between requests)."""
        return [slo.evaluate() for slo in self.slos.values()]

    def active_alerts(self) -> list[dict]:
        """Status of every SLO whose burn-rate alert is currently firing."""
        return [
            slo.status()
            for _, slo in sorted(self.slos.items())
            if slo.alert_active
        ]

    def publish_window_gauges(self) -> None:
        """Refresh ``window.*`` gauges from the rolling window.

        Idempotent at a fixed simulated clock, so exporters may call it
        freely: a debug bundle's Prometheus page and a report rendered
        right after both see the same values.
        """
        if not self.enabled:
            return
        window = self.window
        metrics = self.metrics
        span = window.window_s
        for labels in window.label_sets("query.latency_s"):
            requests = window.count("query.latency_s", **labels)
            errors = window.count("query.errors", **labels)
            metrics.set_gauge("window.qps", requests / span, **labels)
            metrics.set_gauge(
                "window.error_rate",
                errors / requests if requests else 0.0,
                **labels,
            )
            summary = window.summary("query.latency_s", **labels)
            if summary is None:
                continue
            for stat in ("p50", "p95", "p99"):
                metrics.set_gauge(
                    f"window.latency_{stat}_s", summary[stat], **labels
                )
        for labels in window.label_sets("site.requests"):
            metrics.set_gauge(
                "window.site_qps",
                window.count("site.requests", **labels) / span,
                **labels,
            )
        for labels in window.label_sets("site.latency_s"):
            summary = window.summary("site.latency_s", **labels)
            if summary is not None:
                metrics.set_gauge(
                    "window.site_latency_p95_s", summary["p95"], **labels
                )

    def reset(self) -> None:
        self.tracer.clear()
        self.metrics.reset()
        self.events.clear()
        self.window.reset()

    def render(self, last_spans: int | None = None, last_events: int | None = 20) -> str:
        """Combined text dump: metrics, event tail, recent span trees.

        A disabled handle returns an explicit marker instead of empty
        sections — empty telemetry and no telemetry are different facts.
        """
        if not self.enabled:
            return DISABLED_REPORT
        self.publish_window_gauges()
        return (
            self.metrics.render()
            + "\n\n"
            + self.events.render(last=last_events)
            + "\n\n== traces (most recent last) ==\n"
            + self.tracer.render(last=last_spans)
        )


#: Shared no-op handle used wherever no observability was configured.
DISABLED = Observability(enabled=False)


def obs_of(network) -> Observability:
    """The observability handle attached to a network, else DISABLED."""
    obs = getattr(network, "obs", None)
    return obs if obs is not None else DISABLED


__all__ = [
    "DISABLED",
    "DISABLED_REPORT",
    "BurnRateRule",
    "Event",
    "EventLog",
    "FetchActual",
    "MetricsRegistry",
    "NULL_SPAN",
    "Observability",
    "SLO",
    "Span",
    "Tracer",
    "WindowedMetrics",
    "load_events_jsonl",
    "obs_of",
    "percentile",
    "render_explain_analyze",
]
