"""Telemetry exporters and the post-mortem debug bundle.

Everything the in-memory observability layer collects becomes machine
readable here:

- :func:`spans_to_chrome_trace` — the tracer's span trees as Chrome
  trace-event JSON (open in Perfetto or chrome://tracing), one track per
  component site plus a coordinator track, in a wall-clock or a
  simulated-clock variant
- :func:`metrics_to_prometheus` — the metrics registry in Prometheus text
  exposition format (counters, gauges, histogram summaries with quantiles)
- :func:`metrics_to_json` — a stable JSON snapshot of every metric series
- :func:`dump_debug_bundle` / :func:`load_debug_bundle` — one directory
  holding traces + metrics + event log + report + config, written after a
  run (or a failure) and reloadable by ``python -m repro.obs.report``

The schema validators (:func:`validate_chrome_trace`,
:func:`validate_prometheus_text`) are exported too so tests, benchmarks, and
the CLI self-test all check the same contract.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

from repro.errors import MyriadError
from repro.obs.events import Event, load_events_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer

#: Bundle format marker written to (and checked in) MANIFEST.json.
BUNDLE_FORMAT = "myriad-debug-bundle/1"

DISABLED_MARKER = "# myriad observability disabled: nothing was recorded\n"


# ---------------------------------------------------------------------------
# Chrome trace-event JSON (Perfetto / chrome://tracing)
# ---------------------------------------------------------------------------


def _span_track(span: Span) -> str:
    """Track a span renders on: its tagged site, else the coordinator."""
    site = span.tags.get("site")
    return str(site) if site is not None else "coordinator"


def _collect_tracks(roots: list[Span]) -> list[str]:
    tracks: set[str] = set()

    def walk(span: Span) -> None:
        tracks.add(_span_track(span))
        for child in span.children:
            walk(child)

    for root in roots:
        walk(root)
    ordered = sorted(tracks - {"coordinator"})
    return ["coordinator"] + ordered


def _span_request(span: Span, inherited: str | None) -> str | None:
    """The request id in effect for a span (own tag, else ancestor's)."""
    own = span.tags.get("request")
    return str(own) if own is not None else inherited


def _sim_dur(span: Span) -> float:
    """Simulated duration of a span: its own, else the sum of its children."""
    if span.sim_s is not None:
        return span.sim_s
    return sum(_sim_dur(child) for child in span.children)


def spans_to_chrome_trace(tracer: Tracer, clock: str = "wall") -> dict:
    """Serialise retained span trees as a Chrome trace-event JSON object.

    ``clock="wall"`` places spans at their measured wall-clock offsets;
    ``clock="sim"`` lays them out on the simulated-network clock (children
    sequential within their parent, scaled to fit when concurrent branches
    sum past the parent's extent).  Timestamps are microseconds from the
    start of the earliest retained span.
    """
    if clock not in ("wall", "sim"):
        raise ValueError(f"unknown trace clock {clock!r}; use 'wall' or 'sim'")
    with tracer._lock:
        roots = list(tracer.roots)
    if not tracer.enabled:
        return {
            "traceEvents": [],
            "otherData": {"disabled": True, "clock": clock},
        }

    tracks = _collect_tracks(roots)
    tids = {name: index for index, name in enumerate(tracks)}
    events: list[dict] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": track},
        }
        for track, tid in tids.items()
    ]
    span_events: list[dict] = []

    def emit(
        span: Span,
        start_us: float,
        dur_us: float,
        request: str | None = None,
    ) -> None:
        args = {str(key): str(value) for key, value in span.tags.items()}
        # Children inherit the nearest ancestor's request id, so every
        # event of one request's tree is joinable in Perfetto by args.
        if request is not None and "request" not in args:
            args["request"] = request
        if span.error is not None:
            args["error"] = span.error
        span_events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": tids[_span_track(span)],
                "ts": round(start_us, 3),
                "dur": round(max(dur_us, 0.0), 3),
                "args": args,
            }
        )

    if clock == "wall":
        starts = []

        def collect_starts(span: Span) -> None:
            starts.append(span._start)
            for child in span.children:
                collect_starts(child)

        for root in roots:
            collect_starts(root)
        base = min(starts, default=0.0)

        def walk_wall(span: Span, request: str | None = None) -> None:
            request = _span_request(span, request)
            emit(span, (span._start - base) * 1e6, span.wall_s * 1e6, request)
            for child in span.children:
                walk_wall(child, request)

        for root in roots:
            walk_wall(root)
    else:
        cursor = 0.0

        def walk_sim(
            span: Span, start_s: float, request: str | None = None
        ) -> None:
            request = _span_request(span, request)
            duration = _sim_dur(span)
            emit(span, start_s * 1e6, duration * 1e6, request)
            child_total = sum(_sim_dur(child) for child in span.children)
            # Concurrent branches can sum past the parent's (max-based)
            # extent; scale them to fit so nesting stays visually sane and
            # start timestamps stay monotone.
            scale = 1.0
            if duration > 0 and child_total > duration:
                scale = duration / child_total
            offset = 0.0
            for child in span.children:
                walk_sim(child, start_s + offset * scale, request)
                offset += _sim_dur(child)

        for root in roots:
            walk_sim(root, cursor)
            cursor += max(_sim_dur(root), 1e-9)

    # Deterministic, per-track monotone file order (enclosing spans first).
    span_events.sort(key=lambda e: (e["tid"], e["ts"], -e["dur"]))
    events.extend(span_events)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": clock,
            "roots": len(roots),
            "spans_dropped": tracer.dropped,
        },
    }


def validate_chrome_trace(trace: dict) -> list[str]:
    """Schema-check one Chrome trace object; returns a list of problems.

    Checks the trace-event contract Perfetto relies on: a ``traceEvents``
    list, required keys per event, numeric non-negative ``ts``/``dur`` for
    complete ("X") events, and non-decreasing start timestamps per track in
    file order.
    """
    problems: list[str] = []
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        return ["trace must be an object with a 'traceEvents' list"]
    events = trace["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    last_ts: dict[tuple, float] = {}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                problems.append(f"{where}: missing required key {key!r}")
        if event.get("ph") == "M":
            continue
        if event.get("ph") != "X":
            problems.append(f"{where}: unexpected phase {event.get('ph')!r}")
            continue
        ts = event.get("ts")
        dur = event.get("dur")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: 'ts' must be a non-negative number")
            continue
        if not isinstance(dur, (int, float)) or dur < 0:
            problems.append(f"{where}: 'dur' must be a non-negative number")
        track = (event.get("pid"), event.get("tid"))
        if ts < last_ts.get(track, float("-inf")):
            problems.append(
                f"{where}: ts {ts} goes backwards on track {track}"
            )
        last_ts[track] = ts
    return problems


# ---------------------------------------------------------------------------
# Prometheus text exposition format
# ---------------------------------------------------------------------------

_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    return "myriad_" + _PROM_NAME_RE.sub("_", name)


def _prom_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    rendered = ",".join(
        '{}="{}"'.format(
            _PROM_NAME_RE.sub("_", key),
            str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"),
        )
        for key, value in sorted(merged.items())
    )
    return "{" + rendered + "}"


def _prom_number(value: float) -> str:
    return repr(float(value))


def metrics_to_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4).

    Counters get a ``_total`` suffix, histograms are exposed as summaries
    (``quantile`` labels plus ``_sum``/``_count``).  A disabled registry
    yields an explicit marker comment instead of an empty page.
    """
    if not registry.enabled:
        return DISABLED_MARKER
    lines: list[str] = []
    typed: set[str] = set()

    def header(name: str, kind: str, source: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# HELP {name} MYRIAD metric {source}")
            lines.append(f"# TYPE {name} {kind}")

    for name, labels, value in registry.counter_series():
        prom = _prom_name(name) + "_total"
        header(prom, "counter", name)
        lines.append(f"{prom}{_prom_labels(labels)} {_prom_number(value)}")
    for name, labels, value in registry.gauge_series():
        prom = _prom_name(name)
        header(prom, "gauge", name)
        lines.append(f"{prom}{_prom_labels(labels)} {_prom_number(value)}")
    for name, labels, summary in registry.histogram_series():
        prom = _prom_name(name)
        header(prom, "summary", name)
        for pct_label, stat in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            lines.append(
                f"{prom}{_prom_labels(labels, {'quantile': pct_label})} "
                f"{_prom_number(summary[stat])}"
            )
        lines.append(
            f"{prom}_sum{_prom_labels(labels)} "
            f"{_prom_number(summary['mean'] * summary['count'])}"
        )
        lines.append(
            f"{prom}_count{_prom_labels(labels)} "
            f"{_prom_number(summary['count'])}"
        )
    if not lines:
        lines.append("# no metrics recorded")
    return "\n".join(lines) + "\n"


_PROM_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"  # labels
    r" [-+]?(?:[0-9]*\.)?[0-9]+(?:[eE][-+]?[0-9]+)?$"  # value
)


def validate_prometheus_text(text: str) -> list[str]:
    """Line-format check of a Prometheus exposition page; returns problems."""
    problems: list[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        if not _PROM_SAMPLE_RE.match(line):
            problems.append(f"line {number}: malformed sample {line!r}")
    return problems


# ---------------------------------------------------------------------------
# JSON metrics snapshot
# ---------------------------------------------------------------------------


def metrics_to_json(registry: MetricsRegistry) -> str:
    """Stable (sorted-key) JSON snapshot of every metric series."""
    if not registry.enabled:
        return json.dumps({"disabled": True}, indent=2) + "\n"
    return json.dumps(registry.snapshot(), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Debug bundle: one post-mortem directory
# ---------------------------------------------------------------------------

_BUNDLE_FILES = (
    "trace_wall.json",
    "trace_sim.json",
    "metrics.prom",
    "metrics.json",
    "events.jsonl",
    "report.txt",
    "config.json",
    "introspection.json",
)


def _system_config(system) -> dict:
    """The installation's shape and options, for the bundle's config.json.

    Every :class:`~repro.config.Config` field is a flat key.  The live
    values replace three of them: the observability handle's threshold
    and sampling rate (its setter, or a caller-built network, can change
    them) and the coordinator's query timeout (a contention run sets it).
    """
    return {
        "sites": {
            site: type(dbms).__name__
            for site, dbms in sorted(system.components.items())
        },
        "federations": {
            federation.name: sorted(federation.relations)
            for federation in system.federations.values()
        },
        **dataclasses.asdict(system.config),
        "query_timeout": system.transactions.query_timeout,
        "fault_injector": system.network.faults is not None,
        "slow_query_threshold_s": system.obs.slow_query_threshold_s,
        "trace_sample_rate": system.obs.tracer.sample_rate,
        "slos": sorted(system.obs.slos),
    }


def dump_debug_bundle(system, directory) -> Path:
    """Write one post-mortem directory for a :class:`MyriadSystem` run.

    Contents: Perfetto traces (wall + sim clocks), Prometheus and JSON
    metrics, the JSONL event log, the rendered observability report, the
    system config, a live introspection snapshot, and a MANIFEST.  Raises
    :class:`~repro.errors.MyriadError` on a disabled handle — a bundle of
    empty telemetry would be indistinguishable from a quiet run.
    """
    obs = system.obs
    if not obs.enabled:
        raise MyriadError(
            "cannot dump a debug bundle: observability is disabled "
            "(construct the system with observability=True)"
        )
    from repro.obs.introspect import introspection_snapshot

    # Publish the rolling-window gauges *before* rendering anything: the
    # metrics files below are built first, but the report also publishes
    # these gauges, and both must agree (selftest compares them byte for
    # byte).  Re-publishing at a fixed simulated clock is idempotent.
    obs.publish_window_gauges()

    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    contents = {
        "trace_wall.json": json.dumps(
            spans_to_chrome_trace(obs.tracer, clock="wall"), indent=2
        )
        + "\n",
        "trace_sim.json": json.dumps(
            spans_to_chrome_trace(obs.tracer, clock="sim"), indent=2
        )
        + "\n",
        "metrics.prom": metrics_to_prometheus(obs.metrics),
        "metrics.json": metrics_to_json(obs.metrics),
        "events.jsonl": obs.events.to_jsonl(),
        "report.txt": system.observability_report(),
        "config.json": json.dumps(_system_config(system), indent=2) + "\n",
        "introspection.json": json.dumps(
            introspection_snapshot(system), sort_keys=True, indent=2, default=str
        )
        + "\n",
    }
    for name, text in contents.items():
        (path / name).write_text(text)
    manifest = {
        "format": BUNDLE_FORMAT,
        "files": sorted(contents),
        "events": len(obs.events),
        "events_dropped": obs.events.dropped,
        "span_roots": len(obs.tracer.roots),
        "spans_dropped": obs.tracer.dropped,
        "spans_sampled_out": obs.tracer.sampled_out,
    }
    (path / "MANIFEST.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return path


class DebugBundle:
    """A reloaded debug bundle (see :func:`load_debug_bundle`)."""

    def __init__(self, path: Path, manifest: dict):
        self.path = path
        self.manifest = manifest

    def _read(self, name: str) -> str:
        return (self.path / name).read_text()

    @property
    def report(self) -> str:
        """The run's observability report, byte-for-byte as dumped."""
        return self._read("report.txt")

    @property
    def metrics(self) -> dict:
        return json.loads(self._read("metrics.json"))

    @property
    def prometheus(self) -> str:
        return self._read("metrics.prom")

    @property
    def events(self) -> list[Event]:
        return load_events_jsonl(self._read("events.jsonl"))

    @property
    def config(self) -> dict:
        return json.loads(self._read("config.json"))

    @property
    def introspection(self) -> dict:
        return json.loads(self._read("introspection.json"))

    def trace(self, clock: str = "wall") -> dict:
        if clock not in ("wall", "sim"):
            raise ValueError(f"unknown trace clock {clock!r}")
        return json.loads(self._read(f"trace_{clock}.json"))

    def validate(self) -> list[str]:
        """Re-run the schema validators over the bundle's artifacts."""
        problems = []
        for clock in ("wall", "sim"):
            problems.extend(
                f"trace_{clock}.json: {p}"
                for p in validate_chrome_trace(self.trace(clock))
            )
        problems.extend(
            f"metrics.prom: {p}"
            for p in validate_prometheus_text(self.prometheus)
        )
        return problems


def load_debug_bundle(directory) -> DebugBundle:
    """Open a directory written by :func:`dump_debug_bundle`."""
    path = Path(directory)
    manifest_path = path / "MANIFEST.json"
    if not manifest_path.exists():
        raise MyriadError(f"{path} is not a debug bundle (no MANIFEST.json)")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != BUNDLE_FORMAT:
        raise MyriadError(
            f"unsupported bundle format {manifest.get('format')!r} "
            f"(expected {BUNDLE_FORMAT!r})"
        )
    missing = [
        name for name in manifest.get("files", []) if not (path / name).exists()
    ]
    if missing:
        raise MyriadError(f"debug bundle {path} is missing files: {missing}")
    return DebugBundle(path, manifest)
