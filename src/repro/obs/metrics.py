"""Metrics registry: counters, gauges, and histograms with percentiles.

Zero-dependency and deliberately simple: metrics are identified by a name
plus sorted ``(label, value)`` pairs, histogram percentiles are computed on
read (recording is O(1)), and everything is guarded by one lock so the
deadlock monitor's thread can record sweeps concurrently with queries.

Histogram series are *bounded*: each keeps exact count / sum / min / max
forever, but retains at most ``histogram_cap`` samples via a deterministic
Algorithm-R reservoir (seeded from the series key, so two identically-fed
registries stay byte-identical).  Up to the cap, percentiles are exact
nearest-rank; past it they are nearest-rank over a uniform sample of the
full history — an approximation whose error shrinks as the cap grows, while
memory stays O(cap) per series no matter how long the system serves.

A disabled registry (``MetricsRegistry(enabled=False)``) turns every
recording call into an immediate return, which is what the E12 benchmark
measures the overhead of.
"""

from __future__ import annotations

import math
import random
import threading
import zlib

#: Key identifying one metric series: (name, ((label, value), ...)).
MetricKey = tuple

PERCENTILES = (50.0, 95.0, 99.0)


def _key(name: str, labels: dict[str, object]) -> MetricKey:
    # Zero or one label is every hot-path call: skip the generic sort.
    if not labels:
        return (name, ())
    if len(labels) == 1:
        for label, value in labels.items():
            return (name, ((label, str(value)),))
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty value list.

    ``pct`` is clamped to [0, 100]; a single-sample list returns that
    sample for every percentile, and ``pct=100`` returns the maximum.
    An empty list is a caller error and raises :class:`ValueError`
    (``histogram_summary`` returns ``None`` for never-observed series
    instead of calling this).
    """
    if not values:
        raise ValueError("percentile() of an empty value list")
    pct = max(0.0, min(100.0, pct))
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(pct / 100.0 * len(ordered)) - 1))
    return ordered[rank]


class _Histogram:
    """One bounded histogram series: exact aggregates + sample reservoir."""

    __slots__ = ("count", "total", "mn", "mx", "samples", "_rng")

    def __init__(self, seed: int):
        self.count = 0
        self.total = 0.0
        self.mn = math.inf
        self.mx = -math.inf
        self.samples: list[float] = []
        # Per-series RNG seeded from the series key: replacement decisions
        # are deterministic across runs and across identically-fed
        # registries (reports and bundles stay reproducible).
        self._rng = random.Random(seed)

    def observe(self, value: float, cap: int) -> None:
        self.count += 1
        self.total += value
        if value < self.mn:
            self.mn = value
        if value > self.mx:
            self.mx = value
        if len(self.samples) < cap:
            self.samples.append(value)
        else:
            # Algorithm R: keep each of the `count` observations with equal
            # probability cap/count.
            slot = self._rng.randrange(self.count)
            if slot < cap:
                self.samples[slot] = value

    def snapshot(self) -> tuple[int, float, float, float, list[float]]:
        return (self.count, self.total, self.mn, self.mx, list(self.samples))


def _summarize(
    snap: tuple[int, float, float, float, list[float]]
) -> dict[str, float] | None:
    count, total, mn, mx, samples = snap
    if not count:
        return None
    summary = {
        "count": float(count),
        "min": mn,
        "max": mx,
        "mean": total / count,
    }
    for pct in PERCENTILES:
        summary[f"p{pct:g}"] = percentile(samples, pct)
    return summary


class MetricsRegistry:
    """Federation-wide counters, gauges, and latency histograms."""

    def __init__(self, enabled: bool = True, histogram_cap: int = 512):
        self.enabled = enabled
        if histogram_cap < 1:
            raise ValueError("histogram_cap must be at least 1")
        self.histogram_cap = histogram_cap
        self._lock = threading.Lock()
        self._counters: dict[MetricKey, float] = {}
        self._gauges: dict[MetricKey, float] = {}
        self._histograms: dict[MetricKey, _Histogram] = {}

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels: object) -> None:
        if not self.enabled:
            return
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + amount

    @staticmethod
    def key(name: str, **labels: object) -> MetricKey:
        """The key of one series, for :meth:`inc_key`."""
        return _key(name, labels)

    def inc_key(self, key: MetricKey, amount: float = 1.0) -> None:
        """:meth:`inc` by a prebuilt :meth:`key`: a per-request hot path
        builds its series key once, not on every increment."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        if not self.enabled:
            return
        key = _key(name, labels)
        with self._lock:
            self._gauges[key] = value

    def observe(self, name: str, value: float, **labels: object) -> None:
        if not self.enabled:
            return
        key = _key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = _Histogram(
                    zlib.crc32(repr(key).encode())
                )
            hist.observe(value, self.histogram_cap)

    # -- reading -----------------------------------------------------------

    def counter(self, name: str, **labels: object) -> float:
        """Value of one counter series (0.0 when never incremented)."""
        with self._lock:
            return self._counters.get(_key(name, labels), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter over all its label combinations."""
        with self._lock:
            return sum(
                value
                for (metric, _), value in self._counters.items()
                if metric == name
            )

    def gauge(self, name: str, **labels: object) -> float | None:
        with self._lock:
            return self._gauges.get(_key(name, labels))

    def histogram_summary(
        self, name: str, **labels: object
    ) -> dict[str, float] | None:
        """count/min/max/mean/p50/p95/p99 of one histogram series.

        count/min/max/mean are exact over the full history; percentiles
        are nearest-rank over the series' reservoir (exact until the
        series exceeds ``histogram_cap`` observations).
        """
        with self._lock:
            hist = self._histograms.get(_key(name, labels))
            snap = hist.snapshot() if hist is not None else None
        return _summarize(snap) if snap is not None else None

    def counter_series(self) -> list[tuple[str, dict[str, str], float]]:
        """Every counter as ``(name, labels, value)``, sorted (exporters)."""
        with self._lock:
            items = sorted(self._counters.items())
        return [(name, dict(labels), value) for (name, labels), value in items]

    def gauge_series(self) -> list[tuple[str, dict[str, str], float]]:
        """Every gauge as ``(name, labels, value)``, sorted (exporters)."""
        with self._lock:
            items = sorted(self._gauges.items())
        return [(name, dict(labels), value) for (name, labels), value in items]

    def histogram_series(self) -> list[tuple[str, dict[str, str], dict]]:
        """Every histogram as ``(name, labels, summary)``, sorted.

        All series are snapshotted in **one** critical section, so the
        result is a consistent point-in-time view even while recorders
        are running (and the lock is taken once, not once per series).
        """
        with self._lock:
            snaps = sorted(
                (key, hist.snapshot())
                for key, hist in self._histograms.items()
            )
        out = []
        for (name, labels), snap in snaps:
            summary = _summarize(snap)
            if summary is not None:
                out.append((name, dict(labels), summary))
        return out

    def snapshot(self) -> dict[str, dict]:
        """Plain-dict dump of every series (stable ordering for reports).

        Counters, gauges, and every histogram are captured in a single
        critical section — one consistent cut across all three kinds.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {
                key: hist.snapshot()
                for key, hist in self._histograms.items()
            }
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for key in sorted(counters):
            out["counters"][_label_text(key)] = counters[key]
        for key in sorted(gauges):
            out["gauges"][_label_text(key)] = gauges[key]
        for key in sorted(histograms):
            out["histograms"][_label_text(key)] = _summarize(histograms[key])
        return out

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Text report of every metric, grouped by kind."""
        snap = self.snapshot()
        lines = ["== metrics =="]
        if not any(snap.values()):
            lines.append("(no metrics recorded)")
            return "\n".join(lines)
        if snap["counters"]:
            lines.append("-- counters --")
            width = max(len(k) for k in snap["counters"])
            for series, value in snap["counters"].items():
                lines.append(f"{series.ljust(width)}  {value:g}")
        if snap["gauges"]:
            lines.append("-- gauges --")
            width = max(len(k) for k in snap["gauges"])
            for series, value in snap["gauges"].items():
                lines.append(f"{series.ljust(width)}  {value:g}")
        if snap["histograms"]:
            lines.append("-- histograms --")
            for series, summary in snap["histograms"].items():
                stats = " ".join(
                    f"{stat}={value:.6g}" for stat, value in summary.items()
                )
                lines.append(f"{series}  {stats}")
        return "\n".join(lines)


def _label_text(key: MetricKey) -> str:
    name, labels = key
    if not labels:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{rendered}}}"
