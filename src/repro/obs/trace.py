"""Span tracing for global operations.

A :class:`Tracer` records *spans* — named, tagged intervals with parent/child
nesting — for the stages of a global query (parse → expand → plan → execute,
then per-stage and per-fetch inside the executor) and the phases of a global
transaction (begin / prepare / decide / deliver / retry).

Each span carries two durations:

- **wall-clock seconds** (``wall_s``): real Python time spent, measured with
  :func:`time.perf_counter` — what profiling the reproduction itself needs
- **simulated seconds** (``sim_s``): virtual time on the modelled network,
  set explicitly by instrumented code from :class:`~repro.net.MessageTrace`
  deltas — what the paper's experiments measure

The tracer is zero-dependency, thread-safe (the deadlock monitor records
sweeps from its own thread), and cheap when disabled: ``span()`` returns a
shared no-op span and touches nothing else.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.obs.metrics import MetricsRegistry

#: Bumped on every root eviction, i.e. per query once the ring is full.
_SPANS_DROPPED = MetricsRegistry.key("obs.spans_dropped")


class Span:
    """One traced interval; use as a context manager via ``Tracer.span``."""

    __slots__ = (
        "name",
        "tags",
        "parent",
        "children",
        "wall_s",
        "sim_s",
        "error",
        "_tracer",
        "_start",
    )

    def __init__(self, name: str, tags: dict[str, object], tracer: "Tracer"):
        self.name = name
        self.tags = tags
        self.parent: Span | None = None
        self.children: list[Span] = []
        self.wall_s = 0.0
        self.sim_s: float | None = None
        self.error: str | None = None
        self._tracer = tracer
        self._start = 0.0

    # -- annotation --------------------------------------------------------

    def tag(self, **tags: object) -> "Span":
        self.tags.update(tags)
        return self

    def set_sim(self, seconds: float) -> "Span":
        """Record the simulated-clock duration of this span."""
        self.sim_s = seconds
        return self

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_s = time.perf_counter() - self._start
        if exc_type is not None:
            self.error = f"{exc_type.__name__}: {exc}"
        self._tracer._pop(self)
        return False

    def render(self, indent: int = 0) -> list[str]:
        tags = " ".join(f"{k}={v}" for k, v in self.tags.items())
        parts = [f"{'  ' * indent}{self.name}"]
        if tags:
            parts.append(f"[{tags}]")
        parts.append(f"wall={self.wall_s * 1000:.3f}ms")
        if self.sim_s is not None:
            parts.append(f"sim={self.sim_s * 1000:.3f}ms")
        if self.error is not None:
            parts.append(f"ERROR({self.error})")
        lines = [" ".join(parts)]
        for child in self.children:
            lines.extend(child.render(indent + 1))
        return lines

    def find(self, name: str) -> list["Span"]:
        """This span's subtree members named ``name`` (depth-first)."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, wall={self.wall_s * 1000:.3f}ms)"


class _NullSpan:
    """Shared no-op span handed out by a disabled tracer."""

    __slots__ = ()

    def tag(self, **tags: object) -> "_NullSpan":
        return self

    def set_sim(self, seconds: float) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


def _subtree_error(span: Span) -> bool:
    """True when this span or any descendant recorded an error."""
    if span.error is not None:
        return True
    return any(_subtree_error(child) for child in span.children)


class Tracer:
    """Records span trees for recent global operations.

    Spans opened while another span is open on the same thread nest under
    it; a span with no parent is a *root* and is kept (bounded by
    ``max_roots``, oldest evicted first) for :meth:`render` and inspection.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_roots: int = 64,
        sample_rate: float = 1.0,
    ):
        self.enabled = enabled
        self.roots: deque[Span] = deque(maxlen=max_roots)
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Root spans evicted because the buffer was full.  Surfaced in the
        #: observability report and (via ``metrics``, when wired) as the
        #: ``obs.spans_dropped`` counter so a truncated trace is never
        #: mistaken for a complete one.
        self.dropped = 0
        #: Tail-based sampling: the fraction of *uninteresting* root spans
        #: retained.  The keep/drop decision happens when the root
        #: completes, so a trace that turned out slow, errored, degraded,
        #: or re-planned (``error`` set anywhere in the tree, or a
        #: ``sample_keep`` tag on the root) is **always** kept; the rest
        #: are admitted at this rate.  1.0 keeps everything (default).
        self.sample_rate = sample_rate
        #: Healthy root spans discarded by tail sampling (distinct from
        #: ``dropped``: sampling is a policy choice, eviction is overflow).
        self.sampled_out = 0
        self._sample_debt = 0.0
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry`; set by the
        #: owning :class:`~repro.obs.Observability` handle.
        self.metrics = None

    # -- span creation -----------------------------------------------------

    def span(self, name: str, **tags: object) -> Span | _NullSpan:
        """Create a span; on entry it nests under this thread's innermost
        open span, or becomes a root."""
        if not self.enabled:
            return NULL_SPAN
        return Span(name, tags, self)

    def current(self) -> Span | None:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    # -- internal stack management ----------------------------------------

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            # Only this thread opens spans under its own stack's top, so
            # the append needs no lock.
            span.parent = stack[-1]
            stack[-1].children.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # pragma: no cover - defensive
            stack.remove(span)
        if span.parent is None:
            with self._lock:
                if not self._keep_root(span):
                    self.sampled_out += 1
                    if self.metrics is not None:
                        self.metrics.inc("obs.spans_sampled_out")
                    return
                if (
                    self.roots.maxlen is not None
                    and len(self.roots) == self.roots.maxlen
                ):
                    self.dropped += 1
                    if self.metrics is not None:
                        self.metrics.inc_key(_SPANS_DROPPED)
                self.roots.append(span)

    def _keep_root(self, span: Span) -> bool:
        """Tail-sampling verdict for a completed root (lock held).

        Interesting traces — any error in the tree, or a ``sample_keep``
        tag set by instrumented code (slow / degraded / replanned) — are
        always retained.  The rest pass at ``sample_rate``, via an exact
        deterministic debt accumulator (no RNG: every ``1/rate``-th
        healthy root is kept).
        """
        rate = self.sample_rate
        if rate >= 1.0:
            return True
        if "sample_keep" in span.tags or _subtree_error(span):
            return True
        if rate <= 0.0:
            return False
        self._sample_debt += rate
        if self._sample_debt >= 1.0:
            self._sample_debt -= 1.0
            return True
        return False

    # -- inspection --------------------------------------------------------

    def find(self, name: str) -> list[Span]:
        """All recorded spans named ``name`` across retained roots."""
        with self._lock:
            roots = list(self.roots)
        found: list[Span] = []
        for root in roots:
            found.extend(root.find(name))
        return found

    def clear(self) -> None:
        with self._lock:
            self.roots.clear()
            self.dropped = 0
            self.sampled_out = 0
            self._sample_debt = 0.0

    def render(self, last: int | None = None) -> str:
        """Text dump of the most recent ``last`` root spans (default all)."""
        with self._lock:
            roots = list(self.roots)
        if last is not None:
            roots = roots[-last:]
        if not roots:
            return "tracer: no spans recorded"
        lines: list[str] = []
        if self.dropped:
            lines.append(
                f"(trace truncated: {self.dropped} older root spans dropped "
                f"beyond the {self.roots.maxlen}-root buffer)"
            )
        if self.sampled_out:
            lines.append(
                f"(tail sampling at rate {self.sample_rate:g}: "
                f"{self.sampled_out} healthy root spans not retained)"
            )
        for root in roots:
            lines.extend(root.render())
        return "\n".join(lines)
