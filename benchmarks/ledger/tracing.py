"""Outside-in span recorder for the performance ledger.

Nothing under ``src/`` knows about this module.  :class:`Recorder` wraps
the public callables listed in :data:`SPAN_POINTS` by attribute
assignment, keeps every span in memory (one list per thread), and restores
every attribute on :meth:`Recorder.uninstall`.  A call is recorded only
while the calling thread is inside an op opened with :meth:`Recorder.op`,
so set-up, warm-up and oracle traffic never leave spans.

Three details the wrapped program forces on the recorder:

- ``from repro.sql import parse_statement`` binds the function at import,
  so the name is patched in every *consuming* module; patching
  ``repro.sql`` alone would only catch the function-local imports.
- Fetches of one stage run on the executor's thread pool.  The recorder
  wraps ``ThreadPoolExecutor.submit`` so a worker inherits the submitting
  thread's current span as its parent; ``FragmentCache.lookup`` and
  ``store`` carry no ``request_id`` to join on.
- ``LocalEngine.execute_query`` is both the component engine's query path
  (already inside an ``engine.execute`` span) and the federation-site
  residual; only the call made directly by ``GlobalExecutor.execute`` is
  recorded, as ``query.residual``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple

#: Root span the harness opens around each op; its self time is the op
#: wall no wrapped layer covers (``trace.unattributed_frac``).
OP = "op"


def _rows_shipped(args, result) -> int:
    return len(result.rows)


def _rows_scanned(args, result) -> int:
    # DML leaves ``last_report`` untouched (stale); only queries report.
    return 0 if isinstance(result, int) else args[0].last_report.rows_scanned


def _residual_only(parent_name: str) -> str | None:
    return "query.residual" if parent_name == "query.execute" else None


#: (module, attribute path, span name or rule, count hook).  A rule maps
#: the parent span's name to this span's name, or ``None`` to pass through.
SPAN_POINTS = [
    ("repro.query.processor", "parse_statement", "sql.parse_global", None),
    ("repro.server.server", "parse_statement", "sql.parse_global", None),
    # Function-local ``from repro.sql import parse_statement`` in the 2PC
    # coordinator and the gateway resolve through the package attribute.
    ("repro.sql", "parse_statement", "sql.parse_global", None),
    ("repro.localdb.dbms", "parse_statement", "sql.parse_local", None),
    ("repro.gateway.gateway", "to_sql", "sql.print", None),
    ("repro.schema.federation", "Federation.expand", "schema.expand", None),
    (
        "repro.query.optimizer.costbased",
        "CostBasedOptimizer.plan",
        "query.plan",
        None,
    ),
    ("repro.query.executor", "GlobalExecutor.execute", "query.execute", None),
    (
        "repro.engine.executor",
        "LocalEngine.execute_query",
        _residual_only,
        None,
    ),
    ("repro.cache.plans", "PlanCache.get", "cache.plans.get", None),
    ("repro.cache.plans", "PlanCache.put", "cache.plans.put", None),
    (
        "repro.cache.fragments",
        "FragmentCache.lookup",
        "cache.fragments.lookup",
        None,
    ),
    (
        "repro.cache.fragments",
        "FragmentCache.store",
        "cache.fragments.store",
        None,
    ),
    (
        "repro.gateway.gateway",
        "Gateway.execute_query",
        "gateway.query",
        _rows_shipped,
    ),
    ("repro.gateway.gateway", "Gateway.execute_update", "gateway.dml", None),
    ("repro.gateway.gateway", "Gateway.begin", "gateway.begin", None),
    ("repro.gateway.gateway", "Gateway.prepare", "gateway.prepare", None),
    ("repro.gateway.gateway", "Gateway.commit", "gateway.commit", None),
    ("repro.localdb.dbms", "Session.execute", "localdb.execute", None),
    ("repro.engine.planner", "LocalPlanner.plan_query", "engine.plan", None),
    (
        "repro.engine.executor",
        "LocalEngine.execute",
        "engine.execute",
        _rows_scanned,
    ),
    (
        "repro.concurrency.locks",
        "LockManager.acquire",
        "concurrency.lock_acquire",
        None,
    ),
    (
        "repro.concurrency.wal",
        "WriteAheadLog.append",
        "concurrency.wal_append",
        None,
    ),
    (
        "repro.concurrency.wal",
        "WriteAheadLog.flush",
        "concurrency.wal_append",
        None,
    ),
    ("repro.net.sim", "Network.send", "net.send", None),
    ("repro.net.codec", "encode_fragment", "net.codec", None),
    ("repro.net.codec", "decode_fragment", "net.codec", None),
    (
        "repro.txn.coordinator",
        "GlobalTransactionManager.execute",
        "txn.execute",
        None,
    ),
    (
        "repro.txn.coordinator",
        "GlobalTransactionManager.execute_federated",
        "txn.execute",
        None,
    ),
    (
        "repro.txn.coordinator",
        "GlobalTransactionManager.commit",
        "txn.commit",
        None,
    ),
    ("repro.server.server", "ClientSession.execute", "server.execute", None),
]

#: Every span name the recorder can emit, in layer-table order.
SPAN_NAMES = list(
    dict.fromkeys(
        "query.residual" if callable(name) else name
        for _, _, name, _ in SPAN_POINTS
    )
)


class Span(NamedTuple):
    """One recorded call: who, when, under which span, for which op.

    A tuple of atoms on purpose: the garbage collector stops tracking it
    after one pass, so a hundred thousand retained spans do not slow the
    collections of the run they are measuring.
    """

    id: int
    parent: int
    op: int
    name: str
    start: float
    end: float
    count: int


class Recorder:
    """Patches the span points in, records spans, patches them out."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[list[Span]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _state(self):
        """This thread's open-span stack of ``(id, name, op)`` and spans."""
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            with self._lock:
                self._per_thread.append(local.spans)
        return local

    # -- the harness side ------------------------------------------------

    @contextlib.contextmanager
    def op(self, op_id: int):
        """The root span of one benchmark op on the calling thread."""
        local = self._state()
        span_id = next(self._ids)
        local.stack.append((span_id, OP, op_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            local.stack.pop()
            local.spans.append(Span(span_id, 0, op_id, OP, start, end, 0))

    def spans(self) -> list[Span]:
        with self._lock:
            return [span for spans in self._per_thread for span in spans]

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        from concurrent.futures import ThreadPoolExecutor

        for module_name, path, name, count in SPAN_POINTS:
            owner = importlib.import_module(module_name)
            *holders, attribute = path.split(".")
            for holder in holders:
                owner = getattr(owner, holder)
            self._patch(
                owner,
                attribute,
                self._wrap(getattr(owner, attribute), name, count),
            )
        self._patch(
            ThreadPoolExecutor,
            "submit",
            self._carry_context(ThreadPoolExecutor.submit),
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _wrap(self, original, name, count):
        rule = name if callable(name) else None
        state = self._state
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            local = state()
            stack = local.stack
            if not stack:
                return original(*args, **kwargs)
            parent_id, parent_name, op_id = stack[-1]
            span_name = rule(parent_name) if rule else name
            # Recursion (derived-table planning, a coordinator method
            # calling its sibling) stays inside the outer span.
            if span_name is None or span_name == parent_name:
                return original(*args, **kwargs)
            span_id = next(ids)
            stack.append((span_id, span_name, op_id))
            counted = 0
            start = clock()
            try:
                result = original(*args, **kwargs)
                if count is not None:
                    counted = count(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                local.spans.append(
                    Span(
                        span_id, parent_id, op_id, span_name,
                        start, end, counted,
                    )
                )  # fmt: skip

        return traced

    def _carry_context(self, submit):
        state = self._state

        @functools.wraps(submit)
        def traced_submit(pool, fn, /, *args, **kwargs):
            stack = state().stack
            if not stack:
                return submit(pool, fn, *args, **kwargs)
            parent = stack[-1]

            def carried(*a, **k):
                worker = state().stack
                worker.append(parent)
                try:
                    return fn(*a, **k)
                finally:
                    worker.pop()

            return submit(pool, carried, *args, **kwargs)

        return traced_submit


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def _covered(start: float, end: float, intervals: list[tuple]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarise(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self seconds, summed counts.

    Self time is the span's duration minus the part of it that its child
    spans cover — children on worker threads included, overlapping
    children counted once.
    """
    children: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        children[span.parent].append((span.start, span.end))
    summary: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "count": 0}
    )
    for span in spans:
        row = summary[span.name]
        duration = span.end - span.start
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - _covered(
            span.start, span.end, children.get(span.id, ())
        )
        row["count"] += span.count
    return dict(summary)


def dump(spans: list[Span], path) -> None:
    """Write spans as JSON lines: id, parent, op, name, start, end, count."""
    with open(path, "w") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")
