"""Adaptive runtime statistics: EXPLAIN ANALYZE actuals fed back to the
cost model.

Every executed fetch already measures the rows and bytes that actually
crossed the wire (:class:`~repro.obs.explain.FetchActual`).  This module
closes the loop the ROADMAP names: a :class:`RuntimeStatsStore` keeps one
learned cardinality per **(site, export, predicate shape)** — the shape
abstracts literal values, so ``grp = 3`` and ``grp = 7`` share an entry
while ``grp = 3 AND name = 'x'`` gets its own — and the cost model blends
those learned values with its System-R estimates, weighted by how many
observations back them.

The store is **versioned**: ``version`` bumps whenever a learned estimate
shifts materially (first observation of a key, or drift beyond
``drift_threshold`` relative to the value at the last bump).  The global
plan cache folds this ``runtime_stats_version`` into its key next to the
schema and statistics versions, so plans compiled from superseded learned
cardinalities die by lookup miss — and once the estimates converge, the
version stops moving and cached plans are served again.

Everything here is opt-in (``MyriadSystem(adaptive_feedback=True)``): with
the knob off no store exists, nothing is recorded, and planning is
bit-identical to the non-adaptive system.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.sql import ast

#: Exponential moving average weight of the newest observation.
EWMA_ALPHA = 0.5

#: Relative shift of a learned estimate (vs. its value at the last version
#: bump) that re-bumps the store version, invalidating cached plans.
DRIFT_THRESHOLD = 0.2


# ---------------------------------------------------------------------------
# Predicate / fetch shapes
# ---------------------------------------------------------------------------


def _anonymise(node: ast.Expression) -> ast.Expression:
    """Replace a literal by a parameter so shapes ignore literal values."""
    if isinstance(node, ast.Literal):
        return ast.Parameter(0)
    return node


def predicate_shape(predicate: ast.Expression | None) -> str:
    """Canonical shape of a predicate with literal values abstracted.

    ``grp = 3`` and ``grp = 42`` share a shape; ``grp = 3 AND val < 1.0``
    does not.  Literals become ``?`` so learned cardinalities generalise
    across parameter values of the same query template (the repeated
    cross-site queries federated workloads are dominated by).
    """
    if predicate is None:
        return "-"
    from repro.sql.printer import SQLPrinter

    shaped = ast.transform_expression(predicate, _anonymise)
    return SQLPrinter().print_expression(shaped)


def query_shape(query: ast.Select) -> str:
    """Shape of a whole shipped block (aggregate pushdown fetches)."""
    from repro.sql.printer import SQLPrinter

    shaped = ast.Select(
        items=[
            ast.SelectItem(
                ast.transform_expression(i.expression, _anonymise), i.alias
            )
            for i in query.items
        ],
        from_clause=list(query.from_clause),
        where=ast.transform_expression(query.where, _anonymise)
        if query.where is not None
        else None,
        group_by=[
            ast.transform_expression(g, _anonymise) for g in query.group_by
        ],
        having=ast.transform_expression(query.having, _anonymise)
        if query.having is not None
        else None,
        order_by=list(query.order_by),
        limit=query.limit,
        offset=query.offset,
        distinct=query.distinct,
    )
    return SQLPrinter().print_select(shaped)


def fragment_shape(
    columns: list[str] | None,
    predicate: ast.Expression | None,
    semijoin_column: str | None = None,
    whole_query: ast.Select | None = None,
) -> str:
    """Stable key for one fetch shape at one export.

    Semijoin-reduced fetches get their own entries (their cardinality
    reflects the reduction, not the base predicate), as do shipped whole
    blocks.  Columns matter only for learned byte widths, but folding them
    in keeps one entry per distinct shipped projection — observed average
    row bytes stay meaningful.
    """
    if whole_query is not None:
        return f"whole|{query_shape(whole_query)}"
    cols = "*" if columns is None else ",".join(sorted(c.lower() for c in columns))
    semi = semijoin_column.lower() if semijoin_column else "-"
    return f"{predicate_shape(predicate)}|cols={cols}|semi={semi}"


def rows_shape(
    predicate: ast.Expression | None,
    semijoin_column: str | None = None,
    whole_query: ast.Select | None = None,
) -> str:
    """Projection-independent shape: row counts do not depend on columns.

    Every observation is recorded under its exact :func:`fragment_shape`
    *and* this rows-generalised one, so a fetch shipping a different
    projection of the same predicate still reuses the learned cardinality
    (just not the learned row width).
    """
    if whole_query is not None:
        return f"rows|whole|{query_shape(whole_query)}"
    semi = semijoin_column.lower() if semijoin_column else "-"
    return f"rows|{predicate_shape(predicate)}|semi={semi}"


def fetch_shape(fetch) -> str:
    """Exact shape of a planned :class:`~repro.query.localizer.Fetch`."""
    return fragment_shape(
        fetch.columns,
        fetch.predicate,
        fetch.semijoin.target_column if fetch.semijoin is not None else None,
        fetch.whole_query,
    )


def fetch_rows_shape(fetch) -> str:
    """Rows-generalised shape of a planned fetch (see :func:`rows_shape`)."""
    return rows_shape(
        fetch.predicate,
        fetch.semijoin.target_column if fetch.semijoin is not None else None,
        fetch.whole_query,
    )


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


@dataclass
class RuntimeEntry:
    """Learned execution profile of one fetch shape at one export."""

    rows: float
    bytes: float
    samples: int = 1
    #: Learned values at the last version bump; drift is measured against
    #: these so a converged entry stops invalidating cached plans.
    anchor_rows: float = 0.0
    anchor_bytes: float = 0.0

    @property
    def row_bytes(self) -> float:
        return self.bytes / self.rows if self.rows > 0 else 0.0

    def confidence(self) -> float:
        """Blend weight of the learned value: more samples, more trust."""
        return self.samples / (self.samples + 1.0)


class RuntimeStatsStore:
    """Thread-safe, bounded map of learned per-fetch-shape cardinalities."""

    def __init__(
        self,
        capacity: int = 1024,
        drift_threshold: float = DRIFT_THRESHOLD,
        alpha: float = EWMA_ALPHA,
    ):
        self.capacity = capacity
        self.drift_threshold = drift_threshold
        self.alpha = alpha
        self._entries: OrderedDict[tuple, RuntimeEntry] = OrderedDict()
        self._mutex = threading.Lock()
        #: Bumped on any material shift of a learned estimate; part of the
        #: global plan-cache key (next to schema_version / stats_version).
        self.version = 0
        # Experiment counters
        self.observations = 0
        self.version_bumps = 0

    @staticmethod
    def _key(site: str, export: str, shape: str) -> tuple:
        return (site, export.lower(), shape)

    def observe(
        self, site: str, export: str, shape: str, rows: float, bytes_: float
    ) -> bool:
        """Fold one measured fetch into the learned profile.

        Returns True when the observation shifted the store's version
        (first sighting of this shape, or drift past the threshold).
        """
        key = self._key(site, export, shape)
        with self._mutex:
            self.observations += 1
            entry = self._entries.get(key)
            if entry is None:
                entry = RuntimeEntry(
                    rows=float(rows),
                    bytes=float(bytes_),
                    anchor_rows=float(rows),
                    anchor_bytes=float(bytes_),
                )
                self._entries[key] = entry
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                self.version += 1
                self.version_bumps += 1
                return True
            self._entries.move_to_end(key)
            entry.rows = self.alpha * rows + (1 - self.alpha) * entry.rows
            entry.bytes = self.alpha * bytes_ + (1 - self.alpha) * entry.bytes
            entry.samples += 1
            if self._drifted(entry.rows, entry.anchor_rows) or self._drifted(
                entry.bytes, entry.anchor_bytes
            ):
                entry.anchor_rows = entry.rows
                entry.anchor_bytes = entry.bytes
                self.version += 1
                self.version_bumps += 1
                return True
            return False

    def _drifted(self, current: float, anchor: float) -> bool:
        return abs(current - anchor) > self.drift_threshold * max(
            abs(anchor), 1.0
        )

    def lookup(self, site: str, export: str, shape: str) -> RuntimeEntry | None:
        with self._mutex:
            return self._entries.get(self._key(site, export, shape))

    def clear(self) -> None:
        """Forget everything learned (and invalidate dependent plans)."""
        with self._mutex:
            if self._entries:
                self._entries.clear()
                self.version += 1
                self.version_bumps += 1

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def snapshot(self) -> list[dict]:
        """JSON-safe dump of every learned entry (introspection/reports)."""
        with self._mutex:
            return [
                {
                    "site": site,
                    "export": export,
                    "shape": shape,
                    "rows": entry.rows,
                    "bytes": entry.bytes,
                    "samples": entry.samples,
                }
                for (site, export, shape), entry in self._entries.items()
            ]
