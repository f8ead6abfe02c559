"""Distributed cost model for the global (full-fledged) optimizer.

Costs are virtual seconds on the simulated network plus virtual local
processing, mirroring exactly what :class:`repro.net.MessageTrace` measures
at execution time — so estimated and measured costs are directly comparable
in the benchmarks.

Selectivity estimation uses the per-export statistics served by gateways
(System-R defaults when statistics cannot answer).  When the federation
runs with adaptive feedback on, a :class:`~repro.query.feedback.
RuntimeStatsStore` supplies *learned* cardinalities from earlier
executions of the same fetch shape; the model blends them with its static
estimates, weighted by how many observations back them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.engine.planner import IndexedColumn, choose_index_probe
from repro.gateway import LOCAL_ROW_COST_S, Gateway
from repro.net import Network
from repro.sql import ast
from repro.storage.stats import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_LIKE_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    TableStats,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.query.feedback import RuntimeStatsStore


@dataclass
class FragmentEstimate:
    """Estimated result of shipping one export fragment."""

    rows: float
    row_bytes: float

    @property
    def total_bytes(self) -> float:
        return self.rows * self.row_bytes


class CostModel:
    """Estimates fragment sizes and transfer costs for plan choices."""

    def __init__(
        self,
        gateways: dict[str, Gateway],
        network: Network,
        runtime_stats: "RuntimeStatsStore | None" = None,
    ):
        self.gateways = gateways
        self.network = network
        #: Optional learned-cardinality store (adaptive feedback); ``None``
        #: keeps the model purely static — bit-identical to the seed.
        self.runtime_stats = runtime_stats

    # ------------------------------------------------------------------
    # Statistics access
    # ------------------------------------------------------------------

    def export_stats(self, site: str, export: str) -> TableStats:
        return self.gateways[site].export_stats(export)

    # ------------------------------------------------------------------
    # Selectivity
    # ------------------------------------------------------------------

    def predicate_selectivity(
        self, stats: TableStats, predicate: ast.Expression | None
    ) -> float:
        """Combined selectivity of a (conjunctive) predicate."""
        if predicate is None:
            return 1.0
        selectivity = 1.0
        for conjunct in ast.split_conjuncts(predicate):
            selectivity *= self._conjunct_selectivity(stats, conjunct)
        return max(min(selectivity, 1.0), 1e-6)

    def _conjunct_selectivity(
        self, stats: TableStats, conjunct: ast.Expression
    ) -> float:
        if isinstance(conjunct, ast.BinaryOp):
            if conjunct.op == "OR":
                left = self._conjunct_selectivity(stats, conjunct.left)
                right = self._conjunct_selectivity(stats, conjunct.right)
                return min(1.0, left + right - left * right)
            column, op, value = _comparison_parts(conjunct)
            if column is not None:
                column_stats = stats.column(column)
                if op == "=":
                    if column_stats is not None:
                        return column_stats.eq_selectivity(stats.row_count)
                    return DEFAULT_EQ_SELECTIVITY
                if op == "<>":
                    if column_stats is not None:
                        return 1.0 - column_stats.eq_selectivity(stats.row_count)
                    return 1.0 - DEFAULT_EQ_SELECTIVITY
                if op in ("<", "<=", ">", ">="):
                    if column_stats is not None:
                        return column_stats.range_selectivity(
                            op, value, stats.row_count
                        )
                    return DEFAULT_RANGE_SELECTIVITY
            if conjunct.op in ("LIKE",):
                return DEFAULT_LIKE_SELECTIVITY
            if conjunct.op in ("NOT LIKE",):
                return 1.0 - DEFAULT_LIKE_SELECTIVITY
        if isinstance(conjunct, ast.Between):
            return DEFAULT_RANGE_SELECTIVITY
        if isinstance(conjunct, ast.InList):
            return self._in_list_selectivity(stats, conjunct)
        if isinstance(conjunct, ast.IsNull):
            return 0.1 if not conjunct.negated else 0.9
        return 0.5  # unknown predicate shapes

    def _in_list_selectivity(
        self, stats: TableStats, conjunct: ast.InList
    ) -> float:
        """``col IN (v1, ..., vN)`` ≈ N distinct items × eq-selectivity.

        Mirrors ``=``: per-column statistics drive the per-item
        selectivity when they exist (an IN over a 1000-distinct key column
        is far more selective than the System-R default suggests), and
        duplicate literals — common in generated semijoin key lists —
        count once, not once per occurrence.
        """
        per_item = DEFAULT_EQ_SELECTIVITY
        if isinstance(conjunct.operand, ast.ColumnRef):
            column_stats = stats.column(conjunct.operand.name)
            if column_stats is not None:
                per_item = column_stats.eq_selectivity(stats.row_count)
        seen_literals: set[object] = set()
        items = 0
        for item in conjunct.items:
            if isinstance(item, ast.Literal):
                if item.value in seen_literals:
                    continue
                seen_literals.add(item.value)
            items += 1
        selectivity = min(1.0, per_item * max(items, 1))
        if conjunct.negated:
            return 1.0 - selectivity
        return selectivity

    # ------------------------------------------------------------------
    # Fragment estimation
    # ------------------------------------------------------------------

    def estimate_fragment(
        self,
        site: str,
        export: str,
        columns: list[str] | None,
        predicate: ast.Expression | None,
    ) -> FragmentEstimate:
        stats = self.export_stats(site, export)
        rows = stats.row_count * self.predicate_selectivity(stats, predicate)
        row_bytes = self._projected_row_bytes(stats, columns)
        estimate = FragmentEstimate(rows=rows, row_bytes=max(row_bytes, 1.0))
        return self._blend_learned(site, export, columns, predicate, estimate)

    @staticmethod
    def _projected_row_bytes(
        stats: TableStats, columns: list[str] | None
    ) -> float:
        """Bytes per shipped row for a projection of this export.

        Per-column widths from ``analyze_rows`` drive the estimate; a
        uniform split of ``avg_row_bytes`` is only the fallback for
        columns without statistics (projecting the narrow key out of a
        wide padded row must not be charged an even share of the pad).
        """
        if columns is None:
            return stats.avg_row_bytes
        total_columns = max(len(stats.columns), 1)
        even_share = stats.avg_row_bytes / total_columns
        row_bytes = 0.0
        for name in columns:
            column_stats = stats.column(name)
            if column_stats is not None and column_stats.avg_bytes > 0:
                row_bytes += column_stats.avg_bytes
            else:
                row_bytes += even_share
        return row_bytes

    def _blend_learned(
        self,
        site: str,
        export: str,
        columns: list[str] | None,
        predicate: ast.Expression | None,
        estimate: FragmentEstimate,
        semijoin_column: str | None = None,
        whole_query: ast.Select | None = None,
    ) -> FragmentEstimate:
        """Fold learned runtime cardinalities into a static estimate.

        The learned value dominates as observations accumulate
        (weight ``n / (n + 1)``), so one anomalous execution cannot wipe
        out the static model, while repeated runs converge estimates onto
        the measured truth.  An exact (projection-aware) entry refines
        both rows and row width; when only the rows-generalised entry
        exists (same predicate shape observed under another projection),
        just the row count is refined.
        """
        if self.runtime_stats is None:
            return estimate
        from repro.query.feedback import fragment_shape, rows_shape

        entry = self.runtime_stats.lookup(
            site,
            export,
            fragment_shape(columns, predicate, semijoin_column, whole_query),
        )
        blend_bytes = entry is not None
        if entry is None:
            entry = self.runtime_stats.lookup(
                site,
                export,
                rows_shape(predicate, semijoin_column, whole_query),
            )
        if entry is None:
            return estimate
        weight = entry.confidence()
        rows = weight * entry.rows + (1 - weight) * estimate.rows
        row_bytes = estimate.row_bytes
        if blend_bytes and entry.row_bytes > 0:
            row_bytes = (
                weight * entry.row_bytes + (1 - weight) * estimate.row_bytes
            )
        return FragmentEstimate(rows=rows, row_bytes=max(row_bytes, 1.0))

    # ------------------------------------------------------------------
    # Cost of shipping / processing
    # ------------------------------------------------------------------

    def transfer_cost(self, site: str, payload_bytes: float) -> float:
        """Virtual seconds to ship ``payload_bytes`` site → federation."""
        from repro.gateway.gateway import FEDERATION_SITE

        link = self.network.link(site, FEDERATION_SITE)
        return link.latency_s + payload_bytes / link.bandwidth_bytes_per_s

    def fetch_cost(
        self,
        site: str,
        export: str,
        columns: list[str] | None,
        predicate: ast.Expression | None,
        extra_request_bytes: float = 0.0,
        estimate: FragmentEstimate | None = None,
    ) -> float:
        """Estimated virtual cost of one fragment fetch (request + work + reply).

        ``estimate`` short-circuits the fragment-size estimation when the
        caller already holds one (e.g. a learned-cardinality estimate for
        a semijoin-reduced fetch) — the request/work/reply arithmetic is
        shared either way.
        """
        stats = self.export_stats(site, export)
        if estimate is None:
            estimate = self.estimate_fragment(site, export, columns, predicate)
        request = self.transfer_cost(site, 100.0 + extra_request_bytes)
        indexed = self.gateways[site].export_index_columns(export)
        local_work = _rows_scanned(stats, predicate, indexed) * LOCAL_ROW_COST_S
        reply = self.transfer_cost(site, estimate.total_bytes)
        return request + local_work + reply

    # ------------------------------------------------------------------
    # Semijoin benefit analysis
    # ------------------------------------------------------------------

    def semijoin_benefit(
        self,
        source_site: str,
        source_export: str,
        source_predicate: ast.Expression | None,
        source_column: str,
        target_site: str,
        target_export: str,
        target_predicate: ast.Expression | None,
        target_columns: list[str] | None,
        target_column: str,
        shipped_keys_override: float | None = None,
        source_available: bool = False,
    ) -> float:
        """Net virtual-seconds saved by semijoin-reducing the target fetch.

        Positive ⇒ ship the source's join keys to the target site and fetch
        only matching target rows.  Uses the textbook containment assumption
        for join-key reduction.

        ``shipped_keys_override`` replaces the estimated surviving-key
        count with an exact one — mid-query re-planning passes the distinct
        keys counted in an already-fetched source fragment.
        ``source_available`` marks the source as already at the federation
        site, dropping the serialisation (ordering) penalty.
        """
        source_stats = self.export_stats(source_site, source_export)
        target_stats = self.export_stats(target_site, target_export)

        source_selectivity = self.predicate_selectivity(
            source_stats, source_predicate
        )
        if self.runtime_stats is not None and shipped_keys_override is None:
            # Learned source cardinality refines the surviving-key count:
            # a misestimated source predicate is exactly what makes a
            # semijoin decision wrong, and it is what feedback fixes first.
            learned_rows = self.estimate_fragment(
                source_site, source_export, [source_column], source_predicate
            ).rows
            source_selectivity = min(
                1.0, learned_rows / max(source_stats.row_count, 1)
            )
        source_column_stats = source_stats.column(source_column)
        source_distinct = (
            source_column_stats.distinct if source_column_stats else 0
        ) or max(source_stats.row_count, 1)
        # Keys surviving the source predicate (distinct-preserving scaling).
        shipped_keys = max(1.0, source_distinct * source_selectivity)
        if shipped_keys_override is not None:
            shipped_keys = max(1.0, float(shipped_keys_override))

        target_column_stats = target_stats.column(target_column)
        target_distinct = (
            target_column_stats.distinct if target_column_stats else 0
        ) or max(target_stats.row_count, 1)
        reduction = min(1.0, shipped_keys / max(target_distinct, 1))

        target_estimate = self.estimate_fragment(
            target_site, target_export, target_columns, target_predicate
        )
        saved_bytes = target_estimate.total_bytes * (1.0 - reduction)
        saved = self.transfer_cost(target_site, saved_bytes) - self.transfer_cost(
            target_site, 0.0
        )

        # Cost: the IN-list rides on the request message (keys as literals).
        key_bytes = shipped_keys * 12.0
        extra_request = (
            self.transfer_cost(target_site, key_bytes)
            - self.transfer_cost(target_site, 0.0)
        )
        # Plus the serialisation: the target fetch must wait for the source
        # (unless the source fragment already sits at the federation site).
        if source_available:
            serialisation_penalty = 0.0
        else:
            serialisation_penalty = self.transfer_cost(
                source_site, 0.0
            )  # latency-only ordering penalty
        return saved - extra_request - serialisation_penalty


def annotate_fetch_estimates(plan, cost_model: CostModel, only=None) -> None:
    """Stamp each fetch of a plan with the model's rows/bytes/time estimates.

    Both optimizers call this at plan time so that
    ``GlobalResult.explain_analyze()`` can show estimate-vs-actual per fetch
    regardless of the strategy that produced the plan.  ``only`` restricts
    the annotation to the given fetch indices (mid-query re-planning
    re-annotates just the fetches it changed).

    Semijoin-reduced and whole-block fetches carry their own learned
    shapes: with adaptive feedback on, a reduced fetch's estimate reflects
    the measured reduced cardinality, not the base predicate's.
    """
    for fetch in plan.fetches:
        if only is not None and fetch.index not in only:
            continue
        estimate = cost_model.estimate_fragment(
            fetch.site, fetch.export, fetch.columns, fetch.predicate
        )
        if cost_model.runtime_stats is not None and (
            fetch.semijoin is not None or fetch.whole_query is not None
        ):
            estimate = cost_model._blend_learned(
                fetch.site,
                fetch.export,
                fetch.columns,
                fetch.predicate,
                estimate,
                semijoin_column=(
                    fetch.semijoin.target_column
                    if fetch.semijoin is not None
                    else None
                ),
                whole_query=fetch.whole_query,
            )
        fetch.est_rows = estimate.rows
        fetch.est_bytes = estimate.total_bytes
        fetch.est_cost_s = cost_model.fetch_cost(
            fetch.site,
            fetch.export,
            fetch.columns,
            fetch.predicate,
            estimate=estimate,
        )


def _rows_scanned(
    stats: TableStats,
    predicate: ast.Expression | None,
    indexed: Mapping[str, IndexedColumn],
) -> float:
    """Rows the component scans to answer a fetch of this export.

    The component planner pushes the fetch predicate through the export
    view and picks its access path with :func:`choose_index_probe`; an
    equality probe scans only its matches, anything else a full table.
    """
    probe = choose_index_probe(ast.split_conjuncts(predicate), indexed)
    if probe is None or probe[2] != "=":
        return float(stats.row_count)
    column_stats = stats.column(probe[1])
    selectivity = (
        column_stats.eq_selectivity(stats.row_count)
        if column_stats is not None
        else DEFAULT_EQ_SELECTIVITY
    )
    return stats.row_count * selectivity


def _comparison_parts(
    expr: ast.BinaryOp,
) -> tuple[str | None, str, object]:
    """Extract (column, op, literal) from a comparison, side-insensitive."""
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}
    if expr.op not in flipped:
        return None, expr.op, None
    if isinstance(expr.left, ast.ColumnRef) and isinstance(
        expr.right, ast.Literal
    ):
        return expr.left.name, expr.op, expr.right.value
    if isinstance(expr.right, ast.ColumnRef) and isinstance(
        expr.left, ast.Literal
    ):
        return expr.right.name, flipped[expr.op], expr.left.value
    return None, expr.op, None
