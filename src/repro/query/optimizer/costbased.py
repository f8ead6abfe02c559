"""The full-fledged (cost-based) global optimizer.

On top of the pushdown the :class:`~repro.query.localizer.Localizer` already
performs, this optimizer:

1. estimates every fragment's shipped size from gateway statistics,
2. considers **semijoin reductions** along each inter-site equi-join edge
   (ship the smaller side's join keys with the bigger side's fragment query,
   fetching only matching rows) and applies those with positive net benefit,
3. annotates the plan with its estimated virtual cost, so benchmarks can
   compare estimate vs. measurement.

Semijoin selection is greedy by descending benefit with the constraints that
each fetch is reduced at most once and dependencies stay acyclic.
"""

from __future__ import annotations

from dataclasses import replace

from repro.gateway import Gateway
from repro.net import Network
from repro.query.cost import CostModel
from repro.query.localizer import Fetch, GlobalPlan, Localizer, SemiJoinSpec
from repro.query.rewrite import prune_projections, push_selections
from repro.sql import ast


class CostBasedOptimizer:
    """Pushdown + semijoin selection driven by the cost model."""

    name = "cost"

    def __init__(
        self,
        gateways: dict[str, Gateway],
        network: Network,
        enable_semijoin: bool = True,
        enable_aggregate_pushdown: bool = True,
        runtime_stats=None,
    ):
        self.gateways = gateways
        self.localizer = Localizer(gateways)
        self.cost_model = CostModel(
            gateways, network, runtime_stats=runtime_stats
        )
        self.enable_semijoin = enable_semijoin
        self.enable_aggregate_pushdown = enable_aggregate_pushdown

    def plan(self, expanded: ast.Query) -> GlobalPlan:
        expanded = push_selections(expanded)
        expanded = prune_projections(expanded)
        if self.enable_aggregate_pushdown:
            from repro.query.aggpush import push_aggregates

            expanded = push_aggregates(expanded)
        plan = self.localizer.localize(expanded, pushdown=True)
        plan.strategy = self.name
        if self.enable_semijoin:
            self._apply_semijoins(plan)
        plan.estimated_cost_s = self._estimate_plan_cost(plan)
        from repro.query.cost import annotate_fetch_estimates

        annotate_fetch_estimates(plan, self.cost_model)
        return plan

    # ------------------------------------------------------------------
    # Semijoin selection
    # ------------------------------------------------------------------

    def _apply_semijoins(self, plan: GlobalPlan) -> None:
        candidates: list[tuple[float, int, int, str, str]] = []
        for edge in plan.join_edges:
            left = plan.fetches[edge.left_fetch]
            right = plan.fetches[edge.right_fetch]
            if left.site == right.site:
                continue  # same gateway; nothing to save
            for source, target, source_column, target_column in (
                (left, right, edge.left_column, edge.right_column),
                (right, left, edge.right_column, edge.left_column),
            ):
                if target.protected:
                    continue  # outer-join padding side: reduction unsound
                benefit = self.cost_model.semijoin_benefit(
                    source.site,
                    source.export,
                    source.predicate,
                    source_column,
                    target.site,
                    target.export,
                    target.predicate,
                    target.columns,
                    target_column,
                )
                if benefit > 0:
                    candidates.append(
                        (
                            benefit,
                            source.index,
                            target.index,
                            source_column,
                            target_column,
                        )
                    )

        candidates.sort(reverse=True)
        reduced: set[int] = set()
        for benefit, source_index, target_index, source_col, target_col in (
            candidates
        ):
            if target_index in reduced:
                continue
            if self._would_cycle(plan, source_index, target_index):
                continue
            target = plan.fetches[target_index]
            source = plan.fetches[source_index]
            # The source fetch must actually ship the join-key column.
            if source_col.lower() not in (c.lower() for c in source.columns):
                source.columns.append(source_col)
            target.semijoin = SemiJoinSpec(source_index, source_col, target_col)
            reduced.add(target_index)
            plan.notes.append(
                f"semijoin: reduce fetch #{target_index} by keys of "
                f"#{source_index}.{source_col} "
                f"(est. benefit {benefit * 1000:.2f}ms)"
            )

    # ------------------------------------------------------------------
    # Mid-query re-planning (adaptive execution)
    # ------------------------------------------------------------------

    def replan(
        self,
        plan: GlobalPlan,
        executed: dict[int, tuple[float, float]],
        key_count,
        stage: int = 0,
    ) -> tuple[GlobalPlan, list[str]]:
        """Re-optimize the not-yet-executed fetches of a running plan.

        ``executed`` maps completed fetch indices to their measured
        ``(rows, bytes)``; ``key_count(index, column)`` returns the exact
        distinct non-null key count inside a completed fragment (the
        executor counts it from the materialised rows).  Completed fetches
        are pinned — only the semijoin choices of remaining fetches are
        revisited, with *actual* key counts replacing the estimates that
        turned out wrong:

        - a planned reduction whose measured benefit went negative (the
          source produced far more keys than estimated) is dropped,
        - a skipped reduction whose source has now materialised small is
          added (its keys are already at the federation site, so the
          serialisation penalty the planner charged no longer applies).

        ``plan`` is never written to: it may be a shared plan-cache entry.
        Returns ``(revised, notes)`` — ``plan`` itself and no notes when
        the remaining plan stands, else a private copy whose changed
        fetches are flagged ``replanned`` (with re-derived estimates) and
        whose notes gain one line per change, rendered in EXPLAIN /
        EXPLAIN ANALYZE.
        """
        notes: list[str] = []
        revised: dict[int, SemiJoinSpec | None] = {}
        for fetch in plan.fetches:
            if fetch.index in executed or fetch.whole_query is not None:
                continue
            semijoin = fetch.semijoin
            if semijoin is not None and semijoin.source_index in executed:
                source = plan.fetches[semijoin.source_index]
                keys = key_count(semijoin.source_index, semijoin.source_column)
                if keys is None:
                    # Degraded source: its (empty) key set already reduces
                    # the shipped query to nothing — leave the plan alone.
                    continue
                benefit = self.cost_model.semijoin_benefit(
                    source.site,
                    source.export,
                    source.predicate,
                    semijoin.source_column,
                    fetch.site,
                    fetch.export,
                    fetch.predicate,
                    fetch.columns,
                    semijoin.target_column,
                    shipped_keys_override=keys,
                    source_available=True,
                )
                if benefit <= 0:
                    revised[fetch.index] = None
                    notes.append(
                        f"replan@stage{stage}: drop semijoin on fetch "
                        f"#{fetch.index} (source #{semijoin.source_index} "
                        f"produced {keys} keys; revised benefit "
                        f"{benefit * 1000:.2f}ms)"
                    )
                    semijoin = None
            if (
                self.enable_semijoin
                and semijoin is None
                and not fetch.protected
            ):
                addition = self._best_late_semijoin(
                    plan, fetch, executed, key_count
                )
                if addition is not None:
                    benefit, spec, keys = addition
                    revised[fetch.index] = spec
                    notes.append(
                        f"replan@stage{stage}: add semijoin on fetch "
                        f"#{fetch.index} from materialised "
                        f"#{spec.source_index}.{spec.source_column} "
                        f"({keys} keys, est. benefit {benefit * 1000:.2f}ms)"
                    )
        if not revised:
            return plan, notes
        plan = replace(
            plan,
            fetches=[
                replace(fetch, semijoin=revised[fetch.index], replanned=True)
                if fetch.index in revised
                else fetch
                for fetch in plan.fetches
            ],
            notes=plan.notes + notes,
        )
        from repro.query.cost import annotate_fetch_estimates

        annotate_fetch_estimates(plan, self.cost_model, only=set(revised))
        return plan, notes

    def _best_late_semijoin(
        self,
        plan: GlobalPlan,
        fetch: Fetch,
        executed: dict[int, tuple[float, float]],
        key_count,
    ) -> tuple[float, SemiJoinSpec, int] | None:
        """Best positive-benefit reduction of ``fetch`` by an executed one.

        Only *already-executed* sources are considered: their key sets are
        known exactly, they add no new dependencies (so no cycles), and
        their keys are already at the federation site.
        """
        best: tuple[float, SemiJoinSpec, int] | None = None
        for edge in plan.join_edges:
            pairs = (
                (edge.left_fetch, edge.left_column,
                 edge.right_fetch, edge.right_column),
                (edge.right_fetch, edge.right_column,
                 edge.left_fetch, edge.left_column),
            )
            for source_index, source_col, target_index, target_col in pairs:
                if target_index != fetch.index:
                    continue
                if source_index not in executed:
                    continue
                source = plan.fetches[source_index]
                if source.site == fetch.site:
                    continue  # same gateway; nothing to save
                # The key column must actually have been shipped.
                if source_col.lower() not in (
                    c.lower() for c in source.columns
                ):
                    continue
                keys = key_count(source_index, source_col)
                if keys is None:
                    continue
                benefit = self.cost_model.semijoin_benefit(
                    source.site,
                    source.export,
                    source.predicate,
                    source_col,
                    fetch.site,
                    fetch.export,
                    fetch.predicate,
                    fetch.columns,
                    target_col,
                    shipped_keys_override=keys,
                    source_available=True,
                )
                if benefit <= 0:
                    continue
                if best is None or benefit > best[0]:
                    best = (
                        benefit,
                        SemiJoinSpec(source_index, source_col, target_col),
                        keys,
                    )
        return best

    def _would_cycle(
        self, plan: GlobalPlan, source_index: int, target_index: int
    ) -> bool:
        """Adding target←source: does source (transitively) depend on target?"""
        current = source_index
        seen = set()
        while True:
            if current == target_index:
                return True
            if current in seen:
                return True  # defensive: existing cycle
            seen.add(current)
            semijoin = plan.fetches[current].semijoin
            if semijoin is None:
                return False
            current = semijoin.source_index

    # ------------------------------------------------------------------
    # Plan cost estimate
    # ------------------------------------------------------------------

    def _estimate_plan_cost(self, plan: GlobalPlan) -> float:
        """Virtual elapsed seconds: parallel fetch stages + federation work."""

        def chain_cost(fetch: Fetch) -> float:
            cost = self.cost_model.fetch_cost(
                fetch.site, fetch.export, fetch.columns, fetch.predicate
            )
            if fetch.semijoin is not None:
                cost += chain_cost(plan.fetches[fetch.semijoin.source_index])
            return cost

        elapsed = max((chain_cost(f) for f in plan.fetches), default=0.0)
        total_rows = sum(
            self.cost_model.estimate_fragment(
                f.site, f.export, f.columns, f.predicate
            ).rows
            for f in plan.fetches
        )
        from repro.gateway import LOCAL_ROW_COST_S

        return elapsed + total_rows * LOCAL_ROW_COST_S
