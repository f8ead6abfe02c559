"""The global query processor: parse → expand → optimize → execute.

One :class:`GlobalQueryProcessor` serves one federation.  The optimizer
choice is per-call, so benchmarks can run the same query under the paper's
simple strategy and the full-fledged cost-based one.
"""

from __future__ import annotations

from repro.cache import FragmentCache, PlanCache
from repro.config import Config
from repro.errors import FederationError
from repro.net import MessageTrace, Network
from repro.obs import MetricsRegistry, Observability, obs_of
from repro.query.executor import GlobalExecutor, GlobalResult
from repro.query.feedback import (
    RuntimeStatsStore,
    fetch_rows_shape,
    fetch_shape,
)
from repro.query.localizer import GlobalPlan
from repro.query.optimizer import CostBasedOptimizer, SimpleOptimizer
from repro.schema.federation import Federation
from repro.sql import ast, parse_statement


#: The optimizer a query runs under when the caller names none.
DEFAULT_OPTIMIZER = "cost"


def plan_digest(plan: GlobalPlan) -> str:
    """Short stable digest of an executed plan (slow-query event payload).

    Two queries with the same strategy, fetch shapes, and residual query
    share a digest, so a slow-query log groups by plan, not by literal SQL.
    """
    # Imported here: hashlib loads OpenSSL (several MiB resident), and only
    # the slow-query path needs it.
    import hashlib

    return hashlib.sha256(plan.describe().encode()).hexdigest()[:12]


class GlobalQueryProcessor:
    """Query-processing front door of one federation."""

    def __init__(
        self, federation: Federation, network: Network, config: Config
    ):
        self.federation = federation
        self.network = network
        #: Learned per-(site, export, predicate-shape) cardinalities, fed
        #: by EXPLAIN ANALYZE actuals after every execution; ``None`` with
        #: ``adaptive_feedback`` off.
        self.runtime_stats = (
            RuntimeStatsStore() if config.adaptive_feedback else None
        )
        #: Re-optimize remaining stages mid-query when actuals diverge.
        #: Requires a cost-based optimizer for the query; independent of
        #: ``adaptive_feedback`` (re-planning uses exact measured key
        #: counts, not the learned store).
        self.adaptive_replan = config.adaptive_replan
        self.optimizers = {
            "simple": SimpleOptimizer(federation.gateways),
            "cost": CostBasedOptimizer(
                federation.gateways,
                network,
                runtime_stats=self.runtime_stats,
            ),
            "cost-nosemijoin": CostBasedOptimizer(
                federation.gateways,
                network,
                enable_semijoin=False,
                runtime_stats=self.runtime_stats,
            ),
            "cost-noaggpush": CostBasedOptimizer(
                federation.gateways,
                network,
                enable_aggregate_pushdown=False,
                runtime_stats=self.runtime_stats,
            ),
        }
        #: ``plancache.hit`` series per optimizer, keyed once: a plan-cache
        #: hit is the per-request hot path.
        self._plan_hit_keys = {
            name: MetricsRegistry.key("plancache.hit", optimizer=chosen.name)
            for name, chosen in self.optimizers.items()
        }
        #: Compiled-plan LRU; 0 disables it.
        self.plan_cache = (
            PlanCache(config.plan_cache_size)
            if config.plan_cache_size
            else None
        )
        self.executor = GlobalExecutor(federation, config)

    @property
    def fragment_cache(self) -> FragmentCache | None:
        return self.executor.fragment_cache

    @property
    def obs(self) -> Observability:
        return obs_of(self.network)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def parse(self, sql: str) -> ast.Query:
        with self.obs.span("query.parse"):
            statement = parse_statement(sql)
        if not isinstance(statement, (ast.Select, ast.SetOperation)):
            raise FederationError(
                "the global query processor accepts SELECT queries; "
                "use MyriadSystem.global_transaction for updates"
            )
        return statement

    def _plan_cache_key(
        self, sql: str, optimizer_name: str
    ) -> tuple | None:
        """Cache key covering everything a compiled plan depends on.

        Besides the SQL text and optimizer, the key embeds the
        federation's schema version and every gateway's statistics
        version: redefining a relation or committing DML changes the key,
        so stale plans die by lookup miss (and eventually LRU eviction)
        rather than by explicit flush.  With adaptive feedback on, the
        runtime-stats version rides along too: plans compiled from
        superseded learned cardinalities die the same way, and once the
        learned estimates converge the version stops moving and cache
        hits resume.
        """
        return (
            sql,
            optimizer_name,
            self.federation.schema_version,
            tuple(
                (site, gateway.stats_version)
                for site, gateway in sorted(self.federation.gateways.items())
            ),
            self.runtime_stats.version
            if self.runtime_stats is not None
            else None,
        )

    def plan(self, sql: str | ast.Query, optimizer: str | None = None) -> GlobalPlan:
        obs = self.obs
        optimizer_key = optimizer or DEFAULT_OPTIMIZER
        try:
            chosen = self.optimizers[optimizer_key]
        except KeyError:
            raise FederationError(
                f"unknown optimizer {optimizer_key!r}; known: "
                + ", ".join(sorted(self.optimizers))
            ) from None
        cache_key = None
        if self.plan_cache is not None and isinstance(sql, str):
            # Key on the registry name, not ``chosen.name``: the cost
            # optimizer's feature-flag variants all report name "cost" but
            # compile different plans.
            cache_key = self._plan_cache_key(sql, optimizer_key)
            cached = self.plan_cache.get(cache_key)
            if cached is not None:
                # No span: a trace shows a hit as a query without a
                # ``query.plan`` child.
                obs.metrics.inc_key(self._plan_hit_keys[optimizer_key])
                return cached
            obs.metrics.inc("plancache.miss", optimizer=chosen.name)
        query = self.parse(sql) if isinstance(sql, str) else sql
        with obs.span("query.expand", federation=self.federation.name):
            expanded = self.federation.expand(query)
        with obs.span("query.plan", optimizer=chosen.name) as span:
            plan = chosen.plan(expanded)
            span.tag(fetches=len(plan.fetches))
        if cache_key is not None:
            self.plan_cache.put(cache_key, plan)
        return plan

    def explain(self, sql: str, optimizer: str | None = None) -> str:
        return self.plan(sql, optimizer).describe()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(
        self,
        sql: str | ast.Query,
        optimizer: str | None = None,
        trace: MessageTrace | None = None,
        timeout: float | None = None,
        global_id: object | None = None,
        allow_partial: bool = False,
        request_id: str | None = None,
    ) -> GlobalResult:
        obs = self.obs
        # Direct callers get a request id minted here; the serving layer
        # (and the 2PC coordinator's query path) mint earlier and pass it
        # down, so one id covers the whole statement.
        if request_id is None:
            request_id = obs.mint_request_id()
        threshold = getattr(obs, "slow_query_threshold_s", None)
        slow = False
        with obs.span(
            "query.execute",
            federation=self.federation.name,
            request=request_id,
        ) as span:
            # ``plan`` rejects an unknown optimizer name.
            plan = self.plan(sql, optimizer)
            chosen = self.optimizers[optimizer or DEFAULT_OPTIMIZER]
            replanner = (
                chosen
                if self.adaptive_replan and hasattr(chosen, "replan")
                else None
            )
            sim_before = trace.elapsed_s if trace is not None else 0.0
            try:
                result = self.executor.execute(
                    plan,
                    trace=trace,
                    timeout=timeout,
                    global_id=global_id,
                    allow_partial=allow_partial,
                    replanner=replanner,
                    request_id=request_id,
                )
            except BaseException:
                # The error marks the span, which tail sampling always
                # keeps; the failure still burns SLO budget.
                failed_sim = (
                    trace.elapsed_s - sim_before if trace is not None else 0.0
                )
                obs.record_request(
                    False, failed_sim, federation=self.federation.name
                )
                raise
            sim_elapsed = result.trace.elapsed_s - sim_before
            span.set_sim(sim_elapsed)
            span.tag(strategy=plan.strategy, rows=len(result.rows))
            # Tail-sampling keep reasons must land before the root span
            # closes (the keep/drop verdict happens at close).
            slow = threshold is not None and sim_elapsed >= threshold
            keep = None
            if result.degraded:
                keep = "degraded"
            elif result.plan is not plan:
                # A mid-query re-plan ran a revised private copy.
                keep = "replanned"
            elif slow:
                keep = "slow"
            if keep is not None:
                span.tag(sample_keep=keep)
        # Report and learn from the plan that actually ran.
        plan = result.plan
        if self.runtime_stats is not None:
            self._record_actuals(plan, result, request_id)
        obs.record_request(
            not result.degraded, sim_elapsed, federation=self.federation.name
        )
        if slow:
            obs.emit(
                "query.slow",
                sim_s=sim_elapsed,
                federation=self.federation.name,
                strategy=plan.strategy,
                plan_digest=plan_digest(plan),
                fetches=len(plan.fetches),
                rows=len(result.rows),
                threshold_s=threshold,
                request=request_id,
            )
        return result

    def _record_actuals(
        self,
        plan: GlobalPlan,
        result: GlobalResult,
        request_id: str | None = None,
    ) -> None:
        """Feed EXPLAIN ANALYZE actuals into the runtime-statistics store.

        Each executed fetch is recorded under its exact fragment shape
        (rows *and* wire bytes) and under its projection-independent rows
        shape, so a later plan shipping a different column set of the
        same predicate still reuses the learned cardinality.  Fragments
        served from the fragment cache are skipped: a hit implies the
        data version is unchanged, so they carry no new information — and
        their zero wire bytes must not erode the learned row widths.
        Degraded (skipped-site) fetches are not recorded either.
        """
        store = self.runtime_stats
        bumped = False
        for fetch in plan.fetches:
            actual = result.fetch_actuals.get(fetch.index)
            if actual is None or actual.cached:
                continue
            rows = float(actual.rows)
            bytes_ = float(actual.bytes)
            bumped |= store.observe(
                fetch.site, fetch.export, fetch_shape(fetch), rows, bytes_
            )
            bumped |= store.observe(
                fetch.site, fetch.export, fetch_rows_shape(fetch), rows, bytes_
            )
        if bumped:
            obs = self.obs
            obs.metrics.inc("query.feedback_version_bumps")
            obs.emit(
                "query.feedback",
                federation=self.federation.name,
                runtime_stats_version=store.version,
                entries=len(store),
                request=request_id,
            )
