"""Global query execution at the federation site.

Executes a :class:`~repro.query.localizer.GlobalPlan`:

1. ship fragment queries to gateways, one stage at a time on the calling
   thread: the independent fetches of a stage are sent one after another
   in plan order but charged as concurrent (one branch each of a parallel
   section on the message trace, so the stage costs the max over its
   branches in simulated time), semijoin-dependent fetches after their key
   source,
2. type each shipped :class:`~repro.storage.fragment.Fragment` with
   federation-canonical column types, a column at a time: columns the
   gateway already canonicalised are kept as shipped, not re-validated,
3. evaluate the residual query over the fragments, passed to the
   federation-site engine by name and read in place (``FragmentScan``),
   with the federation's integration functions registered,
4. return rows plus the full traffic/timing accounting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.cache import FragmentCache
from repro.config import Config
from repro.engine import ExecutionReport, LocalEngine, ResultSet
from repro.errors import (
    CircuitOpenError,
    ExecutionError,
    FederationError,
    MessageDropped,
)
from repro.gateway import LOCAL_ROW_COST_S, Gateway
from repro.net import MessageTrace
from repro.obs import DISABLED, FetchActual, Observability, obs_of
from repro.query.localizer import Fetch, GlobalPlan
from repro.schema.federation import Federation
from repro.sql import ast, to_sql
from repro.storage import Catalog, Column, Fragment, TableSchema
from repro.storage.types import ANY, FLOAT, INTEGER, DataType, TypeKind


def _canonical_type(datatype: DataType) -> DataType:
    """Fragment columns use federation-canonical types.

    Dialect-specific exact numerics (Oracle NUMBER → Decimal) become FLOAT
    at the federation site, matching the value normalisation gateways apply
    to shipped rows.
    """
    if datatype.kind is TypeKind.DECIMAL:
        # NUMBER(p) with no scale is an integer; anything else is FLOAT.
        if len(datatype.params) == 1 or (
            len(datatype.params) == 2 and datatype.params[1] == 0
        ):
            return INTEGER
        return FLOAT
    return datatype


def _output_type(
    expression: ast.Expression, export_schema: TableSchema
) -> DataType:
    """Canonical type of one output of a block shipped whole.

    A bare export column keeps its canonical type, and so do MIN, MAX and
    SUM of one; COUNT is INTEGER.  Anything else is typed only at run time
    and stays ANY.
    """
    if isinstance(expression, ast.FunctionCall) and expression.is_aggregate:
        name = expression.name.upper()
        if name == "COUNT":
            return INTEGER
        if name not in ("MIN", "MAX", "SUM") or len(expression.args) != 1:
            return ANY
        expression = expression.args[0]
    if isinstance(expression, ast.ColumnRef) and export_schema.has_column(
        expression.name
    ):
        return _canonical_type(export_schema.column(expression.name).datatype)
    return ANY


@dataclass
class GlobalResult:
    """Result of one global query: rows + plan + accounting."""

    columns: list[str]
    rows: list[tuple]
    #: The executed plan.  Read-only: usually the plan cache's entry,
    #: shared with every other execution of the statement (a mid-query
    #: re-plan hands back its own revised copy instead).
    plan: GlobalPlan
    trace: MessageTrace
    fetched_rows: int = 0
    #: Per-fetch measurements (fetch index → actuals), for explain_analyze.
    fetch_actuals: dict[int, FetchActual] = field(default_factory=dict)
    #: True when ``allow_partial`` execution skipped one or more sites:
    #: the rows cover only the reachable part of the federation.
    degraded: bool = False
    #: Sites whose fragments are missing from a degraded result.
    missing_sites: list[str] = field(default_factory=list)
    #: Correlation id of the request that produced this result; stamped on
    #: every span, event, and network message of the execution.
    request_id: str | None = None
    #: The federation-site engine's work on the residual query: rows
    #: scanned and whether it ran as a batch or by rows.
    residual: ExecutionReport | None = None

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def to_dicts(self) -> list[dict[str, object]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self) -> object:
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"expected 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def column(self, name: str) -> list[object]:
        try:
            position = [c.lower() for c in self.columns].index(name.lower())
        except ValueError:
            raise ExecutionError(f"no column {name!r} in result") from None
        return [row[position] for row in self.rows]

    @property
    def elapsed_s(self) -> float:
        return self.trace.elapsed_s

    @property
    def bytes_shipped(self) -> int:
        return self.trace.total_bytes

    def explain_analyze(self) -> str:
        """The executed plan annotated with per-fetch actuals vs. estimates."""
        from repro.obs.explain import render_explain_analyze

        return render_explain_analyze(self)


@dataclass
class _FetchOutcome:
    """What one fetch produced: shipped, settled from the cache, or
    skipped."""

    fetch: Fetch
    result: Fragment
    actual: FetchActual | None = None
    degraded: bool = False


class _Probe(NamedTuple):
    """One fragment-cache lookup, kept so a miss can store its result."""

    sql: str  #: the fragment's SQL text, its cache key
    version: tuple  #: the export's data version seen before the lookup


@dataclass
class _Execution:
    """Per-call state shared by every fetch of one :meth:`execute`."""

    trace: MessageTrace
    timeout: float | None
    global_id: object | None
    allow_partial: bool
    #: Sites skipped so far; their fragments materialise empty.
    missing: set[str]
    health: object
    obs: Observability
    use_cache: bool
    request_id: str | None
    fetch_results: dict[int, Fragment] = field(default_factory=dict)


class GlobalExecutor:
    """Runs GlobalPlans for one federation.

    Every fetch runs on the calling thread, in plan order.  The simulated
    network still models concurrent subquery shipping: each fetch of a
    stage is one branch of a parallel section, and the stage costs the
    max over its branches.  Replaying a query therefore reproduces its
    simulated cost, bytes, messages and the network clock exactly.
    """

    def __init__(
        self,
        federation: Federation,
        config: Config,
        obs: Observability | None = None,
    ):
        self.federation = federation
        self._obs = obs
        #: Gateways ship dict/RLE-encoded fragments; cached fragments keep
        #: the encoded payload and decode on hit.
        self.wire_compression = config.wire_compression
        #: Transient-loss resilience: each fetch retries dropped messages
        #: up to this many times, with exponential simulated backoff.
        self.fetch_retry_limit = 2
        self.fetch_retry_backoff_s = 0.01
        #: Mid-query re-planning trigger: a completed fetch whose actual
        #: row count diverges from its estimate by at least this factor
        #: (either direction) re-optimizes the remaining stages — when a
        #: replanner was passed to :meth:`execute`.
        self.replan_threshold = 3.0
        #: Optional federation-site fragment cache (shared across queries;
        #: bypassed inside global transactions).
        capacity = config.fragment_cache_capacity
        self.fragment_cache = FragmentCache(capacity) if capacity else None
        #: The federation site's own catalog: empty, since the residual
        #: reads each query's fragments in place, passed by name.
        self._catalog = Catalog(f"federation:{federation.name}")

    @property
    def gateways(self) -> dict[str, Gateway]:
        return self.federation.gateways

    @property
    def _codec(self) -> str:
        """Payload family folded into fragment-cache keys: toggling
        ``wire_compression`` on a live federation must never replay
        entries stored under the other payload format."""
        return "dictrle" if self.wire_compression else ""

    @property
    def obs(self) -> Observability:
        if self._obs is not None:
            return self._obs
        for gateway in self.federation.gateways.values():
            return obs_of(gateway.network)
        return DISABLED

    def execute(
        self,
        plan: GlobalPlan,
        trace: MessageTrace | None = None,
        timeout: float | None = None,
        global_id: object | None = None,
        allow_partial: bool = False,
        skip_sites: set[str] | None = None,
        replanner=None,
        request_id: str | None = None,
    ) -> GlobalResult:
        """Run one global plan.

        Dropped fetch messages are retried up to ``fetch_retry_limit``
        times with exponential simulated backoff.  With
        ``allow_partial=True``, a site whose circuit breaker refuses
        traffic — or that stays unreachable through every retry — is
        *skipped*: its fragment materialises empty, and the result comes
        back ``degraded`` with the site listed in ``missing_sites``.
        ``skip_sites`` pre-seeds that set (sites the caller already found
        dead, e.g. while opening transaction branches).

        ``replanner`` (an optimizer with a ``replan`` method) switches on
        **adaptive mid-query re-planning**: after each stage, if a
        completed fetch's actual rows diverged from its estimate beyond
        ``replan_threshold`` — or a remaining site's circuit breaker
        opened — the not-yet-executed fetches are re-optimized with the
        measured actuals pinned.  Stages are scheduled dynamically, so a
        revised dependency graph takes effect immediately.  Without a
        replanner the schedule is identical to the non-adaptive executor.
        """
        trace = trace or MessageTrace()
        sim_start = trace.elapsed_s
        run = _Execution(
            trace=trace,
            timeout=timeout,
            global_id=global_id,
            allow_partial=allow_partial,
            missing=set(skip_sites or ()),
            health=self._health(),
            obs=self.obs,
            use_cache=self.fragment_cache is not None and global_id is None,
            request_id=request_id,
        )
        obs = run.obs
        fragments: dict[str, Fragment] = {}
        fetch_results = run.fetch_results
        fetch_actuals: dict[int, FetchActual] = {}
        fetched_rows = 0
        remaining = {fetch.index: fetch for fetch in plan.fetches}
        done: set[int] = set()
        stage_index = 0
        while remaining:
            stage = self._next_stage(remaining, done)
            with obs.span("execute.stage", stage=stage_index) as stage_span:
                trace.begin_parallel()
                # end_parallel() must run even when a fetch raises
                # (MessageDropped, GatewayTimeout, ...): a caller-supplied
                # trace outlives this call, and an unbalanced parallel
                # section would swallow every later cost it records.
                try:
                    outcomes = self._run_stage(stage, run)
                finally:
                    trace.end_parallel()
                for outcome in outcomes:
                    fetch = outcome.fetch
                    fetch_results[fetch.index] = outcome.result
                    if outcome.degraded:
                        continue
                    if outcome.actual is not None:
                        fetch_actuals[fetch.index] = outcome.actual
                    fetched_rows += outcome.result.length
                stage_span.tag(fetches=len(stage))
            for fetch in stage:
                fragments[fetch.temp_name.lower()] = self._canonical_fragment(
                    fetch, fetch_results[fetch.index]
                )
                del remaining[fetch.index]
                done.add(fetch.index)
            if replanner is not None and remaining:
                plan = self._maybe_replan(
                    plan,
                    stage,
                    stage_index,
                    replanner,
                    remaining,
                    done,
                    fetch_actuals,
                    run,
                )
                remaining = {index: plan.fetches[index] for index in remaining}
            stage_index += 1

        engine = LocalEngine(
            self._catalog, functions=self.federation.functions.as_dict()
        )
        with obs.span("execute.residual") as residual_span:
            result = engine.execute_query(plan.query, fragments=fragments)
            residual = engine.last_report
            residual_sim = residual.rows_scanned * LOCAL_ROW_COST_S
            trace.add_compute(residual_sim)
            residual_span.set_sim(residual_sim)
            residual_span.tag(rows=len(result.rows))
        # Execution metrics live here, beside query.degraded, so reads
        # inside global transactions count too.
        metrics = obs.metrics
        metrics.inc("query.executed", strategy=plan.strategy)
        metrics.inc("query.rows_fetched", fetched_rows)
        metrics.observe("query.sim_elapsed_s", trace.elapsed_s - sim_start)
        missing = run.missing
        if missing:
            metrics.inc("query.degraded")
            obs.emit(
                "query.degraded", sites=sorted(missing), request=request_id
            )
        return GlobalResult(
            columns=result.columns,
            rows=result.rows,
            plan=plan,
            trace=trace,
            fetched_rows=fetched_rows,
            fetch_actuals=fetch_actuals,
            degraded=bool(missing),
            missing_sites=sorted(missing),
            request_id=request_id,
            residual=residual,
        )

    def _health(self):
        for gateway in self.federation.gateways.values():
            return getattr(gateway.network, "health", None)
        return None

    def _degraded_fragment(self, fetch: Fetch, obs: Observability) -> Fragment:
        """Empty stand-in for a fragment from a skipped (dead) site.

        Downstream semijoins see zero key values (their shipped query
        degenerates to ``1=0``), so the rest of the plan still runs.
        """
        obs.metrics.inc("query.degraded_fetches", site=fetch.site)
        return Fragment.from_rows(fetch.columns, [])

    def _fetch_with_retry(
        self,
        fetch: Fetch,
        shipped: ast.Select,
        trace: MessageTrace,
        timeout: float | None,
        global_id: object | None,
        request_id: str | None = None,
    ) -> ResultSet:
        """One fetch with bounded retry of transient message loss.

        Backoff is exponential in *simulated* time, charged both to the
        query's trace (the caller waits it out) and to the network clock
        (so breaker cooldowns advance).  Only
        :class:`~repro.errors.MessageDropped` is transient; a refused
        circuit fails immediately.
        """
        gateway = self.gateways[fetch.site]
        network = gateway.network
        last_error: MessageDropped | None = None
        for attempt in range(self.fetch_retry_limit + 1):
            if attempt:
                self.obs.metrics.inc("query.fetch_retries", site=fetch.site)
                backoff = self.fetch_retry_backoff_s * 2 ** (attempt - 1)
                trace.add_compute(backoff)
                network.advance(backoff)
            try:
                return gateway.execute_query(
                    shipped,
                    trace=trace,
                    timeout=timeout,
                    global_id=global_id,
                    request_id=request_id,
                )
            except MessageDropped as error:
                last_error = error
        raise last_error

    # ------------------------------------------------------------------
    # Fetch scheduling
    # ------------------------------------------------------------------

    def _next_stage(
        self, remaining: dict[int, Fetch], done: set[int]
    ) -> list[Fetch]:
        """The currently-ready fetches: no dependency, or source done.

        Computed against the *live* plan, so mid-query re-planning (which
        rewires semijoin dependencies of unexecuted fetches) takes effect
        on the very next stage.
        """
        stage = [
            fetch
            for fetch in remaining.values()
            if fetch.semijoin is None or fetch.semijoin.source_index in done
        ]
        if not stage:
            raise FederationError(
                "cyclic semijoin dependencies in global plan"
            )
        return stage

    def _maybe_replan(
        self,
        plan: GlobalPlan,
        stage: list[Fetch],
        stage_index: int,
        replanner,
        remaining: dict[int, Fetch],
        done: set[int],
        fetch_actuals: dict[int, FetchActual],
        run: _Execution,
    ) -> GlobalPlan:
        """Re-optimize remaining stages if this stage's actuals diverged.

        Triggers when a just-completed fetch's measured row count is off
        from its estimate by ``replan_threshold``× in either direction, or
        when a remaining site's circuit breaker has opened (pure state
        check — probe admission stays with the fetch path).  Delegates the
        actual plan surgery to ``replanner.replan`` with completed fetches
        pinned and exact key counts read off the materialised fragments.
        Returns the plan to continue with: ``plan`` itself, or the
        replanner's revised private copy (``plan`` may be a shared
        plan-cache entry and is never written to).
        """
        trigger: str | None = None
        for fetch in stage:
            actual = fetch_actuals.get(fetch.index)
            if actual is None or fetch.est_rows is None:
                continue
            ratio = max(
                (actual.rows + 1.0) / (fetch.est_rows + 1.0),
                (fetch.est_rows + 1.0) / (actual.rows + 1.0),
            )
            if ratio >= self.replan_threshold:
                trigger = (
                    f"divergence: fetch #{fetch.index} estimated "
                    f"{fetch.est_rows:.0f} rows, measured {actual.rows} "
                    f"({ratio:.1f}x)"
                )
                break
        health = run.health
        if trigger is None and health is not None:
            for fetch in remaining.values():
                if fetch.site not in run.missing and health.is_blocked(
                    fetch.site
                ):
                    trigger = f"breaker open: site {fetch.site!r}"
                    break
        if trigger is None:
            return plan

        # Degraded fetches count as executed (they must stay pinned) but
        # carry (0, 0) and are refused as key sources via key_count=None.
        executed: dict[int, tuple[float, float]] = {}
        for index in done:
            actual = fetch_actuals.get(index)
            executed[index] = (
                (float(actual.rows), float(actual.bytes))
                if actual is not None
                else (0.0, 0.0)
            )

        def key_count(index: int, column: str) -> int | None:
            if fetch_actuals.get(index) is None:
                return None  # degraded fragment: not a usable key source
            result = run.fetch_results.get(index)
            if result is None:
                return None
            try:
                values = result.column(column)
            except ExecutionError:
                return None
            return len({value for value in values if value is not None})

        plan, notes = replanner.replan(
            plan, executed, key_count, stage=stage_index
        )
        if notes:
            run.obs.metrics.inc("query.replans")
            run.obs.emit(
                "query.replan",
                stage=stage_index,
                trigger=trigger,
                changes=len(notes),
                sim_s=run.trace.elapsed_s,
                request=run.request_id,
            )
        return plan

    def _run_stage(
        self, stage: list[Fetch], run: _Execution
    ) -> list[_FetchOutcome]:
        """Run one stage; outcomes come back in plan (fetch-index) order.

        Skipped sites and fragment-cache hits are settled first: every
        fetch without a semijoin probes the cache exactly once, a hit is
        materialised in place, and only the misses are shipped, in plan
        order, each carrying its probe, so its SQL text and data version
        are not computed again.  A semijoin fetch's text depends on this
        execution's key values, so it probes where it ships.  The first
        fetch that fails raises at once: no later fetch of the stage
        sends a message.
        """
        settled: list[_FetchOutcome] = []
        misses: list[tuple[Fetch, _Probe | None]] = []
        for fetch in stage:
            outcome = self._skip(fetch, run)
            probe = None
            if outcome is None and run.use_cache and fetch.semijoin is None:
                outcome, probe = self._probe(fetch, fetch.shipped_sql(), run)
            if outcome is not None:
                settled.append(outcome)
            else:
                misses.append((fetch, probe))
        shipped = [self._run_one(fetch, run, probe) for fetch, probe in misses]
        outcomes = settled + shipped
        outcomes.sort(key=lambda outcome: outcome.fetch.index)
        return outcomes

    def _skip(self, fetch: Fetch, run: _Execution) -> _FetchOutcome | None:
        """A degraded outcome when ``fetch``'s site is skipped, else None."""
        if fetch.site not in run.missing:
            # is_blocked (pure), not allow(): the half-open probe slot is
            # admitted by the gateway's own circuit check on the send path
            # — consuming it here would double-count one request as two
            # probes (and starve the single-flight probe).
            if not (
                run.allow_partial
                and run.health is not None
                and run.health.is_blocked(fetch.site)
            ):
                return None
            run.missing.add(fetch.site)
        return _FetchOutcome(
            fetch, self._degraded_fragment(fetch, run.obs), degraded=True
        )

    def _probe(
        self, fetch: Fetch, sql: str, run: _Execution
    ) -> tuple[_FetchOutcome | None, _Probe]:
        """Look ``fetch`` up in the fragment cache: the hit (if any), and
        the probe a miss needs to store what it ships."""
        version = self.gateways[fetch.site].data_version(fetch.export)
        probe = _Probe(sql, version)
        hit = self.fragment_cache.lookup(
            fetch.site, fetch.export, sql, probe.version, codec=self._codec
        )
        if hit is None:
            run.obs.metrics.inc("fragcache.miss", site=fetch.site)
            return None, probe
        run.obs.metrics.inc("fragcache.hit", site=fetch.site)
        fragment = hit.materialize()
        outcome = _FetchOutcome(
            fetch, fragment, FetchActual(rows=fragment.length, cached=True)
        )
        return outcome, probe

    def _run_one(
        self, fetch: Fetch, run: _Execution, probe: _Probe | None
    ) -> _FetchOutcome:
        """One fetch end to end: skip, cache lookup, ship, cache store.

        ``probe`` is the fragment-cache miss :meth:`_run_stage` already
        recorded; without one (a semijoin fetch) the lookup happens here.
        """
        skipped = self._skip(fetch, run)
        if skipped is not None:
            return skipped
        shipped = self._shipped_query(fetch, run.fetch_results)
        if run.use_cache and probe is None:
            hit, probe = self._probe(fetch, to_sql(shipped), run)
            if hit is not None:
                return hit
        gateway = self.gateways[fetch.site]
        obs = run.obs
        trace = run.trace
        branch_name = f"{fetch.site}:{fetch.binding}"
        wall_start = time.perf_counter()
        with obs.span(
            "execute.fetch",
            site=fetch.site,
            export=fetch.export,
            binding=fetch.binding,
        ) as fetch_span:
            try:
                with trace.branch(branch_name) as branch:
                    result = self._fetch_with_retry(
                        fetch,
                        shipped,
                        trace,
                        run.timeout,
                        run.global_id,
                        request_id=run.request_id,
                    )
            except (MessageDropped, CircuitOpenError):
                if not run.allow_partial:
                    raise
                run.missing.add(fetch.site)
                return _FetchOutcome(
                    fetch, self._degraded_fragment(fetch, obs), degraded=True
                )
            fragment = result.fragment
            encoded = getattr(result, "encoded", None)
            actual = FetchActual(
                rows=fragment.length,
                bytes=branch.payload_bytes,
                messages=len(branch.records),
                sim_s=trace.branch_elapsed(branch_name),
                wall_s=time.perf_counter() - wall_start,
                raw_bytes=branch.raw_payload_bytes,
                codec=encoded.codec if encoded is not None else None,
                scanned=getattr(result, "scanned", None),
                strategy=getattr(result, "strategy", None),
            )
            fetch_span.set_sim(actual.sim_s)
            fetch_span.tag(rows=actual.rows, bytes=actual.bytes)
        if probe is not None:
            # Degraded fragments never reach this store (they return
            # above); a version moved by a concurrent commit between the
            # probe and arrival is rejected inside store().
            stored = self.fragment_cache.store(
                fetch.site,
                fetch.export,
                probe.sql,
                probe.version,
                gateway.data_version(fetch.export),
                fragment,
                encoded=encoded,
                codec=self._codec,
            )
            if stored and encoded is not None:
                obs.metrics.inc("fragcache.bytes_raw", encoded.raw_bytes)
                obs.metrics.inc("fragcache.bytes_wire", encoded.wire_bytes)
                obs.metrics.inc(
                    "fragcache.bytes_saved",
                    encoded.raw_bytes - encoded.wire_bytes,
                )
        return _FetchOutcome(fetch, fragment, actual)

    def _shipped_query(
        self, fetch: Fetch, fetch_results: dict[int, Fragment]
    ) -> ast.Select:
        """Build the SELECT shipped for this fetch (semijoin keys bound)."""
        in_list: list[object] | None = None
        if fetch.semijoin is not None:
            source = fetch_results[fetch.semijoin.source_index]
            key_values = source.column(fetch.semijoin.source_column)
            seen: set[object] = set()
            in_list = []
            for value in key_values:
                if value is None or value in seen:
                    continue
                seen.add(value)
                in_list.append(value)
        return fetch.shipped_query(in_list)

    def _canonical_fragment(self, fetch: Fetch, fragment: Fragment) -> Fragment:
        """``fragment`` typed as the residual query reads it.

        Columns get federation-canonical types (:meth:`Fragment.canonical`
        keeps every column the gateway already canonicalised as shipped).
        The export's primary key is kept when fully shipped: the residual
        planner can then probe the fragment by key, if the key holds in
        the data (:meth:`Fragment.key_index`).
        """
        export_schema = self.gateways[fetch.site].export_relation_schema(
            fetch.export
        )
        primary_key: list[str] = []
        if fetch.whole_query is not None:
            columns = [
                Column(name, _output_type(item.expression, export_schema))
                for name, item in zip(fragment.names, fetch.whole_query.items)
            ]
        else:
            columns = [
                Column(
                    name, _canonical_type(export_schema.column(name).datatype)
                )
                for name in fetch.columns
            ]
            shipped = {c.lower() for c in fetch.columns}
            if export_schema.primary_key and all(
                k.lower() in shipped for k in export_schema.primary_key
            ):
                primary_key = list(export_schema.primary_key)
        return fragment.canonical(
            TableSchema(fetch.temp_name, columns, primary_key)
        )
