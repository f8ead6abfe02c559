"""The MYRIAD gateway: the federation's ambassador at one component DBMS.

Responsibilities (as in the paper):

- expose the component's *export relations* and their statistics
- accept global SQL fragments, translate them to the local dialect, run them
  through a local session, and ship results back (every hop accounted on the
  simulated network)
- attach a *timeout* to each local query: if the local DBMS cannot finish in
  time (in this model: blocks on a lock that long), raise
  :class:`~repro.errors.GatewayTimeout`, which the global transaction manager
  interprets as a potential global deadlock and aborts the whole global
  transaction
- act as the 2PC participant proxy for global transactions (begin / prepare /
  commit / abort of the local branch)
"""

from __future__ import annotations

import threading
from decimal import Decimal

from repro.engine import ResultSet
from repro.engine.planner import IndexedColumn, indexed_columns
from repro.errors import (
    CircuitOpenError,
    GatewayError,
    GatewayTimeout,
    LockTimeoutError,
    NetworkError,
)
from repro.gateway.exports import ExportRelation, ExportSchema
from repro.gateway.translate import rewrite_exports
from repro.localdb.dbms import LocalDBMS, Session
from repro.net import MessageTrace, Network
from repro.net.sim import estimate_fragment_bytes
from repro.obs import Observability, obs_of
from repro.sql import ast, to_sql
from repro.storage.fragment import Fragment
from repro.storage.stats import TableStats, analyze_rows

#: Virtual per-row processing cost at a component site (SPARC-era: ~50k
#: rows/s through the executor).
LOCAL_ROW_COST_S = 2e-5

#: Site name used for the federation server in message accounting.
FEDERATION_SITE = "federation"


class Gateway:
    """Gateway process in front of one component DBMS."""

    def __init__(
        self,
        dbms: LocalDBMS,
        network: Network,
        site: str | None = None,
        default_timeout: float | None = None,
        wire_compression: bool = False,
    ):
        self.dbms = dbms
        self.network = network
        self.site = site or dbms.name
        self.default_timeout = default_timeout
        #: When True, shipped fragment results are dictionary/RLE encoded
        #: before the ``result`` message is accounted: the network charges
        #: compressed bytes and the encoded payload rides back to the
        #: federation (``ResultSet.encoded``).  Off ⇒ byte accounting is
        #: bit-identical to the uncompressed system.
        self.wire_compression = bool(wire_compression)
        self.exports = ExportSchema(self.site)
        network.add_site(self.site)
        network.add_site(FEDERATION_SITE)
        self._txn_sessions: dict[object, Session] = {}
        self._stats_cache: dict[str, TableStats] = {}
        #: Per-export single-flight locks: concurrent statistics misses for
        #: one export must not double-run the export view (and must not
        #: let a stale recomputation overwrite a fresher ``refresh=True``).
        self._stats_flights: dict[str, threading.Lock] = {}
        #: Narrow mutex for the gateway's shared maps/counters.  Never held
        #: across a network send or a local execution — concurrent server
        #: sessions must not convoy behind one stuck in a lock wait.
        self._mutex = threading.Lock()
        #: Bumped whenever cached statistics are invalidated (DML commit,
        #: export change); part of the global plan-cache key.
        self.stats_version = 0
        # Fragment-cache invalidation state: per-local-table data version
        # counters, bumped only when a write *commits* (2PC or autocommit),
        # plus an export epoch covering export redefinitions and writes
        # whose table set was lost (process restart).
        self._table_versions: dict[str, int] = {}
        self._export_epoch = 0
        self._txn_writes: dict[object, set[str]] = {}
        # Experiment counters
        self.queries_executed = 0
        self.timeouts = 0
        #: Fragment fetches served from an MVCC snapshot (lock-free reads).
        self.snapshot_reads = 0
        # Fault-injection hooks (testing/benchmarks): vote NO on the next N
        # prepares / swallow the next N commit decisions (simulating a
        # participant crash between phases).
        self.fail_next_prepares = 0
        self.drop_next_commits = 0

    @property
    def obs(self) -> Observability:
        return obs_of(self.network)

    def _check_circuit(self) -> None:
        """Fail fast when this site's circuit breaker refuses traffic.

        Only the query/DML paths are gated: 2PC branch control
        (begin/prepare/commit/abort) and recovery must always be allowed
        to try — their deliveries are exactly the probes that re-close a
        breaker.  When the breaker is OPEN but its cooldown has elapsed,
        ``allow()`` admits this call as the half-open probe.
        """
        health = getattr(self.network, "health", None)
        if health is not None and not health.allow(self.site):
            self.obs.metrics.inc("gateway.circuit_open", site=self.site)
            raise CircuitOpenError(
                f"site {self.site!r} refused: circuit breaker is open",
                site=self.site,
            )

    # ------------------------------------------------------------------
    # Export management
    # ------------------------------------------------------------------

    def export_table(
        self,
        local_table: str,
        export_name: str | None = None,
        columns: list[str] | dict[str, str] | None = None,
        predicate: str | None = None,
    ) -> ExportRelation:
        """Expose a local table (or a projection/restriction of it)."""
        schema = self.dbms.table_schema(local_table)
        relation = self.exports.export_table(
            schema, export_name, columns, predicate
        )
        with self._mutex:
            self._stats_cache.pop(relation.name.lower(), None)
            self.stats_version += 1
            # Redefining an export changes what its fragments *mean*:
            # every cached fragment for this site is now suspect.
            self._export_epoch += 1
        return relation

    def export_names(self) -> list[str]:
        return self.exports.names()

    def export_relation_schema(self, name: str):
        relation = self.exports.get(name)
        local_schema = self.dbms.table_schema(relation.local_table)
        return self.exports.export_schema_of(name, local_schema)

    def export_stats(self, name: str, refresh: bool = False) -> TableStats:
        """Statistics of an export view (computed by running the view).

        Recomputation is **single-flight per export**: concurrent cache
        misses serialise on a per-key lock, so the view scan runs once and
        late arrivals reuse the result — and a plain miss that raced past
        a ``refresh=True`` caller can never overwrite the fresher
        statistics with its stale scan.  A refresh replaces the cached
        statistics *and* bumps ``stats_version``: plans compiled from the
        superseded statistics die in the plan cache by key change.
        """
        key = name.lower()
        if not refresh:
            with self._mutex:
                if key in self._stats_cache:
                    return self._stats_cache[key]
        with self._mutex:
            flight = self._stats_flights.setdefault(key, threading.Lock())
        with flight:
            if not refresh:
                # A concurrent miss (or refresh) computed it while this
                # caller waited for the flight lock: reuse, don't re-scan.
                with self._mutex:
                    if key in self._stats_cache:
                        return self._stats_cache[key]
            relation = self.exports.get(name)
            result = self.dbms.execute(relation.as_query())
            stats = analyze_rows(relation.name, result.columns, result.rows)
            with self._mutex:
                replacing = refresh and key in self._stats_cache
                self._stats_cache[key] = stats
                if replacing:
                    self.stats_version += 1
            return stats

    def export_index_columns(self, name: str) -> dict[str, IndexedColumn]:
        """Index facts of an export's columns, keyed by lower-cased export name.

        Read from the live local catalog, so an index created after the
        statistics were cached is seen: the cost model uses this to know
        which fetches the component answers with an index probe.
        """
        relation = self.exports.get(name)
        local = indexed_columns(self.dbms.catalog.get_table(relation.local_table))
        return {
            export.lower(): local[column.lower()]
            for export, column in relation.columns.items()
            if column.lower() in local
        }

    # ------------------------------------------------------------------
    # Fragment-cache versioning
    # ------------------------------------------------------------------

    def data_version(self, export_name: str) -> tuple[int, int, int]:
        """Version token for one export's underlying data.

        Changes whenever a write to the export's local table *commits*
        (or whenever the export itself is redefined), so the federation's
        fragment cache can compare-and-reuse shipped fragments.  The third
        component is the component DBMS's own per-table commit stamp, which
        moves on *local-application* commits the gateway never sees —
        without it a cached fragment would outlive an autonomous write.
        """
        try:
            local = self.exports.get(export_name).local_table.lower()
        except GatewayError:
            local = export_name.lower()
        local_ts = self.dbms.transactions.table_commit_ts(local)
        with self._mutex:
            return (
                self._export_epoch,
                self._table_versions.get(local, 0),
                local_ts,
            )

    def _record_write(self, global_id: object, local_table: str | None) -> None:
        with self._mutex:
            writes = self._txn_writes.setdefault(global_id, set())
            if local_table is not None:
                writes.add(local_table.lower())

    def _apply_writes(self, writes: set[str] | None) -> None:
        """Make a resolved branch's writes visible to version readers.

        The only place a write moves this gateway's versions — fragment
        data versions and ``stats_version`` alike — so DML inside an open
        branch expires nothing, an abort expires nothing, and a commit
        expires once.  ``None`` means the branch's write set was lost
        (e.g. resolved through recovery after a process restart):
        conservatively bump the site-wide epoch instead — over-invalidation
        is always safe.
        """
        with self._mutex:
            if writes is None:
                self._export_epoch += 1
            elif writes:
                for table in writes:
                    self._table_versions[table] = (
                        self._table_versions.get(table, 0) + 1
                    )
            else:
                return  # read-only branch: nothing changed
            self._stats_cache.clear()
            self.stats_version += 1

    # ------------------------------------------------------------------
    # Query shipping
    # ------------------------------------------------------------------

    def execute_query(
        self,
        query: ast.Query | str,
        trace: MessageTrace | None = None,
        from_site: str = FEDERATION_SITE,
        timeout: float | None = None,
        global_id: object | None = None,
        request_id: str | None = None,
    ) -> ResultSet:
        """Translate, run locally, and ship back one query fragment."""
        if isinstance(query, str):
            from repro.sql import parse_query

            query = parse_query(query)
        self._check_circuit()
        local_query = rewrite_exports(query, self.exports)
        sql_text = to_sql(local_query, self.dbms.dialect)

        obs = self.obs
        with obs.span("gateway.query", site=self.site) as span:
            if request_id is not None:
                span.tag(request=request_id)
            request_cost = self.network.send(
                from_site,
                self.site,
                len(sql_text.encode()),
                "query",
                trace,
                request_id=request_id,
            )
            session = self._session_for(global_id)
            result = self._run_local(session, sql_text, timeout)
            report = self.dbms.engine.last_report
            compute_cost = report.rows_scanned * LOCAL_ROW_COST_S
            if trace is not None:
                trace.add_compute(compute_cost)
            # The component's result, a column at a time: sized, framed
            # and shipped without ever being turned into rows here.
            local = result.fragment
            fragment = _normalize_fragment(local)
            encoded = None
            raw_bytes = None
            if self.wire_compression:
                from repro.net.codec import encode_fragment

                # Encode the canonicalised fragment — exactly what the
                # federation receives — and charge compressed bytes.
                encoded = encode_fragment(fragment)
                result_bytes = encoded.wire_bytes
                if encoded.wire_bytes < encoded.raw_bytes:
                    raw_bytes = encoded.raw_bytes
            else:
                result_bytes = estimate_fragment_bytes(local)
            reply_cost = self.network.send(
                self.site,
                from_site,
                result_bytes,
                "result",
                trace,
                request_id=request_id,
                raw_bytes=raw_bytes,
            )
            with self._mutex:
                self.queries_executed += 1
                # Non-transactional fetches ran on a throwaway autocommit
                # session: with MVCC enabled that was a snapshot read.
                if global_id is None and getattr(
                    self.dbms, "mvcc_reads", False
                ):
                    self.snapshot_reads += 1
            sim_latency = request_cost + compute_cost + reply_cost
            span.set_sim(sim_latency).tag(
                rows=fragment.length, bytes=result_bytes
            )
        metrics = obs.metrics
        metrics.inc("site.rows_shipped", fragment.length, site=self.site)
        metrics.inc("site.bytes_shipped", result_bytes, site=self.site)
        metrics.observe("gateway.fetch_latency_s", sim_latency, site=self.site)
        # Per-site rolling window: the ops console's QPS / p95 per site.
        obs.window.inc("site.requests", site=self.site)
        obs.window.observe("site.latency_s", sim_latency, site=self.site)
        shipped = ResultSet.of(fragment)
        # The executor reports the component's scan work per fetch in
        # EXPLAIN ANALYZE: the access path it took, seen from outside,
        # and whether its engine ran the fragment as a batch or by rows.
        shipped.scanned = report.rows_scanned
        shipped.strategy = report.strategy
        if encoded is not None:
            # The executor reads this for per-fetch raw-vs-wire actuals
            # and stores the encoded payload in the fragment cache.
            shipped.encoded = encoded
        return shipped

    def execute_update(
        self,
        statement: ast.Statement | str,
        global_id: object,
        trace: MessageTrace | None = None,
        from_site: str = FEDERATION_SITE,
        timeout: float | None = None,
    ) -> int:
        """Run a DML fragment inside a global transaction's local branch."""
        if isinstance(statement, str):
            from repro.sql import parse_statement

            statement = parse_statement(statement)
        if isinstance(statement, (ast.Select, ast.SetOperation)):
            raise GatewayError("execute_update expects a DML statement")
        self._check_circuit()
        local_stmt = _rewrite_dml(statement, self.exports)
        sql_text = to_sql(local_stmt, self.dbms.dialect)
        with self.obs.span("gateway.dml", site=self.site):
            self.network.send(
                from_site, self.site, len(sql_text.encode()), "dml", trace
            )
            session = self._session_for(global_id)
            result = self._run_local(session, sql_text, timeout)
            self.network.send(self.site, from_site, 8, "ack", trace)
        # Track which local table this branch wrote: fragment-cache and
        # statistics versions bump only if (and when) the branch commits.
        # An autocommit DML (no global transaction) committed just now.
        written = getattr(local_stmt, "table", None)
        if global_id is None:
            self._apply_writes({written.lower()} if written else None)
        else:
            self._record_write(global_id, written)
        if isinstance(result, ResultSet):  # pragma: no cover - defensive
            return len(result)
        return result

    def _run_local(
        self, session: Session, sql_text: str, timeout: float | None
    ):
        effective = timeout if timeout is not None else self.default_timeout
        previous = session.lock_timeout
        session.lock_timeout = effective
        try:
            return session.execute(sql_text)
        except LockTimeoutError as error:
            # Paper semantics: no answer within the timeout period ⇒ assume
            # the global transaction is deadlocked.
            with self._mutex:
                self.timeouts += 1
            self.obs.metrics.inc("gateway.timeouts", site=self.site)
            self.obs.emit(
                "gateway.timeout", site=self.site, timeout_s=effective
            )
            raise GatewayTimeout(
                f"site {self.site!r}: local query exceeded its timeout "
                f"({effective}s): {error}",
                site=self.site,
            ) from error
        finally:
            session.lock_timeout = previous

    def _session_for(self, global_id: object | None) -> Session:
        if global_id is None:
            return self.dbms.connect()
        with self._mutex:
            session = self._txn_sessions.get(global_id)
        if session is None:
            raise GatewayError(
                f"no local branch for global transaction {global_id!r} at "
                f"{self.site!r}; call begin() first"
            )
        return session

    # ------------------------------------------------------------------
    # Global-transaction branch management (2PC participant proxy)
    # ------------------------------------------------------------------

    def begin(
        self,
        global_id: object,
        trace: MessageTrace | None = None,
        from_site: str = FEDERATION_SITE,
    ) -> None:
        with self._mutex:
            if global_id in self._txn_sessions:
                raise GatewayError(
                    f"global transaction {global_id!r} already has a branch "
                    "here"
                )
        with self.obs.span("gateway.begin", site=self.site, txn=global_id):
            self.network.send(from_site, self.site, 32, "begin", trace)
            session = self.dbms.connect()
            session.begin(global_id=global_id)
            with self._mutex:
                self._txn_sessions[global_id] = session
                # An explicit (empty) write set marks a tracked branch: a
                # read-only commit later bumps no fragment versions.
                self._txn_writes.setdefault(global_id, set())
            try:
                self.network.send(self.site, from_site, 8, "ack", trace)
            except NetworkError:
                # The federation never learns this branch opened; undo it
                # so a retried begin() starts clean instead of hitting a
                # duplicate.
                with self._mutex:
                    self._txn_sessions.pop(global_id, None)
                    self._txn_writes.pop(global_id, None)
                session.rollback()
                raise

    def has_branch(self, global_id: object) -> bool:
        with self._mutex:
            return global_id in self._txn_sessions

    def cancel_branch_waits(self, global_id: object) -> None:
        """Cancel any lock wait of this global transaction's local branch.

        Used by the federation's active deadlock-detection policy to kill a
        chosen victim that is blocked inside this component DBMS.
        """
        with self._mutex:
            session = self._txn_sessions.get(global_id)
        if session is not None and session.txn is not None:
            self.dbms.transactions.locks.cancel_waits(session.txn.txn_id)

    def prepared_branches(self) -> list[object]:
        """Global ids whose local branch is sitting in the PREPARED state."""
        with self._mutex:
            sessions = list(self._txn_sessions.items())
        return [
            global_id
            for global_id, session in sessions
            if session.txn is not None and session.txn.state.name == "PREPARED"
        ]

    def prepare(
        self,
        global_id: object,
        trace: MessageTrace | None = None,
        from_site: str = FEDERATION_SITE,
    ) -> bool:
        session = self._session_for(global_id)
        with self.obs.span(
            "gateway.prepare", site=self.site, txn=global_id
        ) as span:
            self.network.send(from_site, self.site, 32, "prepare", trace)
            if self.fail_next_prepares > 0:
                self.fail_next_prepares -= 1
                # Participant votes NO: its branch aborts locally right away.
                self.network.send(self.site, from_site, 8, "vote", trace)
                session.rollback()
                with self._mutex:
                    self._txn_sessions.pop(global_id, None)
                    self._txn_writes.pop(global_id, None)
                span.tag(vote=False)
                self._emit_branch_event(
                    global_id, "ABORTED", trace, vote=False
                )
                return False
            vote = session.prepare()
            self.network.send(self.site, from_site, 8, "vote", trace)
            span.tag(vote=vote)
        self._emit_branch_event(
            global_id, "PREPARED" if vote else "ABORTED", trace, vote=vote
        )
        return vote

    def commit(
        self,
        global_id: object,
        trace: MessageTrace | None = None,
        from_site: str = FEDERATION_SITE,
    ) -> None:
        if self.drop_next_commits > 0:
            # Simulated message loss / participant crash: the branch stays
            # prepared (in doubt) until recovery resolves it.  Unlike an
            # injected network fault this loss is silent — the coordinator
            # believes the decision was delivered.  The branch's write set
            # stays pending too: versions bump at the *real* commit.
            self.drop_next_commits -= 1
            self.network.send(from_site, self.site, 32, "commit", trace)
            return
        with self._mutex:
            session = self._txn_sessions.get(global_id)
        if session is None:
            # Branch already resolved — possibly below the gateway (process
            # restart + participant recovery).  If writes are still parked
            # here, their table set is unreliable: invalidate broadly.
            with self._mutex:
                leftover = self._txn_writes.pop(global_id, None)
            if leftover:
                self._apply_writes(None)
            return
        with self.obs.span("gateway.commit", site=self.site, txn=global_id):
            # The decision message travels first: if the network drops it,
            # the branch must stay in place (in doubt) so a retry or
            # recovery can still resolve it.
            self.network.send(from_site, self.site, 32, "commit", trace)
            with self._mutex:
                self._txn_sessions.pop(global_id, None)
                writes = self._txn_writes.pop(global_id, set())
            if session.txn is not None and session.txn.state.name == "PREPARED":
                session.commit_prepared()
            else:
                session.commit()
            self._apply_writes(writes)
            self._emit_branch_event(global_id, "COMMITTED", trace)
            self.network.send(self.site, from_site, 8, "ack", trace)

    def abort(
        self,
        global_id: object,
        trace: MessageTrace | None = None,
        from_site: str = FEDERATION_SITE,
    ) -> None:
        with self._mutex:
            session = self._txn_sessions.get(global_id)
        if session is None:
            # Nothing committed: discard any tracked writes unbumped.
            with self._mutex:
                self._txn_writes.pop(global_id, None)
            return
        with self.obs.span("gateway.abort", site=self.site, txn=global_id):
            # As with commit: deliver the decision before touching the branch.
            self.network.send(from_site, self.site, 32, "abort", trace)
            with self._mutex:
                self._txn_sessions.pop(global_id, None)
                # Aborted writes never became visible: no version bumps.
                self._txn_writes.pop(global_id, None)
            if session.txn is not None and session.txn.state.name == "PREPARED":
                session.rollback_prepared()
            else:
                session.rollback()
            self._emit_branch_event(global_id, "ABORTED", trace)
            self.network.send(self.site, from_site, 8, "ack", trace)

    # ------------------------------------------------------------------
    # Replication hooks (follower-side apply; no network accounting —
    # the replica group already charged the raft.append messages)
    # ------------------------------------------------------------------

    def apply_replicated(self, sql_text: str) -> int:
        """Apply one replicated statement to this replica's DBMS.

        The statement arrives in the export namespace (the leader captured
        it before its own local rewrite), so each replica re-translates it
        against its own exports and dialect.  Runs autocommit: the entry is
        already majority-durable, this replica just catches up.
        """
        from repro.sql import parse_statement

        statement = _rewrite_dml(parse_statement(sql_text), self.exports)
        local_text = to_sql(statement, self.dbms.dialect)
        result = self.dbms.connect().execute(local_text)
        written = getattr(statement, "table", None)
        self._apply_writes({written.lower()} if written else None)
        if isinstance(result, ResultSet):  # pragma: no cover - defensive
            return len(result)
        return result

    def adopt_branch(
        self, global_id: object, statements: tuple[str, ...]
    ) -> None:
        """Re-create an in-doubt PREPARED branch from its replicated
        write-set (a newly elected leader materialising a prepare entry its
        predecessor committed to the group log but never decided)."""
        with self._mutex:
            if global_id in self._txn_sessions:
                raise GatewayError(
                    f"global transaction {global_id!r} already has a branch "
                    "here"
                )
        from repro.sql import parse_statement

        session = self.dbms.connect()
        session.begin(global_id=global_id)
        written: set[str] = set()
        for sql_text in statements:
            statement = _rewrite_dml(parse_statement(sql_text), self.exports)
            session.execute(to_sql(statement, self.dbms.dialect))
            table = getattr(statement, "table", None)
            if table is not None:
                written.add(table.lower())
        session.prepare()
        with self._mutex:
            self._txn_sessions[global_id] = session
            self._txn_writes[global_id] = written
        self._emit_branch_event(global_id, "PREPARED", None, adopted=True)

    def resolve_replicated(self, global_id: object, decision: str) -> None:
        """Resolve a live local branch from a replicated decision entry.

        Used when the replica holding the branch learns the outcome from
        the group log (it led when the branch ran, or adopted it) rather
        than from a coordinator message.
        """
        with self._mutex:
            session = self._txn_sessions.pop(global_id, None)
            writes = self._txn_writes.pop(global_id, set())
        if session is None:
            return
        prepared = (
            session.txn is not None and session.txn.state.name == "PREPARED"
        )
        if decision == "commit":
            if prepared:
                session.commit_prepared()
            else:
                session.commit()
            self._apply_writes(writes)
            self._emit_branch_event(global_id, "COMMITTED", None)
        else:
            if prepared:
                session.rollback_prepared()
            else:
                session.rollback()
            self._emit_branch_event(global_id, "ABORTED", None)

    def _emit_branch_event(
        self,
        global_id: object,
        state: str,
        trace: MessageTrace | None,
        **fields: object,
    ) -> None:
        """Record one participant-side 2PC state transition."""
        self.obs.emit(
            "2pc",
            sim_s=trace.elapsed_s if trace is not None else None,
            txn=global_id,
            site=self.site,
            role="participant",
            state=state,
            **fields,
        )

    # ------------------------------------------------------------------
    # Introspection (deadlock-oracle baseline, lock table, 2PC states)
    # ------------------------------------------------------------------

    def _local_to_global(self) -> dict[object, object]:
        """Local txn id → global id, for branches of global transactions."""
        mapping: dict[object, object] = {}
        for txn in self.dbms.transactions.active_transactions():
            if txn.global_id is not None:
                mapping[txn.txn_id] = txn.global_id
        return mapping

    def wait_for_edges(self) -> list[tuple[object, object]]:
        """Local wait-for edges in terms of *global* transaction ids.

        Local-only transactions appear under their local ids; branches of
        global transactions are mapped to their global ids so the federation
        can stitch a global wait-for graph (the oracle detector baseline).
        """
        local_to_global = self._local_to_global()
        edges = []
        for waiter, holder in self.dbms.transactions.locks.wait_for_edges():
            edges.append(
                (
                    local_to_global.get(waiter, waiter),
                    local_to_global.get(holder, holder),
                )
            )
        return edges

    def lock_table(self) -> list[dict]:
        """This site's lock table, with branch owners in global-txn terms.

        One entry per locked resource: ``{"resource", "holders": {txn:
        mode}, "waiters": [[txn, mode], ...]}``; modes are ``"S"``/``"X"``.
        """
        local_to_global = self._local_to_global()

        def name(owner: object) -> str:
            return str(local_to_global.get(owner, owner))

        return [
            {
                "resource": entry["resource"],
                "holders": {
                    name(owner): mode
                    for owner, mode in entry["holders"].items()
                },
                "waiters": [
                    [name(owner), mode] for owner, mode in entry["waiters"]
                ],
            }
            for entry in self.dbms.transactions.locks.snapshot()
        ]

    def branch_states(self) -> dict[object, str]:
        """Global id → local branch state for every open branch here."""
        with self._mutex:
            sessions = list(self._txn_sessions.items())
        return {
            global_id: session.txn.state.value
            for global_id, session in sessions
            if session.txn is not None
        }


def _rewrite_dml(statement: ast.Statement, exports: ExportSchema) -> ast.Statement:
    """Map export-relation names in DML to local tables.

    Updatable exports must expose the table 1:1 per column mapping; the
    rewrite renames the target table and the referenced columns.
    """
    if isinstance(statement, ast.Insert):
        if not exports.has(statement.table):
            return statement
        relation = exports.get(statement.table)
        columns = statement.columns or list(relation.columns.keys())
        local_columns = [relation.local_column(c) for c in columns]
        return ast.Insert(
            relation.local_table, local_columns, statement.rows, statement.query
        )
    if isinstance(statement, ast.Update):
        if not exports.has(statement.table):
            return statement
        relation = exports.get(statement.table)
        assignments = [
            (relation.local_column(c), _map_expr(v, relation))
            for c, v in statement.assignments
        ]
        where = (
            _map_expr(statement.where, relation)
            if statement.where is not None
            else None
        )
        return ast.Update(relation.local_table, assignments, where)
    if isinstance(statement, ast.Delete):
        if not exports.has(statement.table):
            return statement
        relation = exports.get(statement.table)
        where = (
            _map_expr(statement.where, relation)
            if statement.where is not None
            else None
        )
        return ast.Delete(relation.local_table, where)
    return statement


def _map_expr(expr: ast.Expression, relation: ExportRelation) -> ast.Expression:
    def replace(node: ast.Expression) -> ast.Expression:
        if isinstance(node, ast.ColumnRef) and node.table is None:
            try:
                return ast.ColumnRef(relation.local_column(node.name))
            except GatewayError:
                return node
        return node

    return ast.transform_expression(expr, replace)


def _normalize_fragment(fragment: Fragment) -> Fragment:
    """Canonicalise dialect-specific value types (Decimal → int/float).

    Only columns holding a Decimal are rebuilt; when none does,
    ``fragment`` comes back untouched, the same object.
    """
    decimal_columns = [
        position
        for position, column in enumerate(fragment.columns)
        if any(issubclass(kind, Decimal) for kind in set(map(type, column)))
    ]
    if not decimal_columns:
        return fragment
    columns = list(fragment.columns)
    for position in decimal_columns:
        columns[position] = list(map(_normalize_value, columns[position]))
    return Fragment(list(fragment.names), columns, fragment.length)


def _normalize_value(value: object) -> object:
    if isinstance(value, Decimal):
        if value == value.to_integral_value():
            return int(value)
        return float(value)
    return value
