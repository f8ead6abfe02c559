"""MyriadSystem — the top-level facade tying every subsystem together.

A :class:`MyriadSystem` owns the simulated network, the component DBMSs and
their gateways, any number of federations, and the global transaction
manager.  It is the API a downstream user starts from::

    from repro import MyriadSystem

    system = MyriadSystem()
    ora = system.add_oracle("ora")
    pg = system.add_postgres("pg")
    ... create tables, export them ...
    fed = system.create_federation("corp")
    fed.add_relation(union_merge(...))
    result = system.query("corp", "SELECT ... FROM all_emp ...")
"""

from __future__ import annotations

from repro.config import Config
from repro.errors import FederationError
from repro.gateway import Gateway
from repro.health import HealthTracker
from repro.localdb import LocalDBMS, OracleDBMS, PostgresDBMS
from repro.net import FaultInjector, Network
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.query import GlobalQueryProcessor, GlobalResult
from repro.schema import Federation
from repro.txn import GlobalTransaction, GlobalTransactionManager


class MyriadSystem:
    """One MYRIAD installation: components, gateways, federations, GTM.

    Keyword options are the fields of :class:`~repro.config.Config`; an
    unknown option raises :class:`TypeError`, a bad value
    :class:`ValueError`.
    """

    def __init__(self, network: Network | None = None, **options):
        #: Every option, checked and frozen; see :class:`~repro.config.Config`.
        self.config = Config(**options)
        self.network = network or Network()
        # One observability handle serves the whole installation; every
        # subsystem reaches it through the shared network.  A caller-built
        # network that already carries a handle keeps it (and keeps its
        # own threshold/sampling settings).
        if self.network.obs is None:
            self.network.obs = Observability(
                enabled=self.config.observability,
                slow_query_threshold_s=self.config.slow_query_threshold_s,
                trace_sample_rate=self.config.trace_sample_rate,
            )
        self.obs: Observability = self.network.obs
        # Windowed metrics and SLO burn rates run on the simulated clock.
        self.obs.bind_clock(lambda: self.network.now_s)
        if self.network.faults is not None and self.network.faults.obs is None:
            self.network.faults.obs = self.obs
        # Per-site circuit breakers, fed by every message outcome on the
        # network and cooled down on its simulated clock.  A caller-built
        # network that already carries a tracker keeps it.
        if self.network.health is None:
            self.network.health = HealthTracker(
                clock=lambda: self.network.now_s, obs=self.obs
            )
        self.health: HealthTracker = self.network.health
        self.components: dict[str, LocalDBMS] = {}
        self.gateways: dict[str, Gateway] = {}
        self.federations: dict[str, Federation] = {}
        #: Per-site replica groups (only for sites built with
        #: ``replication_factor > 1``): site → ReplicaGroup.
        self.replica_groups: dict[str, object] = {}
        self._server = None
        self.transactions = GlobalTransactionManager(
            self.gateways, self.config, obs=self.obs
        )
        self._processors: dict[str, GlobalQueryProcessor] = {}
        self._deadlock_monitor = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle / shutdown
    # ------------------------------------------------------------------

    def start_deadlock_monitor(self, interval_s: float = 0.05):
        """Start (or return) the system-owned global deadlock monitor.

        The monitor's daemon thread is stopped by :meth:`close`, so
        callers using the system as a context manager never leak it.
        """
        if self._deadlock_monitor is None:
            from repro.txn.deadlock import GlobalDeadlockMonitor

            self._deadlock_monitor = GlobalDeadlockMonitor(
                self.gateways, interval_s=interval_s
            )
            self._deadlock_monitor.start()
        return self._deadlock_monitor

    @property
    def deadlock_monitor(self):
        """The system-owned deadlock monitor, or ``None`` if never started."""
        return self._deadlock_monitor

    def close(self) -> None:
        """Shut the installation down: stop threads, flush every WAL.

        Stops the system-owned :class:`GlobalDeadlockMonitor` thread (if
        :meth:`start_deadlock_monitor` ran) and flushes the coordinator
        WAL plus every participant WAL, so nothing is left unflushed or
        running when a test / chaos run finishes.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            self._server = None
        if self._deadlock_monitor is not None:
            self._deadlock_monitor.stop()
            self._deadlock_monitor = None
        self.transactions.wal.flush()
        for dbms in self.components.values():
            dbms.transactions.wal.flush()
        for gateway in self.gateways.values():
            for dbms in getattr(gateway, "replica_dbmses", ()):
                dbms.transactions.wal.flush()

    def __enter__(self) -> "MyriadSystem":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """System-wide metrics registry (counters / gauges / histograms)."""
        return self.obs.metrics

    @property
    def tracer(self) -> Tracer:
        """System-wide span tracer (query, 2PC, and deadlock-sweep spans)."""
        return self.obs.tracer

    @property
    def events(self):
        """System-wide structured event log (2PC, deadlocks, faults, WAL)."""
        return self.obs.events

    @property
    def slow_query_threshold_s(self) -> float | None:
        """Simulated-latency threshold for ``query.slow`` events."""
        return self.obs.slow_query_threshold_s

    @slow_query_threshold_s.setter
    def slow_query_threshold_s(self, value: float | None) -> None:
        self.obs.slow_query_threshold_s = value

    def add_slo(
        self,
        name: str,
        objective: float = 0.999,
        kind: str = "availability",
        threshold_s: float | None = None,
        rules=None,
    ):
        """Register an SLO over this installation's request stream.

        ``kind="availability"`` counts failed/degraded queries against the
        objective; ``kind="latency"`` additionally counts queries slower
        than ``threshold_s`` (simulated).  Burn-rate alert rules default to
        :data:`repro.obs.slo.DEFAULT_RULES`; pass
        :class:`~repro.obs.BurnRateRule` tuples to override.  See README
        "Operating MYRIAD".
        """
        return self.obs.add_slo(
            name,
            objective=objective,
            kind=kind,
            threshold_s=threshold_s,
            rules=rules,
        )

    def observability_report(self, last_spans: int | None = 8) -> str:
        """Text dump of metrics, the event tail, and recent span trees.

        On a system built with ``observability=False`` this returns an
        explicit "observability disabled" marker, never empty sections.
        """
        return self.obs.render(last_spans=last_spans)

    # -- live introspection --------------------------------------------

    def lock_table(self) -> dict[str, list[dict]]:
        """Per-site held/waiting table locks by mode (global-txn terms)."""
        from repro.obs.introspect import lock_table

        return lock_table(self)

    def wait_for_graph(self) -> dict:
        """Global wait-for edges + cycles + victims + a Graphviz DOT render."""
        from repro.obs.introspect import wait_for_graph

        return wait_for_graph(self)

    def transaction_states(self) -> list[dict]:
        """Every known global txn: coordinator vs. per-branch gateway state."""
        from repro.obs.introspect import transaction_states

        return transaction_states(self)

    def federation_stats(self) -> dict:
        """Sites, federations, network totals, and transaction counters."""
        from repro.obs.introspect import federation_stats

        return federation_stats(self)

    def dump_debug_bundle(self, directory):
        """Write a post-mortem directory: traces, metrics, events, config.

        See :func:`repro.obs.export.dump_debug_bundle`; reload with
        :func:`repro.obs.export.load_debug_bundle` or inspect with
        ``python -m repro.obs.report --bundle DIR``.  Raises
        :class:`~repro.errors.MyriadError` when observability is disabled.
        """
        from repro.obs.export import dump_debug_bundle

        return dump_debug_bundle(self, directory)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def inject_faults(self, seed: int = 0) -> FaultInjector:
        """Install (or return) the network's deterministic fault injector.

        The injector is consulted on every simulated message; see
        :class:`repro.net.FaultInjector` for drop rules, site crashes, and
        partitions.  Idempotent: a second call returns the installed one.
        """
        if self.network.faults is None:
            self.network.faults = FaultInjector(seed)
        if self.network.faults.obs is None:
            self.network.faults.obs = self.obs
        return self.network.faults

    # ------------------------------------------------------------------
    # Component management
    # ------------------------------------------------------------------

    def add_component(
        self, dbms: LocalDBMS, site: str | None = None
    ) -> Gateway:
        """Register an existing component DBMS and build its gateway."""
        site = site or dbms.name
        if site in self.gateways:
            raise FederationError(f"site {site!r} already registered")
        gateway = Gateway(
            dbms,
            self.network,
            site,
            wire_compression=self.config.wire_compression,
        )
        self.components[site] = dbms
        self.gateways[site] = gateway
        return gateway

    def add_replicated(self, dbmses: list[LocalDBMS], site: str):
        """Register one logical site backed by a replica group.

        ``dbmses[0]`` seeds the initial leader; each replica gets its own
        gateway under the network site ``{site}#{i}``.  The returned
        :class:`~repro.replication.ReplicatedGateway` is a drop-in for a
        plain gateway in :attr:`gateways`.
        """
        from repro.replication import ReplicaGroup, ReplicatedGateway

        if site in self.gateways:
            raise FederationError(f"site {site!r} already registered")
        inner = [
            Gateway(
                dbms,
                self.network,
                f"{site}#{index}",
                wire_compression=self.config.wire_compression,
            )
            for index, dbms in enumerate(dbmses)
        ]
        group = ReplicaGroup(site, inner, self.network, obs=self.obs)
        gateway = ReplicatedGateway(
            group, follower_reads=self.config.follower_reads
        )
        self.components[site] = dbmses[0]
        self.gateways[site] = gateway
        self.replica_groups[site] = group
        return gateway

    def _add_dialect(self, factory, name: str, **kwargs):
        kwargs.setdefault("mvcc_reads", self.config.mvcc_reads)
        if self.config.replication_factor == 1:
            return self.add_component(factory(name, **kwargs))
        dbmses = [
            factory(f"{name}#{index}", **kwargs)
            for index in range(self.config.replication_factor)
        ]
        return self.add_replicated(dbmses, name)

    def add_oracle(self, name: str, **kwargs) -> Gateway:
        """Create and register an Oracle-dialect component DBMS."""
        return self._add_dialect(OracleDBMS, name, **kwargs)

    def add_postgres(self, name: str, **kwargs) -> Gateway:
        """Create and register a Postgres-dialect component DBMS."""
        return self._add_dialect(PostgresDBMS, name, **kwargs)

    def component(self, site: str) -> LocalDBMS:
        try:
            return self.components[site]
        except KeyError:
            raise FederationError(f"unknown site {site!r}") from None

    def gateway(self, site: str) -> Gateway:
        try:
            return self.gateways[site]
        except KeyError:
            raise FederationError(f"unknown site {site!r}") from None

    def site_names(self) -> list[str]:
        return sorted(self.gateways)

    # ------------------------------------------------------------------
    # Federations
    # ------------------------------------------------------------------

    def create_federation(self, name: str) -> Federation:
        if name.lower() in self.federations:
            raise FederationError(f"federation {name!r} already exists")
        federation = Federation(name, self.gateways)
        self.federations[name.lower()] = federation
        return federation

    def federation(self, name: str) -> Federation:
        try:
            return self.federations[name.lower()]
        except KeyError:
            raise FederationError(f"unknown federation {name!r}") from None

    def drop_federation(self, name: str) -> None:
        if name.lower() not in self.federations:
            raise FederationError(f"unknown federation {name!r}")
        del self.federations[name.lower()]
        self._processors.pop(name.lower(), None)

    def federation_names(self) -> list[str]:
        return sorted(f.name for f in self.federations.values())

    # ------------------------------------------------------------------
    # Query processing
    # ------------------------------------------------------------------

    def processor(self, federation_name: str) -> GlobalQueryProcessor:
        key = federation_name.lower()
        if key not in self._processors:
            self._processors[key] = GlobalQueryProcessor(
                self.federation(federation_name), self.network, self.config
            )
        return self._processors[key]

    def query(
        self,
        federation_name: str,
        sql: str,
        optimizer: str | None = None,
        timeout: float | None = None,
        allow_partial: bool = False,
        request_id: str | None = None,
    ) -> GlobalResult:
        """Run a global SELECT against one federation (autocommit read).

        With ``allow_partial=True``, unreachable sites degrade the result
        (``result.degraded`` / ``result.missing_sites``) instead of
        raising — the paper's partial-availability posture for reads.
        ``request_id`` lets a serving layer thread its correlation id
        through; direct callers get one minted (``result.request_id``).
        """
        return self.processor(federation_name).execute(
            sql,
            optimizer=optimizer,
            timeout=timeout,
            allow_partial=allow_partial,
            request_id=request_id,
        )

    def explain(
        self, federation_name: str, sql: str, optimizer: str | None = None
    ) -> str:
        return self.processor(federation_name).explain(sql, optimizer)

    # ------------------------------------------------------------------
    # Serving layer
    # ------------------------------------------------------------------

    def create_server(self, max_sessions: int = 256):
        """The system-owned :class:`~repro.server.FederationServer`.

        Created on first call (``max_sessions`` applies then); subsequent
        calls return the same server.  :meth:`close` shuts it down.
        """
        if self._server is None:
            from repro.server import FederationServer

            self._server = FederationServer(self, max_sessions=max_sessions)
        return self._server

    @property
    def server(self):
        """The serving layer, or ``None`` if ``create_server`` never ran."""
        return self._server

    # ------------------------------------------------------------------
    # Global transactions
    # ------------------------------------------------------------------

    def begin_transaction(
        self, global_id: str | None = None
    ) -> GlobalTransaction:
        return self.transactions.begin(global_id)

    def transactional_query(
        self,
        txn: GlobalTransaction,
        federation_name: str,
        sql: str,
        optimizer: str | None = None,
        allow_partial: bool = False,
        request_id: str | None = None,
    ) -> GlobalResult:
        """Federation SELECT under a global transaction (locks held)."""
        return self.transactions.run_global_query(
            txn,
            self.processor(federation_name),
            sql,
            optimizer,
            allow_partial=allow_partial,
            request_id=request_id,
        )

    def transactional_update(
        self, txn: GlobalTransaction, federation_name: str, sql: str
    ) -> int:
        """DML against an updatable integrated relation, under ``txn``."""
        return self.transactions.execute_federated(
            txn, self.federation(federation_name), sql
        )

    def update(self, federation_name: str, sql: str) -> int:
        """Autocommit DML against an updatable integrated relation."""
        txn = self.begin_transaction()
        try:
            count = self.transactional_update(txn, federation_name, sql)
        except Exception:
            txn.abort()
            raise
        txn.commit()
        return count
