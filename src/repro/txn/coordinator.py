"""Global transaction management: 2PC over gateways, timeout deadlock policy.

Implements the paper's transaction subsystem:

- the *general transaction model*: a global transaction touches any number
  of component DBMSs through their gateways; each touched site becomes a
  branch (participant)
- **two-phase commit** over the participants, with presumed-abort logging at
  the coordinator, to achieve serializable execution on top of the locals'
  strict 2PL
- **timeout-based global deadlock resolution**: every local query carries a
  timeout; when a gateway reports :class:`~repro.errors.GatewayTimeout`, the
  whole global transaction is assumed deadlocked and aborted
"""

from __future__ import annotations

import enum
import itertools
import threading

from repro.concurrency.wal import LogRecordType, WriteAheadLog
from repro.config import Config
from repro.engine import ResultSet
from repro.errors import (
    GatewayTimeout,
    MessageDropped,
    MyriadError,
    NetworkError,
    TransactionAborted,
    TransactionError,
    TwoPhaseCommitError,
)
from repro.gateway import Gateway
from repro.net import MessageTrace
from repro.obs import DISABLED, Observability
from repro.sql import ast


class GlobalTxnState(enum.Enum):
    ACTIVE = "active"
    PREPARING = "preparing"
    COMMITTED = "committed"
    ABORTED = "aborted"


class GlobalTransaction:
    """One global transaction and its per-site branches."""

    def __init__(self, global_id: str, manager: "GlobalTransactionManager"):
        self.global_id = global_id
        self.manager = manager
        self.state = GlobalTxnState.ACTIVE
        self.participants: list[str] = []  # sites with open branches
        self.trace = MessageTrace()

    # -- convenience pass-throughs ------------------------------------------

    def execute(self, site: str, sql: str, timeout: float | None = None):
        return self.manager.execute(self, site, sql, timeout)

    def commit(self) -> None:
        self.manager.commit(self)

    def abort(self) -> None:
        self.manager.abort(self)

    def require_active(self) -> None:
        if self.state is not GlobalTxnState.ACTIVE:
            raise TransactionError(
                f"global transaction {self.global_id} is {self.state.value}"
            )

    def __enter__(self) -> "GlobalTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None and self.state is GlobalTxnState.ACTIVE:
            self.commit()
        elif self.state is GlobalTxnState.ACTIVE:
            self.abort()
        return False


class GlobalTransactionManager:
    """The federation's transaction coordinator."""

    def __init__(
        self,
        gateways: dict[str, Gateway],
        config: Config,
        wal: WriteAheadLog | None = None,
        decision_retry_limit: int = 3,
        decision_retry_backoff_s: float = 0.05,
        obs: Observability | None = None,
    ):
        self.gateways = gateways
        self.obs = obs or DISABLED
        #: The paper's timeout period attached to every local query.
        self.query_timeout = config.query_timeout
        self.wal = wal or WriteAheadLog()
        #: Phase-2 decision delivery: retries per participant beyond the
        #: first attempt, with exponential virtual backoff between attempts.
        self.decision_retry_limit = decision_retry_limit
        self.decision_retry_backoff_s = decision_retry_backoff_s
        #: Branch-open retries in :meth:`run_global_query` (transient
        #: message loss only), with the same exponential backoff shape.
        self.branch_retry_limit = 2
        self.branch_retry_backoff_s = 0.02
        #: Chaos hook: called with a crash-point label at every enumerated
        #: 2PC/WAL protocol step (``before_coord_commit``,
        #: ``before_deliver:<site>``, ...).  The chaos explorer raises
        #: :class:`repro.chaos.CoordinatorCrash` from it to simulate a
        #: coordinator failure at exactly that point — which is why the
        #: exception must NOT derive from ``MyriadError`` (the delivery
        #: loop swallows those) and why every hook call sits outside the
        #: protocol's try/except blocks.
        self.crash_hook = None
        #: In-memory mirror of the WAL's durable pending-delivery list:
        #: global_id → {site: decision} for parked, undelivered decisions.
        self.pending_deliveries: dict[object, dict[str, str]] = {}
        self._counter = itertools.count(1)
        self._mutex = threading.Lock()
        self.active: dict[str, GlobalTransaction] = {}
        # Experiment counters
        self.commits = 0
        self.aborts = 0
        self.timeout_aborts = 0
        self.vote_no_aborts = 0
        self.decision_retries = 0
        self.decisions_parked = 0
        self.decisions_recovered = 0

    # ------------------------------------------------------------------
    # Chaos / environment plumbing
    # ------------------------------------------------------------------

    def _crashpoint(self, point: str, **context: object) -> None:
        """Announce one enumerated protocol step to the chaos hook."""
        if self.crash_hook is not None:
            self.crash_hook(point, **context)

    def _network(self):
        for gateway in self.gateways.values():
            return gateway.network
        return None

    def _health(self):
        """The shared network's health tracker, if one is attached."""
        network = self._network()
        return getattr(network, "health", None)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def begin(self, global_id: str | None = None) -> GlobalTransaction:
        with self._mutex:
            if global_id is None:
                global_id = f"G{next(self._counter)}"
            if global_id in self.active:
                raise TransactionError(
                    f"global transaction {global_id} already active"
                )
            txn = GlobalTransaction(global_id, self)
            self.active[global_id] = txn
        self.obs.metrics.inc("txn.begun")
        self.obs.emit("2pc", txn=global_id, role="coordinator", state="BEGIN")
        return txn

    def _branch(self, txn: GlobalTransaction, site: str) -> Gateway:
        try:
            gateway = self.gateways[site]
        except KeyError:
            raise TransactionError(f"unknown site {site!r}") from None
        if site not in txn.participants:
            with self.obs.span("txn.begin", txn=txn.global_id, site=site):
                gateway.begin(txn.global_id, txn.trace)
            txn.participants.append(site)
        return gateway

    # ------------------------------------------------------------------
    # Statement execution within a global transaction
    # ------------------------------------------------------------------

    def execute(
        self,
        txn: GlobalTransaction,
        site: str,
        sql: str | ast.Statement,
        timeout: float | None = None,
    ) -> ResultSet | int:
        """Run one statement on one site's branch.

        On :class:`GatewayTimeout` the entire global transaction is aborted
        (the paper's global-deadlock assumption) and
        :class:`TransactionAborted` is raised.
        """
        txn.require_active()
        effective = timeout if timeout is not None else self.query_timeout
        parsed = sql
        if isinstance(parsed, str):
            from repro.sql import parse_statement

            parsed = parse_statement(parsed)
        try:
            gateway = self._branch(txn, site)
            if isinstance(parsed, (ast.Select, ast.SetOperation)):
                return gateway.execute_query(
                    parsed,
                    trace=txn.trace,
                    timeout=effective,
                    global_id=txn.global_id,
                )
            return gateway.execute_update(
                parsed, txn.global_id, trace=txn.trace, timeout=effective
            )
        except GatewayTimeout:
            self.timeout_aborts += 1
            self.obs.metrics.inc("txn.timeout_aborts")
            self.abort(txn)
            raise TransactionAborted(
                f"global transaction {txn.global_id} aborted: local query "
                f"at {site!r} exceeded its timeout (assumed global deadlock)",
                reason="timeout",
            ) from None
        except TransactionAborted:
            # The local DBMS aborted the branch (e.g. local deadlock victim).
            self.abort(txn)
            raise
        except NetworkError as error:
            # The site became unreachable mid-statement (injected fault or
            # partition): abort the global transaction; unreachable branches
            # are parked for recovery by the abort path.
            self.abort(txn)
            raise TransactionAborted(
                f"global transaction {txn.global_id} aborted: site {site!r} "
                f"unreachable ({error})",
                reason="network",
            ) from error

    def _branch_with_retry(self, txn: GlobalTransaction, site: str) -> Gateway:
        """Open a branch, retrying transient message loss with backoff.

        Only :class:`~repro.errors.MessageDropped` is retried — a refused
        circuit (:class:`~repro.errors.CircuitOpenError`) or an unknown
        site fails immediately.  Backoff is charged to the transaction's
        trace *and* the simulated clock, so breaker cooldowns see it.
        """
        network = self._network()
        last_error: MessageDropped | None = None
        for attempt in range(self.branch_retry_limit + 1):
            if attempt:
                self.obs.metrics.inc("txn.branch_retries")
                backoff = self.branch_retry_backoff_s * 2 ** (attempt - 1)
                txn.trace.add_compute(backoff)
                if network is not None:
                    network.advance(backoff)
            try:
                return self._branch(txn, site)
            except MessageDropped as error:
                last_error = error
        raise last_error

    def run_global_query(
        self,
        txn: GlobalTransaction,
        processor,
        sql: str,
        optimizer: str | None = None,
        timeout: float | None = None,
        allow_partial: bool = False,
        request_id: str | None = None,
    ):
        """Run a federation-level SELECT inside this global transaction.

        Branches are opened at every site the plan touches, so the reads
        acquire locks under the global transaction and stay serializable.
        Transient message loss while opening a branch is retried with
        exponential simulated backoff.  With ``allow_partial=True``,
        sites whose circuit breaker is open or that stay unreachable are
        *skipped* instead: the query degrades, and the returned
        ``GlobalResult`` carries ``degraded=True`` plus the
        ``missing_sites`` (see :meth:`GlobalExecutor.execute`).
        """
        txn.require_active()
        obs = processor.obs
        # This path bypasses processor.execute, so it mints (or inherits)
        # the request id itself and feeds the request window directly.
        if request_id is None:
            request_id = obs.mint_request_id()
        plan = processor.plan(sql, optimizer)
        effective = timeout if timeout is not None else self.query_timeout
        health = self._health()
        skip_sites: set[str] = set()
        sim_before = txn.trace.elapsed_s
        try:
            for fetch in plan.fetches:
                site = fetch.site
                if site in skip_sites or site in txn.participants:
                    continue
                # is_blocked (pure), not allow(): consuming the half-open
                # probe slot here would starve the gateway-side circuit
                # check that actually sends the probe.
                if (
                    allow_partial
                    and health is not None
                    and health.is_blocked(site)
                ):
                    skip_sites.add(site)
                    continue
                try:
                    self._branch_with_retry(txn, site)
                except NetworkError:
                    if not allow_partial:
                        raise
                    skip_sites.add(site)
            result = processor.executor.execute(
                plan,
                trace=txn.trace,
                timeout=effective,
                global_id=txn.global_id,
                allow_partial=allow_partial,
                skip_sites=skip_sites,
                request_id=request_id,
            )
            obs.record_request(
                not result.degraded,
                txn.trace.elapsed_s - sim_before,
                federation=processor.federation.name,
            )
            return result
        except GatewayTimeout:
            self.timeout_aborts += 1
            self.obs.metrics.inc("txn.timeout_aborts")
            obs.record_request(
                False,
                txn.trace.elapsed_s - sim_before,
                federation=processor.federation.name,
            )
            self.abort(txn)
            raise TransactionAborted(
                f"global transaction {txn.global_id} aborted: a fetch "
                "exceeded its timeout (assumed global deadlock)",
                reason="timeout",
            ) from None
        except TransactionAborted:
            # A local branch died under us (local deadlock victim): the
            # global transaction cannot proceed with a dead branch — abort
            # it, as execute() does, instead of leaving it ACTIVE.
            obs.record_request(
                False,
                txn.trace.elapsed_s - sim_before,
                federation=processor.federation.name,
            )
            self.abort(txn)
            raise
        except NetworkError as error:
            obs.record_request(
                False,
                txn.trace.elapsed_s - sim_before,
                federation=processor.federation.name,
            )
            self.abort(txn)
            raise TransactionAborted(
                f"global transaction {txn.global_id} aborted: a fetch site "
                f"became unreachable ({error})",
                reason="network",
            ) from error

    # ------------------------------------------------------------------
    # Two-phase commit
    # ------------------------------------------------------------------

    def commit(self, txn: GlobalTransaction) -> None:
        """Commit via 2PC (one-phase optimisation for ≤1 participant)."""
        txn.require_active()
        participants = list(txn.participants)
        sim_before = txn.trace.elapsed_s

        with self.obs.span(
            "txn.commit", txn=txn.global_id, participants=len(participants)
        ) as span:
            if len(participants) <= 1:
                # One-phase: the vote round is skipped, but the decision
                # must still hit the durable log *before* delivery — the
                # app is about to observe COMMITTED, and a coordinator
                # crash (or silently lost commit message) must not leave
                # the lone branch to presume abort afterwards.  Delivery
                # is retried/parked as in full 2PC so a lost commit
                # message cannot leave the branch holding its locks.
                if participants:
                    self._crashpoint(
                        "before_coord_commit", txn=txn.global_id, protocol="1pc"
                    )
                    self.wal.append(
                        LogRecordType.COORD_COMMIT, txn.global_id, flush=True
                    )
                    self._crashpoint(
                        "after_coord_commit", txn=txn.global_id, protocol="1pc"
                    )
                undelivered = self._deliver_decision(
                    txn.global_id, participants, "commit", txn.trace
                )
                if participants and not undelivered:
                    self._crashpoint(
                        "before_coord_end", txn=txn.global_id, protocol="1pc"
                    )
                    self.wal.append(LogRecordType.COORD_END, txn.global_id)
                self._finish(txn, GlobalTxnState.COMMITTED)
                span.tag(protocol="1pc").set_sim(
                    txn.trace.elapsed_s - sim_before
                )
                self.obs.emit(
                    "2pc",
                    sim_s=txn.trace.elapsed_s,
                    txn=txn.global_id,
                    role="coordinator",
                    state="COMMITTED",
                    protocol="1pc",
                )
                return

            txn.state = GlobalTxnState.PREPARING
            self._crashpoint("before_coord_begin_2pc", txn=txn.global_id)
            self.wal.append(
                LogRecordType.COORD_BEGIN_2PC,
                txn.global_id,
                tuple(participants),
                flush=True,
            )
            self._crashpoint("after_coord_begin_2pc", txn=txn.global_id)
            self.obs.emit(
                "2pc",
                sim_s=txn.trace.elapsed_s,
                txn=txn.global_id,
                role="coordinator",
                state="PREPARING",
                participants=participants,
            )

            votes_ok = True
            failed_site = None
            with self.obs.span("txn.prepare", txn=txn.global_id) as prepare:
                for site in participants:
                    self._crashpoint(f"before_prepare:{site}", txn=txn.global_id)
                    try:
                        vote = self.gateways[site].prepare(
                            txn.global_id, txn.trace
                        )
                    except (GatewayTimeout, TransactionError, NetworkError):
                        # A lost PREPARE or VOTE message counts as a NO vote
                        # (presumed abort makes this safe: no decision is
                        # logged).
                        vote = False
                    self._crashpoint(
                        f"after_vote:{site}", txn=txn.global_id, vote=vote
                    )
                    if not vote:
                        votes_ok = False
                        failed_site = site
                        break
                prepare.tag(votes_ok=votes_ok)

            if not votes_ok:
                with self.obs.span(
                    "txn.decide", txn=txn.global_id, decision="abort"
                ):
                    self._crashpoint("before_coord_abort", txn=txn.global_id)
                    self.wal.append(
                        LogRecordType.COORD_ABORT, txn.global_id, flush=True
                    )
                    self._crashpoint("after_coord_abort", txn=txn.global_id)
                self._abort_branches(txn)
                self._finish(txn, GlobalTxnState.ABORTED)
                self.vote_no_aborts += 1
                self.obs.metrics.inc("txn.vote_no_aborts")
                span.set_sim(txn.trace.elapsed_s - sim_before)
                self.obs.emit(
                    "2pc",
                    sim_s=txn.trace.elapsed_s,
                    txn=txn.global_id,
                    role="coordinator",
                    state="ABORTED",
                    reason="vote-no",
                    failed_site=failed_site,
                )
                raise TwoPhaseCommitError(
                    f"global transaction {txn.global_id} aborted: "
                    f"participant {failed_site!r} voted NO"
                )

            # Decision is now durable: presumed abort before this point,
            # guaranteed commit after.
            with self.obs.span(
                "txn.decide", txn=txn.global_id, decision="commit"
            ):
                self._crashpoint("before_coord_commit", txn=txn.global_id)
                self.wal.append(
                    LogRecordType.COORD_COMMIT, txn.global_id, flush=True
                )
                self._crashpoint("after_coord_commit", txn=txn.global_id)
            undelivered = self._deliver_decision(
                txn.global_id, participants, "commit", txn.trace
            )
            if not undelivered:
                self._crashpoint("before_coord_end", txn=txn.global_id)
                self.wal.append(LogRecordType.COORD_END, txn.global_id)
            self._finish(txn, GlobalTxnState.COMMITTED)
            span.set_sim(txn.trace.elapsed_s - sim_before)
            self.obs.emit(
                "2pc",
                sim_s=txn.trace.elapsed_s,
                txn=txn.global_id,
                role="coordinator",
                state="COMMITTED",
                undelivered=undelivered,
            )

    def abort(self, txn: GlobalTransaction) -> None:
        if txn.state in (GlobalTxnState.COMMITTED, GlobalTxnState.ABORTED):
            return
        with self.obs.span("txn.abort", txn=txn.global_id):
            self._crashpoint("before_coord_abort", txn=txn.global_id)
            self.wal.append(
                LogRecordType.COORD_ABORT, txn.global_id, flush=True
            )
            self._crashpoint("after_coord_abort", txn=txn.global_id)
            self._abort_branches(txn)
            self._finish(txn, GlobalTxnState.ABORTED)
        self.obs.emit(
            "2pc",
            sim_s=txn.trace.elapsed_s,
            txn=txn.global_id,
            role="coordinator",
            state="ABORTED",
        )

    def _abort_branches(self, txn: GlobalTransaction) -> None:
        self._deliver_decision(txn.global_id, txn.participants, "abort", txn.trace)

    # ------------------------------------------------------------------
    # Decision delivery (phase 2) with retry + durable parking
    # ------------------------------------------------------------------

    def _deliver_decision(
        self,
        global_id: object,
        sites: list[str],
        decision: str,
        trace: MessageTrace | None = None,
    ) -> list[str]:
        """Push one COMMIT/ABORT decision to every listed participant.

        Per participant: retry dropped messages up to
        ``decision_retry_limit`` times with exponential virtual backoff
        (charged to the trace); a participant that stays unreachable is
        *parked* on the durable pending-delivery list, which
        :meth:`recover_in_doubt` drains later.  A failure at one site never
        skips the remaining sites.  Returns the parked sites.
        """
        undelivered: list[str] = []
        health = self._health()
        network = self._network()
        for site in sites:
            gateway = self.gateways[site]
            delivered = False
            self._crashpoint(
                f"before_deliver:{site}", txn=global_id, decision=decision
            )
            with self.obs.span(
                "txn.deliver", txn=global_id, site=site, decision=decision
            ) as span:
                attempts = 0
                for attempt in range(self.decision_retry_limit + 1):
                    if attempt and health is not None and not health.allow(site):
                        # The site's breaker tripped: stop burning retries
                        # on a dead site — park the decision for recovery
                        # (which probes without consulting the breaker).
                        break
                    attempts = attempt + 1
                    if attempt:
                        self.decision_retries += 1
                        self.obs.metrics.inc("txn.decision_retries")
                        backoff = self.decision_retry_backoff_s * 2 ** (
                            attempt - 1
                        )
                        if trace is not None:
                            trace.add_compute(backoff)
                        if network is not None:
                            network.advance(backoff)
                    try:
                        if decision == "commit":
                            gateway.commit(global_id, trace)
                        else:
                            gateway.abort(global_id, trace)
                        delivered = True
                        break
                    except NetworkError:
                        continue  # transient loss: back off and retry
                    except TransactionError:
                        delivered = True  # branch already resolved
                        break
                    except MyriadError:
                        break  # non-transient local failure: park it
                span.tag(attempts=attempts, delivered=delivered)
            if delivered:
                self._crashpoint(
                    f"after_deliver:{site}", txn=global_id, decision=decision
                )
            else:
                self._crashpoint(
                    f"before_park:{site}", txn=global_id, decision=decision
                )
                undelivered.append(site)
                self._park_decision(global_id, site, decision)
        return undelivered

    def _park_decision(self, global_id: object, site: str, decision: str) -> None:
        self.wal.append(
            LogRecordType.COORD_PENDING,
            global_id,
            (site, decision),
            flush=True,
        )
        self.pending_deliveries.setdefault(global_id, {})[site] = decision
        self.decisions_parked += 1
        self.obs.metrics.inc("txn.decisions_parked")
        self.obs.emit("wal.park", txn=global_id, site=site, decision=decision)
        self.obs.emit(
            "2pc",
            txn=global_id,
            site=site,
            role="participant",
            state="IN-DOUBT",
            decision=decision,
        )

    def execute_federated(
        self,
        txn: GlobalTransaction,
        federation,
        sql: str | ast.Statement,
        timeout: float | None = None,
    ) -> int:
        """DML posed against an *integrated relation* of a federation.

        The relation must be updatable (a plain projection of one export
        relation — see :mod:`repro.schema.updates`); the statement is
        rewritten into the export namespace and routed to the owning site's
        branch of this global transaction.
        """
        from repro.schema.updates import resolve_updatable, rewrite_dml
        from repro.sql import parse_statement

        statement = parse_statement(sql) if isinstance(sql, str) else sql
        if isinstance(statement, (ast.Select, ast.SetOperation)):
            raise TransactionError(
                "execute_federated handles DML; use run_global_query for reads"
            )
        table = getattr(statement, "table", None)
        if table is None:
            raise TransactionError("unsupported federated statement")
        relation = federation.get_relation(table)
        source = resolve_updatable(relation)
        rewritten = rewrite_dml(statement, relation.name, source)
        return self.execute(txn, source.site, rewritten, timeout)

    # ------------------------------------------------------------------
    # Coordinator-driven recovery
    # ------------------------------------------------------------------

    def recover_in_doubt(self) -> list[tuple[object, str, str]]:
        """Resolve branches left PREPARED (or parked) by lost decisions.

        Three passes:

        1. drain the durable pending-delivery list — decisions phase 2
           could not push to a participant despite retries; still-unreachable
           participants simply stay parked for the next round
        2. the presumed-abort scan: any remaining PREPARED branch is
           committed iff the durable coordinator log holds a COMMIT decision
           for it, otherwise aborted
        3. the orphaned-branch scan: a branch still ACTIVE whose global
           transaction no longer exists at the coordinator (crash after a
           1PC decision, or a silently swallowed decision message) is
           resolved from the durable decision log, presuming abort

        Delivery here deliberately bypasses the circuit breaker: recovery
        attempts *are* the half-open probes that re-close it.

        Returns (global_id, site, action) triples for everything resolved.
        """
        decisions = self.wal.coordinator_decisions()
        actions: list[tuple[object, str, str]] = []
        pending = self.wal.pending_deliveries()
        for (global_id, site), decision in sorted(
            pending.items(), key=lambda item: (str(item[0][0]), item[0][1])
        ):
            gateway = self.gateways.get(site)
            if gateway is None:
                continue
            try:
                if decision == "commit":
                    gateway.commit(global_id)
                else:
                    gateway.abort(global_id)
            except NetworkError:
                continue  # still unreachable; stays parked
            self.wal.append(
                LogRecordType.COORD_DELIVERED, global_id, (site,), flush=True
            )
            parked = self.pending_deliveries.get(global_id)
            if parked is not None:
                parked.pop(site, None)
                if not parked:
                    del self.pending_deliveries[global_id]
                    if decisions.get(global_id) == "commit":
                        self.wal.append(LogRecordType.COORD_END, global_id)
            self.decisions_recovered += 1
            self.obs.metrics.inc("txn.decisions_recovered")
            self.obs.emit(
                "wal.drain", txn=global_id, site=site, decision=decision
            )
            self.obs.emit(
                "2pc",
                txn=global_id,
                site=site,
                role="participant",
                state="RECOVERED",
                action=decision,
            )
            actions.append((global_id, site, decision))
        for site, gateway in self.gateways.items():
            for global_id in gateway.prepared_branches():
                decision = decisions.get(global_id, "abort")
                try:
                    if decision == "commit":
                        gateway.commit(global_id)
                    else:
                        gateway.abort(global_id)
                except NetworkError:
                    continue  # unreachable; a later round resolves it
                self.obs.emit(
                    "2pc",
                    txn=global_id,
                    site=site,
                    role="participant",
                    state="RECOVERED",
                    action=decision,
                    source="presumed-abort-scan",
                )
                actions.append((global_id, site, decision))
        with self._mutex:
            live = set(self.active)
        for site, gateway in self.gateways.items():
            for global_id, state in list(gateway.branch_states().items()):
                if state != "active" or global_id in live:
                    continue
                decision = decisions.get(global_id, "abort")
                try:
                    if decision == "commit":
                        gateway.commit(global_id)
                    else:
                        gateway.abort(global_id)
                except NetworkError:
                    continue  # unreachable; a later round resolves it
                self.obs.emit(
                    "2pc",
                    txn=global_id,
                    site=site,
                    role="participant",
                    state="RECOVERED",
                    action=decision,
                    source="orphan-scan",
                )
                actions.append((global_id, site, decision))
        return actions

    def _finish(self, txn: GlobalTransaction, state: GlobalTxnState) -> None:
        txn.state = state
        with self._mutex:
            self.active.pop(txn.global_id, None)
        if state is GlobalTxnState.COMMITTED:
            self.commits += 1
        else:
            self.aborts += 1
        self.obs.metrics.inc("txn.outcomes", outcome=state.value)
