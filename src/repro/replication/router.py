"""Routing a replica group behind the single-site gateway interface.

:class:`ReplicatedGateway` presents the full :class:`~repro.gateway.
Gateway` surface for one logical site while fanning the work over a
:class:`~repro.replication.raft.ReplicaGroup`:

- every operation routes to the current leader through a
  :class:`ReplicaRouter`, which models the classic NOT_LEADER redirect
  (a stale leader pointer costs one accounted ``raft.redirect`` round
  trip and a hint), detects leader failure (dropped messages, or the
  leader replica's circuit breaker open), triggers a deterministic
  election, and retries against the new leader with exponential backoff
  charged to the simulated clock — bounded, so a majority-dead group
  still surfaces as an unreachable site
- committed local writes are captured as export-namespace SQL and fed to
  the group's replicated log: 2PC ``prepare`` replicates the branch's
  write-set to a majority *before* the YES vote, and a ``commit`` /
  ``abort`` decision must be majority-durable before the leader applies
  it — so "the group acknowledged it" always implies "a leader crash
  cannot lose it"
- autocommit snapshot SELECTs may be served by followers
  (``follower_reads=True``) under a bounded-staleness guard: a follower
  answers only while ``leader commit index − follower applied index``
  is within :data:`STALENESS_BOUND` entries (surfaced as the
  ``raft.staleness`` gauge); others fall back to the leader

With ``replication_factor=1`` :class:`~repro.myriad.MyriadSystem` never
constructs any of this — single-replica sites keep today's plain
:class:`~repro.gateway.Gateway` with bit-identical accounting.
"""

from __future__ import annotations

import threading

from repro.errors import CircuitOpenError, MessageDropped, NetworkError
from repro.gateway import FEDERATION_SITE, Gateway
from repro.net import MessageTrace
from repro.replication.raft import ReplicaGroup
from repro.sql import ast, to_sql

#: Failover retries per routed operation (beyond the first attempt).
FAILOVER_RETRY_LIMIT = 2
FAILOVER_RETRY_BACKOFF_S = 0.02
#: Follower reads accept a replica at most this many log entries behind
#: the leader's commit index: 0 serves only fully caught-up followers.
STALENESS_BOUND = 0


class ReplicaRouter:
    """Leader discovery, redirects, failover retries for one group."""

    def __init__(self, group: ReplicaGroup):
        self.group = group
        #: The leader replica index this router last confirmed.  Kept
        #: deliberately lazy: after an election triggered elsewhere the
        #: pointer is stale, and the next operation pays the NOT_LEADER
        #: redirect round trip before following the hint.
        self.presumed_leader = group.leader_index
        self.retry_limit = FAILOVER_RETRY_LIMIT
        self.retry_backoff_s = FAILOVER_RETRY_BACKOFF_S
        self._read_rr = 0
        self._mutex = threading.Lock()

    def _health(self):
        return getattr(self.group.network, "health", None)

    def _redirect(self, stale, leader, trace: MessageTrace | None) -> None:
        """Pay for discovering the leader moved: one redirect round trip."""
        group = self.group
        with self._mutex:
            group.redirects += 1
            self.presumed_leader = group.leader_index
        group.obs.metrics.inc("raft.redirects", group=group.site)
        try:
            group.network.send(
                FEDERATION_SITE, stale.site, 32, "raft.redirect", trace
            )
            group.network.send(
                stale.site, FEDERATION_SITE, 16, "raft.redirect", trace
            )
        except MessageDropped:
            return  # the stale replica is dead too; the hint costs nothing

    def leader_op(self, op, trace: MessageTrace | None = None):
        """Run ``op(gateway)`` against the elected leader, with failover.

        Detection → election → bounded retry: a dropped message at the
        leader (or its breaker open) triggers :meth:`ReplicaGroup.elect`,
        and the operation is retried against the winner with exponential
        backoff charged to the simulated clock and the caller's trace.
        Exhausted retries re-raise — the logical site is down.
        """
        group = self.group
        group.tick()
        health = self._health()
        last_error: NetworkError | None = None
        for attempt in range(self.retry_limit + 1):
            if attempt:
                group.obs.metrics.inc("raft.failover_retries", group=group.site)
                backoff = self.retry_backoff_s * 2 ** (attempt - 1)
                if trace is not None:
                    trace.add_compute(backoff)
                group.network.advance(backoff)
            leader = group.leader
            with self._mutex:
                stale = (
                    group.replicas[self.presumed_leader]
                    if self.presumed_leader != group.leader_index
                    else None
                )
            if stale is not None:
                self._redirect(stale, leader, trace)
            if (
                len(group.replicas) > 1
                and health is not None
                and health.is_blocked(leader.site)
            ):
                # Breaker-open leader: elect before sending anything.
                group.obs.emit(
                    "raft.failover",
                    sim_s=group.network.now_s,
                    group=group.site,
                    suspect=leader.site,
                    reason="breaker-open",
                )
                try:
                    leader = group.elect(trace=trace, suspect=leader.site)
                except MessageDropped as error:
                    last_error = error
                    continue
                with self._mutex:
                    self.presumed_leader = group.leader_index
            try:
                result = op(leader.gateway)
            except MessageDropped as error:
                last_error = error
                if len(group.replicas) == 1:
                    raise
                group.obs.emit(
                    "raft.failover",
                    sim_s=group.network.now_s,
                    group=group.site,
                    suspect=leader.site,
                    reason=error.reason or "message dropped",
                )
                try:
                    group.elect(trace=trace, suspect=leader.site)
                except MessageDropped as election_error:
                    last_error = election_error
                    continue
                with self._mutex:
                    self.presumed_leader = group.leader_index
                continue
            with self._mutex:
                self.presumed_leader = group.leader_index
            return result
        raise last_error

    def pick_follower(self, staleness_bound: int):
        """A follower eligible to serve a read, or ``None``.

        Round-robin over followers whose applied index is within
        ``staleness_bound`` entries of the leader's commit index and
        whose breaker is not open.
        """
        group = self.group
        leader = group.leader
        health = self._health()
        candidates = [
            replica
            for replica in group.replicas
            if replica is not leader
            and leader.commit_index - replica.applied_index
            <= staleness_bound
            and (health is None or not health.is_blocked(replica.site))
        ]
        if not candidates:
            return None
        with self._mutex:
            choice = candidates[self._read_rr % len(candidates)]
            self._read_rr += 1
        return choice


class ReplicatedGateway:
    """The gateway interface of one logical site, backed by a group.

    Drop-in for :class:`~repro.gateway.Gateway` in
    ``MyriadSystem.gateways``: the executor, coordinator, deadlock
    monitor, and introspection talk to it unchanged.
    """

    def __init__(self, group: ReplicaGroup, follower_reads: bool = False):
        self.group = group
        self.site = group.site
        self.network = group.network
        self.router = ReplicaRouter(group)
        #: Serve autocommit snapshot SELECTs from followers within
        #: :data:`STALENESS_BOUND` entries of the leader's commit index.
        self.follower_reads = follower_reads
        # The logical site participates in accounting-level lookups
        # (set_link, health snapshots) even though traffic flows to the
        # replica sites.
        group.network.add_site(self.site)

    # -- replica plumbing ----------------------------------------------

    def _leader_gateway(self) -> Gateway:
        return self.group.leader.gateway

    @property
    def obs(self):
        return self._leader_gateway().obs

    @property
    def dbms(self):
        """The current leader's component DBMS."""
        return self._leader_gateway().dbms

    @property
    def exports(self):
        return self._leader_gateway().exports

    @property
    def replica_dbmses(self) -> list:
        """Every replica's DBMS — workload builders load all of them."""
        return [replica.gateway.dbms for replica in self.group.replicas]

    @property
    def replica_gateways(self) -> list[Gateway]:
        return [replica.gateway for replica in self.group.replicas]

    # -- aggregated experiment counters --------------------------------

    @property
    def queries_executed(self) -> int:
        return sum(r.gateway.queries_executed for r in self.group.replicas)

    @property
    def timeouts(self) -> int:
        return sum(r.gateway.timeouts for r in self.group.replicas)

    @property
    def snapshot_reads(self) -> int:
        return sum(r.gateway.snapshot_reads for r in self.group.replicas)

    @property
    def stats_version(self) -> int:
        return self._leader_gateway().stats_version

    # -- fault hooks delegate to the current leader --------------------

    @property
    def fail_next_prepares(self) -> int:
        return self._leader_gateway().fail_next_prepares

    @fail_next_prepares.setter
    def fail_next_prepares(self, value: int) -> None:
        self._leader_gateway().fail_next_prepares = value

    @property
    def drop_next_commits(self) -> int:
        return self._leader_gateway().drop_next_commits

    @drop_next_commits.setter
    def drop_next_commits(self, value: int) -> None:
        self._leader_gateway().drop_next_commits = value

    # ------------------------------------------------------------------
    # Export management: definitions fan out to every replica
    # ------------------------------------------------------------------

    def export_table(self, *args, **kwargs):
        relation = None
        for replica in self.group.replicas:
            result = replica.gateway.export_table(*args, **kwargs)
            if replica is self.group.leader:
                relation = result
        return relation

    def export_names(self) -> list[str]:
        return self._leader_gateway().export_names()

    def export_relation_schema(self, name: str):
        return self._leader_gateway().export_relation_schema(name)

    def export_stats(self, name: str, refresh: bool = False):
        return self._leader_gateway().export_stats(name, refresh)

    def export_index_columns(self, name: str):
        return self._leader_gateway().export_index_columns(name)

    def data_version(self, export_name: str) -> tuple[int, int, int]:
        return self._leader_gateway().data_version(export_name)

    # ------------------------------------------------------------------
    # Query shipping
    # ------------------------------------------------------------------

    def execute_query(
        self,
        query,
        trace: MessageTrace | None = None,
        from_site: str = FEDERATION_SITE,
        timeout: float | None = None,
        global_id: object | None = None,
        request_id: str | None = None,
    ):
        group = self.group
        if (
            global_id is None
            and self.follower_reads
            and len(group.replicas) > 1
        ):
            follower = self.router.pick_follower(STALENESS_BOUND)
            if follower is not None:
                try:
                    result = follower.gateway.execute_query(
                        query,
                        trace=trace,
                        from_site=from_site,
                        timeout=timeout,
                        global_id=None,
                        request_id=request_id,
                    )
                except (MessageDropped, CircuitOpenError):
                    pass  # fall through to the leader path
                else:
                    group.follower_reads += 1
                    group.obs.metrics.inc(
                        "raft.follower_read",
                        group=group.site,
                        replica=follower.site,
                    )
                    return result
        return self.router.leader_op(
            lambda gw: gw.execute_query(
                query,
                trace=trace,
                from_site=from_site,
                timeout=timeout,
                global_id=global_id,
                request_id=request_id,
            ),
            trace=trace,
        )

    def execute_update(
        self,
        statement,
        global_id: object,
        trace: MessageTrace | None = None,
        from_site: str = FEDERATION_SITE,
        timeout: float | None = None,
    ) -> int:
        sql_text = self._statement_text(statement)
        if global_id is None:
            # Autocommit DML: majority-replicate the write *before* the
            # leader applies it, so an acknowledged write survives any
            # single failover (no committed-then-lost entry).
            entry = self._replicate("write", None, (sql_text,), trace)
            if entry is None:
                raise MessageDropped(
                    f"replica group {self.site!r}: write not "
                    "majority-durable",
                    destination=self.site,
                    purpose="raft.append",
                    reason="no quorum",
                )

            def apply_at_leader(gw: Gateway) -> int:
                # A failover between replication and apply can hand us a
                # leader that already applied this entry from the log (it
                # was a follower when the entry committed): never run the
                # statement twice.
                if self.group.replica_of(gw).applied_index >= entry.index:
                    return 0
                return gw.execute_update(
                    statement,
                    None,
                    trace=trace,
                    from_site=from_site,
                    timeout=timeout,
                )

            result = self.router.leader_op(apply_at_leader, trace=trace)
            self.group.mark_leader_applied()
            return result
        result = self.router.leader_op(
            lambda gw: gw.execute_update(
                statement,
                global_id,
                trace=trace,
                from_site=from_site,
                timeout=timeout,
            ),
            trace=trace,
        )
        self.group.record_statement(global_id, sql_text)
        return result

    def _replicate(
        self,
        kind: str,
        global_id: object,
        statements: tuple[str, ...],
        trace: MessageTrace | None,
    ):
        """Majority-replicate one entry, failing over if the leader is the
        unreachable party.

        A failed append means the leader could not reach a majority —
        which, when the leader itself is crashed or isolated, the healthy
        majority can fix by electing among themselves.  One election +
        re-drive; returns the committed entry or ``None`` (genuine loss of
        quorum).
        """
        group = self.group
        entry = group.append_and_replicate(
            kind, global_id, statements, trace=trace
        )
        if entry is not None or len(group.replicas) == 1:
            return entry
        group.obs.emit(
            "raft.failover",
            sim_s=group.network.now_s,
            group=group.site,
            suspect=group.leader.site,
            reason=f"append {kind!r} below quorum",
        )
        try:
            group.elect(trace=trace, suspect=group.leader.site)
        except MessageDropped:
            return None
        with self.router._mutex:
            self.router.presumed_leader = group.leader_index
        return group.append_and_replicate(
            kind, global_id, statements, trace=trace
        )

    @staticmethod
    def _statement_text(statement) -> str:
        if isinstance(statement, str):
            return statement
        if isinstance(statement, ast.Statement):
            return to_sql(statement)
        return str(statement)

    # ------------------------------------------------------------------
    # 2PC participant proxy
    # ------------------------------------------------------------------

    def begin(
        self,
        global_id: object,
        trace: MessageTrace | None = None,
        from_site: str = FEDERATION_SITE,
    ) -> None:
        self.router.leader_op(
            lambda gw: gw.begin(global_id, trace, from_site), trace=trace
        )
        self.group.pending_stmts.setdefault(global_id, [])

    def prepare(
        self,
        global_id: object,
        trace: MessageTrace | None = None,
        from_site: str = FEDERATION_SITE,
    ) -> bool:
        group = self.group
        statements = group.pending_statements(global_id)
        # Replicate the branch's write-set to a majority *before* voting
        # YES: a YES vote promises the commit can be honoured even if the
        # leader dies, which requires a quorum to know the write-set.
        if self._replicate("prepare", global_id, statements, trace) is None:
            # Cannot promise durability: vote NO.  Abort the local branch
            # first (as a NO-voting participant does), so the coordinator
            # sees a clean refusal.
            leader = self._leader_gateway()
            if leader.has_branch(global_id):
                leader.resolve_replicated(global_id, "abort")
            group.clear_pending(global_id)
            group.obs.metrics.inc("raft.vote_no_quorum", group=group.site)
            return False
        def vote_at_leader(gw: Gateway) -> bool:
            # A failover (before this call or during a leader_op retry)
            # can hand us a leader that never ran the branch: re-create it
            # from the majority-durable write-set and hold it PREPARED —
            # the group's vote stays consistent across the failover.  The
            # new leader may also hold it PREPARED already (adopted when
            # it won the election): the YES vote is then already secured.
            if not gw.has_branch(global_id):
                gw.adopt_branch(global_id, statements)
                replica = group.replica_of(gw)
                replica.pending_prepares[global_id] = statements
                group.mark_leader_applied()
                group.obs.metrics.inc(
                    "raft.branch_adopted", group=group.site
                )
                return True
            if gw.branch_states().get(global_id) == "prepared":
                return True
            return gw.prepare(global_id, trace, from_site)

        return self.router.leader_op(vote_at_leader, trace=trace)

    def commit(
        self,
        global_id: object,
        trace: MessageTrace | None = None,
        from_site: str = FEDERATION_SITE,
    ) -> None:
        group = self.group
        statements = group.pending_statements(global_id)
        self.group._chaos("before_decision:commit", global_id=global_id)
        # The decision is durable at this participant only once a
        # majority holds it; until then the coordinator must keep the
        # branch in doubt (it parks and retries on MessageDropped).
        if self._replicate("commit", global_id, statements, trace) is None:
            raise MessageDropped(
                f"replica group {self.site!r}: commit decision not "
                "majority-durable",
                destination=self.site,
                purpose="raft.append",
                reason="no quorum",
            )
        self.group._chaos("after_decision:commit", global_id=global_id)
        self.router.leader_op(
            lambda gw: gw.commit(global_id, trace, from_site), trace=trace
        )
        group.leader.pending_prepares.pop(global_id, None)
        group.mark_leader_applied()
        group.clear_pending(global_id)

    def abort(
        self,
        global_id: object,
        trace: MessageTrace | None = None,
        from_site: str = FEDERATION_SITE,
    ) -> None:
        group = self.group
        # Presumed abort: only branches whose prepare entry reached the
        # log need a durable abort entry (followers must drop the pending
        # write-set); a never-prepared branch just rolls back locally.
        if group._find_entry("prepare", global_id) is not None:
            if self._replicate("abort", global_id, (), trace) is None:
                raise MessageDropped(
                    f"replica group {self.site!r}: abort decision not "
                    "majority-durable",
                    destination=self.site,
                    purpose="raft.append",
                    reason="no quorum",
                )
        self.router.leader_op(
            lambda gw: gw.abort(global_id, trace, from_site), trace=trace
        )
        group.leader.pending_prepares.pop(global_id, None)
        group.mark_leader_applied()
        group.clear_pending(global_id)

    # ------------------------------------------------------------------
    # Branch bookkeeping / introspection (leader-side state)
    # ------------------------------------------------------------------

    def has_branch(self, global_id: object) -> bool:
        return self._leader_gateway().has_branch(global_id)

    def cancel_branch_waits(self, global_id: object) -> None:
        self._leader_gateway().cancel_branch_waits(global_id)

    def prepared_branches(self) -> list[object]:
        return self._leader_gateway().prepared_branches()

    def branch_states(self) -> dict[object, str]:
        return self._leader_gateway().branch_states()

    def wait_for_edges(self):
        return self._leader_gateway().wait_for_edges()

    def lock_table(self) -> list[dict]:
        return self._leader_gateway().lock_table()
