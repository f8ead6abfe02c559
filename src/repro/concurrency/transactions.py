"""Local transactions: strict 2PL + undo logging + 2PC participant states.

Each component DBMS owns one :class:`LocalTransactionManager`.  Transactions
acquire table locks through a :class:`TxnMutator` (the engine's mutation
hook), record undo information, and can either commit locally or enter the
PREPARED state on behalf of a global (federated) transaction.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field

from repro.concurrency.locks import LockManager, LockMode
from repro.concurrency.mvcc import Snapshot, prune_chain
from repro.concurrency.wal import LogRecordType, WriteAheadLog
from repro.engine.executor import Mutator
from repro.errors import TransactionError
from repro.storage.schema import Row
from repro.storage.table import Table


class TxnState(enum.Enum):
    ACTIVE = "active"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class _UndoEntry:
    kind: str  # 'insert' | 'delete' | 'update'
    table: Table
    rid: int
    old_row: Row | None = None


@dataclass
class LocalTransaction:
    txn_id: object
    state: TxnState = TxnState.ACTIVE
    undo: list[_UndoEntry] = field(default_factory=list)
    #: Set when this local transaction is a branch of a global transaction.
    global_id: object | None = None
    #: Table → RIDs this transaction wrote; drives MVCC version publish on
    #: commit and pending-marker cleanup on abort.
    mvcc_writes: dict[Table, set[int]] = field(default_factory=dict)

    def require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}, not active"
            )


class LocalTransactionManager:
    """Begin/commit/abort plus the 2PC participant protocol for one DBMS."""

    def __init__(
        self,
        lock_manager: LockManager | None = None,
        wal: WriteAheadLog | None = None,
        lock_timeout: float | None = None,
    ):
        self.locks = lock_manager or LockManager()
        self.wal = wal or WriteAheadLog()
        self.lock_timeout = lock_timeout
        self._transactions: dict[object, LocalTransaction] = {}
        #: Prepared branches that survived a simulated process restart in
        #: their durable form (forced PREPARE record + undo + lock state).
        self._durable_prepared: dict[object, LocalTransaction] = {}
        self._mutex = threading.Lock()
        self._counter = 0
        # MVCC: commit-timestamp counter, active read views, and the tables
        # holding version chains (for vacuum).  All guarded by _mutex.
        self._commit_ts = 0
        self._active_snapshots: dict[int, int] = {}
        self._snapshot_counter = 0
        self._snapshot_releases = 0
        self._versioned_tables: set[Table] = set()
        #: Last commit timestamp that wrote each table (by lowercase name).
        #: The gateways fold this into their fragment-cache data versions so
        #: purely *local* commits — invisible to the federation — still
        #: invalidate cached fragments.
        self._table_commit_ts: dict[str, int] = {}
        #: Run a full vacuum every N snapshot releases (0 disables).
        self.vacuum_interval = 64
        # Experiment counters, guarded by _mutex (sessions are concurrent).
        self.commits = 0
        self.aborts = 0
        #: Snapshot scans that read the live heap in one pass, and those
        #: that patched changed RIDs into it (see heap_is_visible).
        self.heap_scans = 0
        self.patched_scans = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def begin(
        self, txn_id: object | None = None, global_id: object | None = None
    ) -> LocalTransaction:
        with self._mutex:
            if txn_id is None:
                self._counter += 1
                txn_id = f"local-{self._counter}"
            if txn_id in self._transactions:
                raise TransactionError(f"transaction {txn_id} already exists")
            txn = LocalTransaction(txn_id, global_id=global_id)
            self._transactions[txn_id] = txn
        self.wal.append(LogRecordType.BEGIN, txn_id)
        return txn

    def get(self, txn_id: object) -> LocalTransaction:
        try:
            return self._transactions[txn_id]
        except KeyError:
            raise TransactionError(f"unknown transaction {txn_id}") from None

    def commit(self, txn: LocalTransaction) -> None:
        """One-phase (local-only) commit."""
        if txn.state is TxnState.PREPARED:
            self._finish_commit(txn)
            return
        txn.require_active()
        self._finish_commit(txn)

    def _finish_commit(self, txn: LocalTransaction) -> None:
        self.wal.append(LogRecordType.COMMIT, txn.txn_id, flush=True)
        txn.state = TxnState.COMMITTED
        txn.undo.clear()
        # Publish the new committed versions *before* releasing locks and
        # under the same mutex that stamps snapshots: a snapshot taken at
        # ts >= this commit is guaranteed to see every one of its writes.
        with self._mutex:
            if txn.mvcc_writes:
                self._commit_ts += 1
                self._publish_versions_locked(txn, self._commit_ts)
            self._transactions.pop(txn.txn_id, None)
            self.commits += 1
        self.locks.release_all(txn.txn_id)

    def abort(self, txn: LocalTransaction) -> None:
        if txn.state in (TxnState.COMMITTED, TxnState.ABORTED):
            return
        self._rollback_changes(txn)
        self._discard_pending(txn)
        self.wal.append(LogRecordType.ABORT, txn.txn_id, flush=True)
        txn.state = TxnState.ABORTED
        self.locks.release_all(txn.txn_id)
        with self._mutex:
            self._transactions.pop(txn.txn_id, None)
            self.aborts += 1

    def _rollback_changes(self, txn: LocalTransaction) -> None:
        for entry in reversed(txn.undo):
            if entry.kind == "insert":
                if entry.rid in entry.table.rows:
                    entry.table.delete(entry.rid)
            elif entry.kind == "delete":
                entry.table.restore(entry.rid, entry.old_row)
            elif entry.kind == "update":
                entry.table.update(entry.rid, entry.old_row)
        txn.undo.clear()

    def _discard_pending(self, txn: LocalTransaction) -> None:
        """Drop an aborted writer's pending markers (after undo restored
        the heap, so readers fall through to the committed values)."""
        for table, rids in txn.mvcc_writes.items():
            for rid in rids:
                table.clear_pending(rid)
        txn.mvcc_writes.clear()

    # ------------------------------------------------------------------
    # MVCC snapshots and version GC
    # ------------------------------------------------------------------

    @property
    def commit_ts(self) -> int:
        """Current commit-timestamp counter (stamped on writing commits)."""
        return self._commit_ts

    def begin_snapshot(self) -> Snapshot:
        """Open a read view pinned at the current commit timestamp."""
        with self._mutex:
            self._snapshot_counter += 1
            snapshot = Snapshot(self, self._snapshot_counter, self._commit_ts)
            self._active_snapshots[snapshot.snapshot_id] = snapshot.ts
        return snapshot

    def release_snapshot(self, snapshot: Snapshot) -> None:
        with self._mutex:
            if self._active_snapshots.pop(snapshot.snapshot_id, None) is None:
                return
            self._snapshot_releases += 1
            if (
                self.vacuum_interval
                and self._snapshot_releases % self.vacuum_interval == 0
            ):
                self._vacuum_locked()

    def active_snapshots(self) -> int:
        with self._mutex:
            return len(self._active_snapshots)

    def oldest_snapshot_ts(self) -> int:
        """GC horizon: the oldest active read view (or "now" if none)."""
        with self._mutex:
            return min(self._active_snapshots.values(), default=self._commit_ts)

    def vacuum(self) -> None:
        """Prune every version chain against the oldest active snapshot."""
        with self._mutex:
            self._vacuum_locked()

    def table_commit_ts(self, table_name: str) -> int:
        """Commit timestamp of the last committed write to ``table_name``."""
        with self._mutex:
            return self._table_commit_ts.get(table_name.lower(), 0)

    def heap_is_visible(self, table: Table, ts: int) -> bool:
        """Whether the live heap of ``table`` is the read view at ``ts``.

        True when no uncommitted writer holds a pending marker on the table
        and no commit stamped after ``ts`` wrote it.  The one test both
        snapshot scans (sequential and index) make; counted per outcome.
        Read under the mutex that publishes versions, so a commit is seen
        either whole (its stamp) or not at all (its markers).
        """
        with self._mutex:
            visible = (
                not table.uncommitted
                and self._table_commit_ts.get(table.name.lower(), 0) <= ts
            )
            if visible:
                self.heap_scans += 1
            else:
                self.patched_scans += 1
        return visible

    def _publish_versions_locked(
        self, txn: LocalTransaction, commit_ts: int
    ) -> None:
        horizon = min(self._active_snapshots.values(), default=commit_ts)
        for table, rids in txn.mvcc_writes.items():
            self._table_commit_ts[table.name.lower()] = commit_ts
            for rid in rids:
                marker = table.uncommitted.get(rid)
                chain = table.versions.get(rid)
                value = table.rows.get(rid)
                if chain is None:
                    # Baseline entry (ts 0) carries the pre-chain committed
                    # value so older snapshots keep resolving.
                    old = marker[1] if marker is not None else None
                    chain = ((0, old), (commit_ts, value))
                else:
                    chain = chain + ((commit_ts, value),)
                chain = prune_chain(chain, horizon)
                if len(chain) == 1 and chain[0][0] <= horizon:
                    # Nothing older than the horizon needs history and the
                    # single entry equals the live heap: drop the chain.
                    table.versions.pop(rid, None)
                else:
                    table.versions[rid] = chain
                # Only after the chain is in place may the marker go: a
                # racing reader must never fall through to the new heap
                # value with a pre-commit snapshot.
                table.uncommitted.pop(rid, None)
            if table.versions:
                self._versioned_tables.add(table)
        txn.mvcc_writes.clear()

    def _vacuum_locked(self) -> None:
        horizon = min(self._active_snapshots.values(), default=self._commit_ts)
        for table in list(self._versioned_tables):
            for rid in list(table.versions):
                chain = table.versions.get(rid)
                if chain is None:  # pragma: no cover - racing publish
                    continue
                pruned = prune_chain(chain, horizon)
                if (
                    len(pruned) == 1
                    and pruned[0][0] <= horizon
                    and rid not in table.uncommitted
                ):
                    table.versions.pop(rid, None)
                elif pruned is not chain:
                    table.versions[rid] = pruned
            if not table.versions:
                self._versioned_tables.discard(table)

    # ------------------------------------------------------------------
    # Two-phase-commit participant interface (used by the gateways)
    # ------------------------------------------------------------------

    def prepare(self, txn: LocalTransaction) -> bool:
        """Phase 1: vote.  Returns True (YES) after forcing the log."""
        txn.require_active()
        self.wal.append(
            LogRecordType.PREPARE, txn.txn_id, (txn.global_id,), flush=True
        )
        txn.state = TxnState.PREPARED
        return True

    def commit_prepared(self, txn: LocalTransaction) -> None:
        if txn.state is not TxnState.PREPARED:
            raise TransactionError(
                f"transaction {txn.txn_id} not prepared (state {txn.state.value})"
            )
        self._finish_commit(txn)

    def abort_prepared(self, txn: LocalTransaction) -> None:
        if txn.state is not TxnState.PREPARED:
            raise TransactionError(
                f"transaction {txn.txn_id} not prepared (state {txn.state.value})"
            )
        txn.state = TxnState.ACTIVE  # allow undo path
        self.abort(txn)

    def active_transactions(self) -> list[LocalTransaction]:
        with self._mutex:
            return list(self._transactions.values())

    # ------------------------------------------------------------------
    # Simulated process restart (participant crash/recovery)
    # ------------------------------------------------------------------

    def simulate_process_restart(self) -> list[object]:
        """Crash and restart this DBMS process: volatile txn state is lost.

        Transactions that had not prepared die with the process — their
        writes are rolled back and their locks freed, as local crash
        recovery would.  PREPARED branches are different: phase 1 forced
        their PREPARE record (with undo information) to the log, so their
        durable form survives the restart — they are parked in
        :meth:`forgotten_prepared` (no longer ``active_transactions()``)
        with their locks still held, until 2PC recovery
        (:func:`repro.txn.recovery.recover_participant`) reinstates and
        resolves them against the coordinator's durable decision.

        Returns the txn ids of the surviving prepared branches.
        """
        with self._mutex:
            transactions = list(self._transactions.values())
            self._transactions.clear()
        survivors: list[object] = []
        for txn in transactions:
            if txn.state is TxnState.PREPARED:
                self._durable_prepared[txn.txn_id] = txn
                survivors.append(txn.txn_id)
            else:
                self._rollback_changes(txn)
                self._discard_pending(txn)
                self.wal.append(LogRecordType.ABORT, txn.txn_id, flush=True)
                txn.state = TxnState.ABORTED
                self.locks.release_all(txn.txn_id)
                with self._mutex:
                    self.aborts += 1
        return survivors

    def forgotten_prepared(self) -> list[object]:
        """Txn ids of prepared branches lost from memory by a restart."""
        return list(self._durable_prepared)

    def reinstate_prepared(self, txn_id: object) -> LocalTransaction:
        """Rebuild one forgotten prepared branch from its durable form."""
        try:
            txn = self._durable_prepared.pop(txn_id)
        except KeyError:
            raise TransactionError(
                f"no forgotten prepared transaction {txn_id}"
            ) from None
        with self._mutex:
            self._transactions[txn.txn_id] = txn
        return txn


class TxnMutator(Mutator):
    """Engine mutation hook that adds strict-2PL locking and undo logging."""

    def __init__(
        self,
        manager: LocalTransactionManager,
        txn: LocalTransaction,
        lock_timeout: float | None = None,
    ):
        self.manager = manager
        self.txn = txn
        self.lock_timeout = (
            lock_timeout if lock_timeout is not None else manager.lock_timeout
        )

    # -- lock hooks -------------------------------------------------------

    def read_lock(self, table: Table) -> None:
        self.txn.require_active()
        self.manager.locks.acquire(
            self.txn.txn_id, table.name.lower(), LockMode.SHARED, self.lock_timeout
        )

    def write_lock(self, table: Table) -> None:
        self.txn.require_active()
        self.manager.locks.acquire(
            self.txn.txn_id,
            table.name.lower(),
            LockMode.EXCLUSIVE,
            self.lock_timeout,
        )

    # -- mutations with undo logging ---------------------------------------

    def _track_write(self, table: Table, rid: int) -> None:
        self.txn.mvcc_writes.setdefault(table, set()).add(rid)

    def insert(self, table: Table, row: Row) -> int:
        self.write_lock(table)
        # The pending marker is registered inside insert(), before the row
        # reaches the heap, so snapshot readers never see it uncommitted.
        rid = table.insert(row, pending_owner=self.txn.txn_id)
        self._track_write(table, rid)
        self.txn.undo.append(_UndoEntry("insert", table, rid))
        self.manager.wal.append(
            LogRecordType.INSERT, self.txn.txn_id, (table.name, rid)
        )
        return rid

    def delete(self, table: Table, rid: int) -> Row:
        self.write_lock(table)
        table.mark_pending(rid, self.txn.txn_id)
        self._track_write(table, rid)
        old_row = table.delete(rid)
        self.txn.undo.append(_UndoEntry("delete", table, rid, old_row))
        self.manager.wal.append(
            LogRecordType.DELETE, self.txn.txn_id, (table.name, rid)
        )
        return old_row

    def update(self, table: Table, rid: int, new_row: Row):
        self.write_lock(table)
        # Mark (and track) before mutating: if the update itself fails the
        # marker still resolves at commit/abort instead of leaking.
        table.mark_pending(rid, self.txn.txn_id)
        self._track_write(table, rid)
        old_row, new = table.update(rid, new_row)
        self.txn.undo.append(_UndoEntry("update", table, rid, old_row))
        self.manager.wal.append(
            LogRecordType.UPDATE, self.txn.txn_id, (table.name, rid)
        )
        return old_row, new
