"""Component DBMS: a complete local database behind a session API.

A :class:`LocalDBMS` bundles catalog + engine + 2PL lock manager + WAL +
transaction manager, exactly the stack MYRIAD assumed inside each autonomous
component system.  Gateways talk to it only through :class:`Session` — the
same way the real prototype talked to Oracle/Postgres through embedded SQL —
so local autonomy is a hard boundary in the code, too.

Dialect subclasses (:mod:`repro.localdb.oracle`,
:mod:`repro.localdb.postgres`) override the statement-adaptation hooks to
model the semantic quirks that make heterogeneous integration interesting.
"""

from __future__ import annotations

import datetime
import itertools
import threading
from collections.abc import Callable

from repro.concurrency import (
    LocalTransaction,
    LocalTransactionManager,
    TxnMutator,
)
from repro.engine import LocalEngine, Mutator, ResultSet
from repro.errors import TransactionAborted, TransactionError
from repro.sql import GLOBAL_DIALECT, Dialect, ast, parse_statement
from repro.storage import Catalog

_dbms_counter = itertools.count(1)


class LocalDBMS:
    """One autonomous component database."""

    #: Dialect this DBMS speaks; gateways print SQL for it accordingly.
    dialect: Dialect = GLOBAL_DIALECT

    def __init__(
        self,
        name: str | None = None,
        lock_timeout: float | None = 5.0,
        clock: Callable[[], datetime.datetime] | None = None,
        functions: dict[str, Callable] | None = None,
        mvcc_reads: bool = True,
    ):
        self.name = name or f"dbms{next(_dbms_counter)}"
        #: When True (default), autocommit SELECTs and ``BEGIN READ ONLY``
        #: transactions run against an MVCC snapshot — no table locks, no
        #: WAL records, never blocked by writers.  False restores the pure
        #: 2PL read behaviour (the E16 baseline).
        self.mvcc_reads = mvcc_reads
        self.catalog = Catalog(self.name)
        self.transactions = LocalTransactionManager(lock_timeout=lock_timeout)
        # The engine picks batch or row execution per SELECT from the
        # plan's input size (repro.engine.planner.prefers_batch), as an
        # autonomous component chooses its own strategy; both give the
        # same rows and rows_scanned.
        self.engine = LocalEngine(self.catalog, functions=functions, now=clock)
        self._session_counter = itertools.count(1)
        self._mutex = threading.Lock()

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def connect(self) -> "Session":
        with self._mutex:
            session_id = f"{self.name}-s{next(self._session_counter)}"
        return Session(self, session_id)

    def execute(self, sql: str | ast.Statement, params=None) -> ResultSet | int:
        """One-shot autocommit execution on a throwaway session."""
        return self.connect().execute(sql, params)

    def execute_script(self, script: str) -> None:
        """Run a ';'-separated script in autocommit mode.

        If a statement fails — or the script opens a ``BEGIN`` it never
        commits — any transaction still open on the throwaway session is
        rolled back before the session is discarded, so a broken script
        can never leak table locks.
        """
        from repro.sql import parse_script

        session = self.connect()
        try:
            for statement in parse_script(script):
                session.execute(statement)
        finally:
            if session.in_transaction:
                session.rollback()

    # ------------------------------------------------------------------
    # Dialect adaptation hooks
    # ------------------------------------------------------------------

    def adapt_statement(self, statement: ast.Statement) -> ast.Statement:
        """Rewrite an incoming statement per this DBMS's semantics."""
        return statement

    def adapt_stored_value(self, value: object) -> object:
        """Transform a value before it is stored (e.g. Oracle '' → NULL)."""
        return value

    # ------------------------------------------------------------------
    # Introspection used by gateways and tools
    # ------------------------------------------------------------------

    def table_names(self) -> list[str]:
        return self.catalog.table_names()

    def table_schema(self, name: str):
        return self.catalog.get_table(name).schema

    def stats(self, table_name: str, refresh: bool = False):
        return self.catalog.stats(table_name, refresh)


class Session:
    """A connection to one LocalDBMS with optional explicit transactions.

    Thread ownership: a session is a single-client object — the intended
    model is one thread per session (gateways open one per global-txn
    branch, the serving layer one per client).  As a safety net every
    public method serialises on an internal reentrant lock, so accidental
    sharing degrades to serialisation instead of corrupting ``txn`` state.

    Read paths: when the DBMS has ``mvcc_reads`` enabled, autocommit
    SELECTs and ``begin(read_only=True)`` transactions execute against an
    MVCC snapshot — no table locks, no WAL traffic, immune to writer
    blocking — while explicit read-write transactions (and global-txn
    branches) keep strict-2PL locking reads for serialisability.
    """

    def __init__(self, dbms: LocalDBMS, session_id: str):
        self.dbms = dbms
        self.session_id = session_id
        self.txn: LocalTransaction | None = None
        #: Overrides the DBMS-level lock timeout for this session, if set.
        self.lock_timeout: float | None = None
        #: Per-session monotonic transaction counter: successive
        #: transactions get distinct ids (``<session>-t1``, ``-t2`` ...)
        #: so their BEGIN/COMMIT WAL records stay distinguishable.
        self._txn_seq = itertools.count(1)
        #: Read view of an open read-only transaction, else None.
        self._snapshot = None
        self._serial = threading.RLock()

    # ------------------------------------------------------------------
    # Transaction control
    # ------------------------------------------------------------------

    def begin(
        self, global_id: object | None = None, read_only: bool = False
    ) -> LocalTransaction | None:
        """Open a transaction.

        ``read_only=True`` opens a snapshot-read transaction instead: every
        statement until commit/rollback reads the same MVCC snapshot,
        acquires no locks, and DML is rejected.  Returns the
        :class:`LocalTransaction` (or ``None`` for read-only)."""
        with self._serial:
            if self.txn is not None or self._snapshot is not None:
                raise TransactionError(
                    f"session {self.session_id} already has an open transaction"
                )
            if read_only:
                if global_id is not None:
                    raise TransactionError(
                        "a global-transaction branch cannot be read-only"
                    )
                self._snapshot = self.dbms.transactions.begin_snapshot()
                return None
            self.txn = self.dbms.transactions.begin(
                f"{self.session_id}-t{next(self._txn_seq)}",
                global_id=global_id,
            )
            return self.txn

    def commit(self) -> None:
        with self._serial:
            if self._snapshot is not None:
                self._snapshot.release()
                self._snapshot = None
                return
            if self.txn is None:
                return
            self.dbms.transactions.commit(self.txn)
            self.txn = None

    def rollback(self) -> None:
        with self._serial:
            if self._snapshot is not None:
                self._snapshot.release()
                self._snapshot = None
                return
            if self.txn is None:
                return
            self.dbms.transactions.abort(self.txn)
            self.txn = None

    @property
    def in_transaction(self) -> bool:
        return self.txn is not None or self._snapshot is not None

    @property
    def read_only(self) -> bool:
        """True inside an open ``BEGIN READ ONLY`` transaction."""
        return self._snapshot is not None

    # -- 2PC participant pass-through (used by the gateway) ---------------

    def prepare(self) -> bool:
        with self._serial:
            if self.txn is None:
                raise TransactionError(
                    "nothing to prepare: no open transaction"
                )
            return self.dbms.transactions.prepare(self.txn)

    def commit_prepared(self) -> None:
        with self._serial:
            if self.txn is None:
                raise TransactionError("no prepared transaction")
            self.dbms.transactions.commit_prepared(self.txn)
            self.txn = None

    def rollback_prepared(self) -> None:
        with self._serial:
            if self.txn is None:
                raise TransactionError("no prepared transaction")
            self.dbms.transactions.abort_prepared(self.txn)
            self.txn = None

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------

    def execute(
        self, sql: str | ast.Statement, params: list[object] | None = None
    ) -> ResultSet | int:
        statement = parse_statement(sql) if isinstance(sql, str) else sql
        with self._serial:
            return self._execute_statement(statement, params)

    def _execute_statement(
        self, statement: ast.Statement, params: list[object] | None
    ) -> ResultSet | int:
        if isinstance(statement, ast.BeginTransaction):
            self.begin(read_only=statement.read_only)
            return 0
        if isinstance(statement, ast.CommitTransaction):
            self.commit()
            return 0
        if isinstance(statement, ast.RollbackTransaction):
            self.rollback()
            return 0

        statement = self.dbms.adapt_statement(statement)
        is_query = isinstance(statement, (ast.Select, ast.SetOperation))

        if self._snapshot is not None:
            # Read-only transaction: repeatable snapshot reads, no locks.
            if not is_query:
                raise TransactionError(
                    f"session {self.session_id}: read-only transaction "
                    f"cannot execute {type(statement).__name__}"
                )
            return self.dbms.engine.execute(
                statement, params, snapshot=self._snapshot
            )

        if is_query and self.txn is None and self.dbms.mvcc_reads:
            # Autocommit read: one-statement snapshot, no locks, no WAL.
            snapshot = self.dbms.transactions.begin_snapshot()
            try:
                return self.dbms.engine.execute(
                    statement, params, snapshot=snapshot
                )
            finally:
                snapshot.release()

        autocommit = self.txn is None
        if autocommit:
            self.begin()
        mutator = TxnMutator(
            self.dbms.transactions,
            self.txn,
            lock_timeout=self.lock_timeout,
        )
        try:
            result = self.dbms.engine.execute(statement, params, mutator=mutator)
        except TransactionAborted:
            # Deadlock victim or lock timeout: the whole local transaction
            # rolls back (the paper's model: the gateway reports upward and
            # the global transaction aborts).
            self.rollback()
            raise
        except Exception:
            if autocommit:
                self.rollback()
            raise
        if autocommit:
            self.commit()
        return result

    def query(self, sql: str, params: list[object] | None = None) -> ResultSet:
        result = self.execute(sql, params)
        if not isinstance(result, ResultSet):
            raise TransactionError("statement did not produce rows")
        return result


def make_mutator_for(session: Session) -> Mutator:
    """Expose a session's transactional mutator (for advanced callers)."""
    if session.txn is None:
        raise TransactionError("session has no open transaction")
    return TxnMutator(session.dbms.transactions, session.txn)
