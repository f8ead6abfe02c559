"""MVCC snapshot reads in the component DBMSs (PR 6 tentpole).

Read-only statements run against a commit-timestamp snapshot and take no
table locks; writers keep strict 2PL + undo.  These tests pin down the
visibility rules, the repeatable-read guarantee of ``BEGIN READ ONLY``,
version-chain garbage collection, index scans under a snapshot, and the
three satellite bugfixes (txn-id collisions, counter races, script leaks).
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency.wal import LogRecordType
from repro.engine import LocalPlanner
from repro.engine.columnar import run_vectorized
from repro.engine.operators import ExecContext
from repro.errors import (
    IntegrityError,
    LockTimeoutError,
    ParseError,
    TransactionError,
)
from repro.localdb import PostgresDBMS
from repro.sql import ast, parse_statement
from repro.sql.printer import to_sql


@pytest.fixture
def dbms():
    db = PostgresDBMS("s", lock_timeout=0.05)
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
    for k in range(10):
        db.execute(f"INSERT INTO t VALUES ({k}, {k * 10})")
    return db


class TestSnapshotVisibility:
    def test_autocommit_read_ignores_uncommitted_writer(self, dbms):
        writer = dbms.connect()
        writer.begin()
        writer.execute("UPDATE t SET v = 999 WHERE k = 1")
        # Reader neither blocks nor sees the dirty value.
        assert dbms.execute("SELECT v FROM t WHERE k = 1").scalar() == 10
        writer.commit()
        assert dbms.execute("SELECT v FROM t WHERE k = 1").scalar() == 999

    def test_autocommit_read_never_blocks(self, dbms):
        writer = dbms.connect()
        writer.begin()
        writer.execute("UPDATE t SET v = 1")  # X lock on the whole table
        reader = dbms.connect()
        reader.lock_timeout = 0.01  # would fire instantly if a lock were taken
        assert len(reader.execute("SELECT * FROM t").rows) == 10
        writer.rollback()

    def test_uncommitted_insert_invisible(self, dbms):
        writer = dbms.connect()
        writer.begin()
        writer.execute("INSERT INTO t VALUES (100, 1)")
        assert dbms.execute("SELECT COUNT(*) FROM t").scalar() == 10
        writer.commit()
        assert dbms.execute("SELECT COUNT(*) FROM t").scalar() == 11

    def test_uncommitted_delete_invisible(self, dbms):
        writer = dbms.connect()
        writer.begin()
        writer.execute("DELETE FROM t WHERE k = 3")
        assert dbms.execute("SELECT COUNT(*) FROM t").scalar() == 10
        assert dbms.execute("SELECT v FROM t WHERE k = 3").scalar() == 30
        writer.commit()
        assert dbms.execute("SELECT COUNT(*) FROM t").scalar() == 9

    def test_abort_restores_visibility(self, dbms):
        writer = dbms.connect()
        writer.begin()
        writer.execute("UPDATE t SET v = -1 WHERE k = 2")
        writer.execute("DELETE FROM t WHERE k = 4")
        writer.rollback()
        assert dbms.execute("SELECT v FROM t WHERE k = 2").scalar() == 20
        assert dbms.execute("SELECT COUNT(*) FROM t").scalar() == 10
        # No pending markers or chains left behind.
        table = dbms.catalog.get_table("t")
        assert table.uncommitted == {}

    def test_mvcc_reads_off_restores_2pl_blocking(self):
        db = PostgresDBMS("base", lock_timeout=0.05, mvcc_reads=False)
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        writer = db.connect()
        writer.begin()
        writer.execute("UPDATE t SET a = 2")
        with pytest.raises(LockTimeoutError):
            db.execute("SELECT * FROM t")
        writer.rollback()


class TestReadOnlyTransactions:
    def test_repeatable_snapshot_across_commits(self, dbms):
        reader = dbms.connect()
        reader.begin(read_only=True)
        assert reader.execute("SELECT v FROM t WHERE k = 5").scalar() == 50
        dbms.execute("UPDATE t SET v = 0 WHERE k = 5")
        # Same snapshot: the committed update stays invisible.
        assert reader.execute("SELECT v FROM t WHERE k = 5").scalar() == 50
        assert reader.execute("SELECT SUM(v) FROM t").scalar() == 450
        reader.commit()
        assert dbms.execute("SELECT v FROM t WHERE k = 5").scalar() == 0

    def test_read_only_rejects_dml(self, dbms):
        reader = dbms.connect()
        reader.begin(read_only=True)
        with pytest.raises(TransactionError):
            reader.execute("UPDATE t SET v = 1 WHERE k = 1")
        with pytest.raises(TransactionError):
            reader.execute("INSERT INTO t VALUES (200, 1)")
        reader.rollback()

    def test_read_only_via_sql(self, dbms):
        session = dbms.connect()
        session.execute("BEGIN READ ONLY")
        assert session.read_only
        assert session.in_transaction
        dbms.execute("DELETE FROM t WHERE k = 9")
        assert session.execute("SELECT COUNT(*) FROM t").scalar() == 10
        session.execute("COMMIT")
        assert not session.in_transaction
        assert session.execute("SELECT COUNT(*) FROM t").scalar() == 9

    def test_read_only_takes_no_locks(self, dbms):
        reader = dbms.connect()
        reader.begin(read_only=True)
        reader.execute("SELECT * FROM t")
        # A writer gets its X lock immediately.
        writer = dbms.connect()
        writer.lock_timeout = 0.01
        writer.begin()
        writer.execute("UPDATE t SET v = 1 WHERE k = 0")
        writer.commit()
        reader.commit()

    def test_read_only_cannot_be_global_branch(self, dbms):
        session = dbms.connect()
        with pytest.raises(TransactionError):
            session.begin(global_id="G1", read_only=True)

    def test_double_begin_rejected(self, dbms):
        session = dbms.connect()
        session.begin(read_only=True)
        with pytest.raises(TransactionError):
            session.begin()
        session.rollback()


class TestBeginReadOnlySQL:
    def test_parse(self):
        stmt = parse_statement("BEGIN READ ONLY")
        assert isinstance(stmt, ast.BeginTransaction)
        assert stmt.read_only is True
        assert parse_statement("BEGIN").read_only is False
        assert parse_statement("BEGIN TRANSACTION READ ONLY").read_only is True

    def test_print_round_trip(self):
        assert to_sql(parse_statement("BEGIN READ ONLY")) == "BEGIN READ ONLY"
        assert to_sql(parse_statement("BEGIN")) == "BEGIN"

    def test_read_without_only_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("BEGIN READ")

    def test_read_stays_usable_as_identifier(self):
        stmt = parse_statement("SELECT read, only FROM pages")
        names = [str(item.expression) for item in stmt.items]
        assert names == ["read", "only"]


class TestVersionGC:
    def test_chains_pruned_without_readers(self, dbms):
        table = dbms.catalog.get_table("t")
        for round_ in range(5):
            dbms.execute(f"UPDATE t SET v = {round_} WHERE k = 7")
        dbms.transactions.vacuum()
        # No active snapshot: nothing needs history.
        assert table.versions == {}
        assert table.uncommitted == {}

    def test_open_snapshot_pins_versions(self, dbms):
        table = dbms.catalog.get_table("t")
        reader = dbms.connect()
        reader.begin(read_only=True)
        dbms.execute("UPDATE t SET v = 1 WHERE k = 7")
        dbms.execute("UPDATE t SET v = 2 WHERE k = 7")
        dbms.transactions.vacuum()
        assert 7 in {rid for rid in table.versions} or table.versions
        # The pinned snapshot still resolves the original value.
        assert reader.execute("SELECT v FROM t WHERE k = 7").scalar() == 70
        reader.commit()
        dbms.transactions.vacuum()
        assert table.versions == {}

    def test_chain_collapses_as_horizon_advances(self, dbms):
        table = dbms.catalog.get_table("t")
        old_reader = dbms.connect()
        old_reader.begin(read_only=True)
        for round_ in range(20):
            dbms.execute(f"UPDATE t SET v = {round_} WHERE k = 7")
        # The old snapshot pins history: the chain holds every version
        # newer than its timestamp.
        (chain,) = table.versions.values()
        assert len(chain) == 21
        new_reader = dbms.connect()
        new_reader.begin(read_only=True)
        old_reader.commit()
        # Next commit prunes against the advanced horizon: one entry at or
        # below it (what new_reader sees) plus the new version.
        dbms.execute("UPDATE t SET v = 99 WHERE k = 7")
        (chain,) = table.versions.values()
        assert len(chain) == 2
        assert new_reader.execute("SELECT v FROM t WHERE k = 7").scalar() == 19
        new_reader.commit()

    def test_periodic_vacuum_runs(self, dbms):
        dbms.transactions.vacuum_interval = 4
        table = dbms.catalog.get_table("t")
        dbms.execute("UPDATE t SET v = 1 WHERE k = 3")
        # Autocommit snapshot reads count as releases; the 4th triggers
        # a vacuum that clears the unpinned chain.
        for _ in range(4):
            dbms.execute("SELECT v FROM t WHERE k = 3")
        assert table.versions == {}

    def test_snapshot_release_idempotent(self, dbms):
        snapshot = dbms.transactions.begin_snapshot()
        assert dbms.transactions.active_snapshots() == 1
        snapshot.release()
        snapshot.release()
        assert dbms.transactions.active_snapshots() == 0


class TestIndexScanUnderSnapshot:
    def test_point_lookup_sees_pre_image(self, dbms):
        writer = dbms.connect()
        writer.begin()
        writer.execute("UPDATE t SET v = 999 WHERE k = 6")
        # Constant PK equality → IndexScan; the uncommitted rid must be
        # re-resolved through the snapshot.
        assert dbms.execute("SELECT v FROM t WHERE k = 6").scalar() == 60
        writer.rollback()

    def test_range_scan_with_pending_changes(self, dbms):
        writer = dbms.connect()
        writer.begin()
        writer.execute("DELETE FROM t WHERE k = 4")
        writer.execute("INSERT INTO t VALUES (15, 150)")
        rows = dbms.execute(
            "SELECT k FROM t WHERE k >= 3 AND k <= 20 ORDER BY k"
        ).rows
        assert [r[0] for r in rows] == [3, 4, 5, 6, 7, 8, 9]
        writer.commit()
        rows = dbms.execute(
            "SELECT k FROM t WHERE k >= 3 AND k <= 20 ORDER BY k"
        ).rows
        assert [r[0] for r in rows] == [3, 5, 6, 7, 8, 9, 15]

    def test_index_lookup_of_committed_but_post_snapshot_row(self, dbms):
        reader = dbms.connect()
        reader.begin(read_only=True)
        dbms.execute("INSERT INTO t VALUES (50, 500)")
        dbms.execute("UPDATE t SET v = -8 WHERE k = 8")
        # New row not in the snapshot; updated row resolves to pre-image.
        assert reader.execute("SELECT v FROM t WHERE k = 50").rows == []
        assert reader.execute("SELECT v FROM t WHERE k = 8").scalar() == 80
        reader.commit()
        assert dbms.execute("SELECT v FROM t WHERE k = 50").scalar() == 500


def _scan(dbms, sql, snapshot, batch):
    """Rows and rows_scanned of one planned query under ``snapshot``,
    row-at-a-time or batch-at-a-time."""
    plan = LocalPlanner(dbms.catalog).plan_query(parse_statement(sql))
    ctx = ExecContext(snapshot=snapshot)
    rows = run_vectorized(plan, ctx) if batch else list(plan.rows(ctx))
    return rows, ctx.rows_scanned


_KEYS = st.integers(0, 12)
_HISTORY = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _KEYS, st.integers(0, 99)),
        st.tuples(st.just("update"), _KEYS, st.integers(0, 99)),
        st.tuples(st.just("rekey"), _KEYS, _KEYS),
        st.tuples(st.just("delete"), _KEYS),
        st.sampled_from(
            [("commit",), ("abort",), ("snapshot",), ("release",), ("vacuum",)]
        ),
    ),
    max_size=25,
)


class TestSnapshotScanFastPath:
    """Snapshot scans read the live heap in one pass when it is the read
    view, else patch only the changed RIDs in; both must return what the
    per-RID ``visible_value`` reference returns."""

    SEQ = ("SELECT k, v FROM t", "SELECT v FROM t WHERE v > 20")
    INDEX = ("SELECT k, v FROM t WHERE k = 4", "SELECT k, v FROM t WHERE k >= 5")

    def _check(self, dbms, snapshot):
        table = dbms.catalog.get_table("t")
        manager = dbms.transactions
        reference = [row for _, row in snapshot.visible_items(table)]
        assert snapshot.visible_rows(table) == reference
        filtered = [(v,) for _, v in reference if v > 20]
        for sql, expected in zip(self.SEQ, (reference, filtered)):
            for batch in (False, True):
                assert _scan(dbms, sql, snapshot, batch) == (
                    expected,
                    len(reference),
                )
        for sql in self.INDEX:
            assert "IndexScan" in LocalPlanner(dbms.catalog).plan_query(
                parse_statement(sql)
            ).explain()
            # The reference: every scan re-checks the full changed set.
            manager.heap_is_visible = lambda table, ts: False
            try:
                expected = _scan(dbms, sql, snapshot, False)
            finally:
                del manager.heap_is_visible
            for batch in (False, True):
                assert _scan(dbms, sql, snapshot, batch) == expected

    @settings(max_examples=150, deadline=None)
    @given(_HISTORY)
    def test_matches_per_rid_reference(self, history):
        db = PostgresDBMS("s", lock_timeout=0.05)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
        for k in range(0, 12, 2):
            db.execute(f"INSERT INTO t VALUES ({k}, {k * 10})")
        writer = db.connect()
        snapshots = []
        for step in history:
            kind = step[0]
            statement = {
                "insert": "INSERT INTO t VALUES ({}, {})",
                "update": "UPDATE t SET v = {1} WHERE k = {0}",
                "rekey": "UPDATE t SET k = {1} WHERE k = {0}",
                "delete": "DELETE FROM t WHERE k = {}",
            }.get(kind)
            if statement is not None:
                if not writer.in_transaction:
                    writer.begin()
                try:
                    writer.execute(statement.format(*step[1:]))
                except IntegrityError:
                    pass  # a duplicate key: the statement changed nothing
            elif kind == "commit":
                writer.commit()
            elif kind == "abort":
                writer.rollback()  # undo restores deleted RIDs
            elif kind == "snapshot":
                snapshots.append(db.transactions.begin_snapshot())
            elif kind == "release" and snapshots:
                snapshots.pop(0).release()
            elif kind == "vacuum":
                db.transactions.vacuum()
            fresh = db.transactions.begin_snapshot()
            for snapshot in snapshots + [fresh]:
                self._check(db, snapshot)
            fresh.release()

    def test_unchanged_table_scan_resolves_no_rid(self, dbms, monkeypatch):
        """A snapshot scan of a table nobody wrote since the snapshot reads
        the heap: no per-RID visibility check at all."""
        import repro.concurrency.mvcc as mvcc

        writer = dbms.connect()
        writer.begin()
        writer.execute("UPDATE t SET v = -1 WHERE k = 3")
        writer.rollback()
        dbms.execute("UPDATE t SET v = 7 WHERE k = 5")  # before the snapshot

        def refuse(*args, **kwargs):
            raise AssertionError("per-RID visibility check")

        monkeypatch.setattr(mvcc, "visible_value", refuse)
        snapshot = dbms.transactions.begin_snapshot()
        table = dbms.catalog.get_table("t")
        assert [row[0] for row in snapshot.visible_rows(table)] == list(range(10))
        for batch in (False, True):
            rows, scanned = _scan(dbms, "SELECT k FROM t", snapshot, batch)
            assert len(rows) == scanned == 10
            assert _scan(dbms, "SELECT v FROM t WHERE k = 5", snapshot, batch)[
                0
            ] == [(7,)]
        snapshot.release()

    def test_scans_count_their_path(self, dbms):
        manager = dbms.transactions
        heap, patched = manager.heap_scans, manager.patched_scans
        dbms.execute("SELECT * FROM t")
        assert (manager.heap_scans, manager.patched_scans) == (heap + 1, patched)
        writer = dbms.connect()
        writer.begin()
        writer.execute("UPDATE t SET v = 0 WHERE k = 1")
        assert dbms.execute("SELECT v FROM t WHERE k = 1").scalar() == 10
        assert (manager.heap_scans, manager.patched_scans) == (
            heap + 1,
            patched + 1,
        )
        writer.rollback()


class TestSnapshotScanUnderConcurrentWriters:
    """Readers scanning snapshots while writers move value between rows,
    delete and re-insert keys, and abort half their transactions: every
    scan must see one committed state (same keys, same total)."""

    ROWS = 48  # above BATCH_MIN_ROWS: full scans run as batches

    def test_scans_see_committed_states_only(self):
        import random
        import sys
        import time

        db = PostgresDBMS("s", lock_timeout=0.02)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
        for k in range(self.ROWS):
            db.execute(f"INSERT INTO t VALUES ({k}, 100)")
        total = 100 * self.ROWS
        keys = list(range(self.ROWS))
        stop = threading.Event()
        failures: list[str] = []
        scans = [0]

        def writer(seed):
            rng = random.Random(seed)
            session = db.connect()
            while not stop.is_set():
                a, b = rng.sample(keys, 2)
                amount = rng.randrange(1, 50)
                try:
                    session.begin()
                    session.execute(f"UPDATE t SET v = v - {amount} WHERE k = {a}")
                    session.execute(f"UPDATE t SET v = v + {amount} WHERE k = {b}")
                    if rng.random() < 0.25:
                        value = session.execute(
                            f"SELECT v FROM t WHERE k = {b}"
                        ).scalar()
                        session.execute(f"DELETE FROM t WHERE k = {b}")
                        session.execute(f"INSERT INTO t VALUES ({b}, {value})")
                    if rng.random() < 0.5:
                        session.rollback()  # undo restores the deleted RID
                    else:
                        session.commit()
                except LockTimeoutError:
                    session.rollback()

        def reader(seed):
            sqls = (
                "SELECT k, v FROM t",  # batch
                "SELECT k, v FROM t LIMIT 1000",  # row-at-a-time
                "SELECT k, v FROM t WHERE k >= 0",  # index range scan
            )
            position = seed
            while not stop.is_set():
                sql = sqls[position % len(sqls)]
                position += 1
                rows = db.execute(sql).rows
                scans[0] += 1
                if sorted(k for k, _ in rows) != keys or sum(
                    v for _, v in rows
                ) != total:
                    failures.append(sql)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=writer, args=(i,)) for i in range(2)
            ] + [threading.Thread(target=reader, args=(i,)) for i in range(3)]
            for thread in threads:
                thread.start()
            time.sleep(2.0)
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(previous)
            stop.set()
        assert not any(thread.is_alive() for thread in threads)
        assert scans[0] > 0
        assert failures == []
        manager = db.transactions
        assert manager.heap_scans > 0 and manager.patched_scans > 0


class TestTxnIdRegression:
    """Satellite 1: successive transactions on one session must not share
    a WAL identity (the old id was the constant ``<session>-t``)."""

    def test_two_transactions_get_distinct_ids(self, dbms):
        session = dbms.connect()
        session.begin()
        session.execute("UPDATE t SET v = 1 WHERE k = 0")
        session.commit()
        session.begin()
        session.execute("UPDATE t SET v = 2 WHERE k = 0")
        session.commit()
        ids = {
            r.txn_id
            for r in dbms.transactions.wal.records
            if r.record_type is LogRecordType.BEGIN
            and str(r.txn_id).startswith(session.session_id)
        }
        assert len(ids) == 2

    def test_wal_replay_of_two_txn_session(self, dbms):
        """Replaying the WAL must see BEGIN/COMMIT pair up per txn id —
        with the colliding ids the second BEGIN re-used a committed id."""
        session = dbms.connect()
        for _ in range(2):
            session.begin()
            session.execute("UPDATE t SET v = v + 1 WHERE k = 1")
            session.commit()
        states: dict[object, str] = {}
        for record in dbms.transactions.wal.records:
            if record.record_type is LogRecordType.BEGIN:
                assert states.get(record.txn_id) != "open", (
                    f"BEGIN for already-open txn {record.txn_id}"
                )
                states[record.txn_id] = "open"
            elif record.record_type in (
                LogRecordType.COMMIT,
                LogRecordType.ABORT,
            ):
                assert states.get(record.txn_id) == "open"
                states[record.txn_id] = "done"
        assert all(state == "done" for state in states.values())


class TestScriptLeakRegression:
    """Satellite 3: execute_script must not leak an open transaction."""

    def test_failing_script_releases_locks(self, dbms):
        with pytest.raises(Exception):
            dbms.execute_script(
                """
                BEGIN;
                UPDATE t SET v = 1 WHERE k = 0;
                INSERT INTO t VALUES (0, 0);
                """
            )
        # The X lock from the UPDATE must be gone: a new writer succeeds.
        writer = dbms.connect()
        writer.lock_timeout = 0.05
        writer.begin()
        writer.execute("UPDATE t SET v = 5 WHERE k = 0")
        writer.commit()
        # And the failed script's partial work was rolled back.
        assert dbms.execute("SELECT v FROM t WHERE k = 0").scalar() == 5
        assert dbms.transactions.active_transactions() == []

    def test_unclosed_begin_rolled_back(self, dbms):
        dbms.execute_script(
            """
            BEGIN;
            UPDATE t SET v = 77 WHERE k = 2;
            """
        )
        assert dbms.transactions.active_transactions() == []
        assert dbms.execute("SELECT v FROM t WHERE k = 2").scalar() == 20


class TestCounterThreadSafety:
    """Satellite 2: commits/aborts counters move under the manager mutex."""

    def test_exact_totals_under_contention(self):
        db = PostgresDBMS("c", lock_timeout=5.0)
        db.execute("CREATE TABLE u (a INTEGER)")
        base_commits = db.transactions.commits
        base_aborts = db.transactions.aborts
        rounds = 25
        workers = 8

        def work():
            session = db.connect()
            for i in range(rounds):
                session.begin()
                session.execute("INSERT INTO u VALUES (1)")
                if i % 2:
                    session.commit()
                else:
                    session.rollback()

        threads = [threading.Thread(target=work) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected_each = rounds // 2
        assert db.transactions.commits - base_commits == (
            workers * expected_each
        )
        assert db.transactions.aborts - base_aborts == workers * (
            rounds - expected_each
        )


class TestLocalCommitInvalidatesFragmentCache:
    def test_table_commit_ts_moves_on_local_commit(self, dbms):
        before = dbms.transactions.table_commit_ts("t")
        dbms.execute("UPDATE t SET v = 5 WHERE k = 5")
        assert dbms.transactions.table_commit_ts("t") > before
        # Read-only traffic does not move it.
        mid = dbms.transactions.table_commit_ts("t")
        dbms.execute("SELECT * FROM t")
        assert dbms.transactions.table_commit_ts("t") == mid
