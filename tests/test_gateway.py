"""Gateway tests: exports, translation, timeouts, DML mapping, 2PC proxy."""

import pytest

from repro.errors import GatewayError, GatewayTimeout
from repro.gateway import Gateway
from repro.localdb import OracleDBMS
from repro.net import MessageTrace, Network


@pytest.fixture
def setup():
    net = Network()
    ora = OracleDBMS("ora", lock_timeout=1.0)
    ora.execute(
        "CREATE TABLE employees (eno INTEGER PRIMARY KEY, ename VARCHAR2(30), "
        "salary NUMBER, dno INTEGER, notes VARCHAR2(40))"
    )
    ora.execute(
        "INSERT INTO employees VALUES "
        "(1, 'KING', 5000, 10, 'ceo'), (2, 'BLAKE', 2850, 30, NULL), "
        "(3, 'CLARK', 2450, 10, 'x')"
    )
    gateway = Gateway(ora, net)
    gateway.export_table(
        "employees",
        "emp",
        {"empno": "eno", "name": "ename", "sal": "salary", "deptno": "dno"},
    )
    return net, ora, gateway


class TestExports:
    def test_unexported_columns_hidden(self, setup):
        _, _, gateway = setup
        schema = gateway.export_relation_schema("emp")
        assert "notes" not in [c.lower() for c in schema.column_names]

    def test_export_schema_preserves_pk(self, setup):
        _, _, gateway = setup
        assert gateway.export_relation_schema("emp").primary_key == ["empno"]

    def test_pk_dropped_if_not_exported(self, setup):
        _, _, gateway = setup
        gateway.export_table("employees", "emp_nopk", {"name": "ename"})
        assert gateway.export_relation_schema("emp_nopk").primary_key == []

    def test_export_with_predicate(self, setup):
        _, _, gateway = setup
        gateway.export_table(
            "employees", "rich", {"name": "ename"}, predicate="salary >= 2800"
        )
        result = gateway.execute_query("SELECT name FROM rich")
        assert sorted(r[0] for r in result.rows) == ["BLAKE", "KING"]

    def test_duplicate_export_name(self, setup):
        _, _, gateway = setup
        with pytest.raises(GatewayError):
            gateway.export_table("employees", "emp")

    def test_export_unknown_column(self, setup):
        _, _, gateway = setup
        with pytest.raises(Exception):
            gateway.export_table("employees", "bad", {"x": "no_such"})

    def test_querying_unexported_relation_fails(self, setup):
        _, _, gateway = setup
        # 'employees' itself is not exported, only 'emp'
        with pytest.raises(Exception):
            gateway.execute_query("SELECT * FROM employees_raw")

    def test_export_names(self, setup):
        _, _, gateway = setup
        assert gateway.export_names() == ["emp"]


class TestQueryShipping:
    def test_column_renaming(self, setup):
        _, _, gateway = setup
        result = gateway.execute_query(
            "SELECT empno, name FROM emp WHERE sal > 2900"
        )
        assert result.columns == ["empno", "name"]
        assert result.rows == [(1, "KING")]

    def test_traffic_accounting(self, setup):
        _, _, gateway = setup
        trace = MessageTrace()
        gateway.execute_query("SELECT name FROM emp", trace=trace)
        assert trace.message_count == 2  # query there, result back
        assert trace.total_bytes > 0
        assert trace.elapsed_s > 0

    def test_value_normalisation(self, setup):
        _, _, gateway = setup
        result = gateway.execute_query("SELECT sal FROM emp WHERE empno = 1")
        value = result.rows[0][0]
        assert isinstance(value, int)  # Decimal 5000 → int

    def test_limit_travels_through_oracle_dialect(self, setup):
        _, _, gateway = setup
        result = gateway.execute_query("SELECT name FROM emp LIMIT 2")
        assert len(result) == 2

    def test_aggregates_run_locally(self, setup):
        _, _, gateway = setup
        result = gateway.execute_query(
            "SELECT deptno, COUNT(*) AS n FROM emp GROUP BY deptno"
        )
        assert dict(result.rows) == {10: 2, 30: 1}

    def test_export_stats(self, setup):
        _, _, gateway = setup
        stats = gateway.export_stats("emp")
        assert stats.row_count == 3
        assert stats.column("deptno").distinct == 2
        # stats use export column names, not local ones
        assert stats.column("dno") is None

    def test_export_stats_cached_until_dml(self, setup):
        _, ora, gateway = setup
        assert gateway.export_stats("emp").row_count == 3
        ora.execute("INSERT INTO employees VALUES (9, 'NEW', 1, 10, NULL)")
        assert gateway.export_stats("emp").row_count == 3  # cached
        assert gateway.export_stats("emp", refresh=True).row_count == 4

    def test_export_stats_refresh_bumps_stats_version(self, setup):
        # regression: refresh=True replaced the cached statistics without
        # bumping stats_version, so plans compiled from the superseded
        # statistics kept being served from the plan cache
        _, ora, gateway = setup
        gateway.export_stats("emp")
        before = gateway.stats_version
        gateway.export_stats("emp", refresh=True)
        assert gateway.stats_version == before + 1
        # a refresh that computed nothing new still moved the version: the
        # cached value it replaced could have driven a compiled plan
        gateway.export_stats("emp", refresh=True)
        assert gateway.stats_version == before + 2

    def test_export_stats_first_computation_does_not_bump(self, setup):
        _, _, gateway = setup
        before = gateway.stats_version
        gateway.export_stats("emp")
        gateway.export_stats("emp")  # cached: no recomputation either
        assert gateway.stats_version == before

    def test_export_stats_cache_miss_single_flight(self, setup):
        # regression: concurrent first reads each ran the export view and
        # raced their results into the cache
        import threading
        import time

        _, ora, gateway = setup
        scans = []
        original = ora.execute

        def counted(*args, **kwargs):
            scans.append(threading.get_ident())
            time.sleep(0.02)  # widen the race window
            return original(*args, **kwargs)

        ora.execute = counted
        try:
            results = []
            threads = [
                threading.Thread(
                    target=lambda: results.append(gateway.export_stats("emp"))
                )
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            ora.execute = original
        assert len(scans) == 1  # one view scan served every caller
        assert len(results) == 8
        assert all(stats.row_count == 3 for stats in results)


class TestTimeouts:
    def test_timeout_becomes_gateway_timeout(self, setup):
        _, ora, gateway = setup
        blocker = ora.connect()
        blocker.begin()
        blocker.execute("UPDATE employees SET salary = 1 WHERE eno = 1")
        # Autocommit reads run on an MVCC snapshot: no lock wait, and the
        # uncommitted local write stays invisible.
        result = gateway.execute_query("SELECT * FROM emp", timeout=0.05)
        assert len(result) == 3
        # A transactional (2PL) read still waits and times out — the
        # paper's presumed-deadlock signal.
        gateway.begin("G-t")
        with pytest.raises(GatewayTimeout) as exc:
            gateway.execute_query(
                "SELECT * FROM emp", timeout=0.05, global_id="G-t"
            )
        assert exc.value.site == "ora"
        assert gateway.timeouts == 1
        gateway.abort("G-t")
        blocker.rollback()

    def test_no_timeout_when_unblocked(self, setup):
        _, _, gateway = setup
        result = gateway.execute_query("SELECT * FROM emp", timeout=0.05)
        assert len(result) == 3


class TestTransactionBranches:
    def test_begin_execute_commit(self, setup):
        _, ora, gateway = setup
        trace = MessageTrace()
        gateway.begin("G1", trace)
        count = gateway.execute_update(
            "UPDATE emp SET sal = sal + 1 WHERE deptno = 10", "G1", trace
        )
        assert count == 2
        assert gateway.prepare("G1", trace) is True
        gateway.commit("G1", trace)
        result = gateway.execute_query("SELECT sal FROM emp WHERE empno = 1")
        assert result.rows[0][0] == 5001

    def test_abort_branch_rolls_back(self, setup):
        _, _, gateway = setup
        gateway.begin("G1")
        gateway.execute_update("DELETE FROM emp WHERE deptno = 10", "G1")
        gateway.abort("G1")
        assert len(gateway.execute_query("SELECT * FROM emp")) == 3

    def test_update_through_column_mapping(self, setup):
        _, ora, gateway = setup
        gateway.begin("G1")
        gateway.execute_update(
            "UPDATE emp SET sal = 99 WHERE name = 'CLARK'", "G1"
        )
        gateway.commit("G1")
        # verify against the LOCAL schema columns
        value = ora.execute(
            "SELECT salary FROM employees WHERE ename = 'CLARK'"
        ).scalar()
        assert float(value) == 99.0

    def test_insert_through_export(self, setup):
        _, ora, gateway = setup
        gateway.begin("G1")
        gateway.execute_update(
            "INSERT INTO emp (empno, name, sal, deptno) VALUES (7, 'NEW', 1000, 30)",
            "G1",
        )
        gateway.commit("G1")
        assert (
            ora.execute("SELECT ename FROM employees WHERE eno = 7").scalar()
            == "NEW"
        )

    def test_unknown_branch_rejected(self, setup):
        _, _, gateway = setup
        with pytest.raises(GatewayError):
            gateway.execute_update("DELETE FROM emp", "GHOST")

    def test_duplicate_branch_rejected(self, setup):
        _, _, gateway = setup
        gateway.begin("G1")
        with pytest.raises(GatewayError):
            gateway.begin("G1")
        gateway.abort("G1")

    def test_abort_unknown_branch_is_noop(self, setup):
        _, _, gateway = setup
        gateway.abort("GHOST")
        gateway.commit("GHOST")

    def test_2pc_message_pattern(self, setup):
        _, _, gateway = setup
        trace = MessageTrace()
        gateway.begin("G1", trace)
        gateway.prepare("G1", trace)
        gateway.commit("G1", trace)
        purposes = [record.purpose for record in trace.records]
        assert purposes == ["begin", "ack", "prepare", "vote", "commit", "ack"]


class TestWaitForEdges:
    def test_edges_use_global_ids(self, setup):
        import threading
        import time

        _, ora, gateway = setup
        gateway.begin("G_HOLDER")
        gateway.execute_update(
            "UPDATE emp SET sal = sal WHERE empno = 1", "G_HOLDER"
        )

        done = threading.Event()

        def blocked_local():
            session = ora.connect()
            session.lock_timeout = 0.5
            session.begin()
            try:
                session.execute("UPDATE employees SET salary = 2 WHERE eno = 2")
            except Exception:
                pass
            finally:
                session.rollback()
                done.set()

        thread = threading.Thread(target=blocked_local)
        thread.start()
        time.sleep(0.1)
        edges = gateway.wait_for_edges()
        assert any(holder == "G_HOLDER" for _, holder in edges)
        done.wait(2)
        thread.join()
        gateway.abort("G_HOLDER")


class TestPushdownThroughExports:
    """The export view is shipped as a derived table; the component
    planner pushes the fetch predicate through it onto the local index."""

    def test_renamed_pk_column_is_probed(self, setup):
        _, ora, gateway = setup
        result = gateway.execute_query("SELECT name FROM emp WHERE empno = 2")
        assert result.rows == [("BLAKE",)]
        assert result.scanned == 1
        assert ora.engine.last_report.rows_scanned == 1

    def test_export_predicate_still_applies(self):
        net = Network()
        ora = OracleDBMS("ora")
        ora.execute(
            "CREATE TABLE employees (eno INTEGER PRIMARY KEY, dno INTEGER)"
        )
        ora.execute("INSERT INTO employees VALUES (1, 10), (2, 30)")
        gateway = Gateway(ora, net)
        gateway.export_table(
            "employees", "dept10", {"id": "eno"}, predicate="dno = 10"
        )
        assert gateway.execute_query(
            "SELECT id FROM dept10 WHERE id = 2"
        ).rows == []
        assert gateway.execute_query(
            "SELECT id FROM dept10 WHERE id = 1"
        ).rows == [(1,)]

    def test_index_columns_follow_the_local_catalog(self, setup):
        _, ora, gateway = setup
        gateway.export_stats("emp")
        assert set(gateway.export_index_columns("emp")) == {"empno"}
        # An index created after the statistics were cached is seen.
        ora.execute("CREATE INDEX dno_idx ON employees (dno)")
        assert set(gateway.export_index_columns("emp")) == {"empno", "deptno"}

    def test_string_literal_on_integer_key_still_matches(self):
        from repro.workloads import build_bank_sites

        system = build_bank_sites(4, 50)
        by_string = system.query(
            "bank", "SELECT balance FROM accounts WHERE acct = '57'"
        )
        assert by_string.rows == [(1000.0,)]
        assert system.gateways["b1"].dbms.engine.last_report.rows_scanned == 50

    def test_federated_point_lookup_scans_one_row_at_its_owner(self):
        from repro.workloads import build_bank_sites

        system = build_bank_sites(4, 50)
        result = system.query("bank", "SELECT balance FROM accounts WHERE acct = 57")
        assert result.rows == [(1000.0,)]
        scanned = {
            name: gateway.dbms.engine.last_report.rows_scanned
            for name, gateway in system.gateways.items()
        }
        assert scanned == {"b0": 0, "b1": 1, "b2": 0, "b3": 0}
        actuals = [
            result.fetch_actuals[fetch.index].scanned
            for fetch in result.plan.fetches
        ]
        assert sorted(actuals) == [0, 0, 0, 1]
        report = result.explain_analyze()
        assert report.count("scanned=0") == 3
        assert report.count("scanned=1 ") == 1
        # The estimate charges the index probe, not a full scan.
        for fetch in result.plan.fetches:
            actual = result.fetch_actuals[fetch.index]
            assert fetch.est_cost_s == pytest.approx(actual.sim_s, rel=0.05)

    def test_cache_hits_render_no_scan_count(self):
        from repro.workloads import build_bank_sites

        system = build_bank_sites(2, 10)
        sql = "SELECT balance FROM accounts WHERE acct = 3"
        system.query("bank", sql)
        again = system.query("bank", sql)
        assert all(a.cached for a in again.fetch_actuals.values())
        assert all(a.scanned is None for a in again.fetch_actuals.values())
        assert "scanned=" not in again.explain_analyze()


class TestNormalizeRows:
    """Shipped fragments are canonicalised a column at a time."""

    def test_rows_without_decimals_come_back_untouched(self):
        from repro.gateway.gateway import _normalize_fragment
        from repro.storage import Fragment

        rows = [(1, "a", 2.5, None), (2, "b", 3.0, True)]
        fragment = Fragment.from_rows(["a", "b", "c", "d"], rows)
        assert _normalize_fragment(fragment) is fragment
        empty = Fragment.from_rows(["a"], [])
        assert _normalize_fragment(empty).rows() == []

    def test_decimal_columns_match_value_by_value_normalisation(self):
        from decimal import Decimal

        from repro.gateway.gateway import _normalize_fragment, _normalize_value
        from repro.storage import Fragment

        rows = [
            (1, Decimal("2.50"), "x", Decimal("7")),
            (2, None, "y", Decimal("-3.0")),
            (3, Decimal("4"), None, None),
        ]
        expected = [tuple(map(_normalize_value, row)) for row in rows]
        got = _normalize_fragment(
            Fragment.from_rows(["a", "b", "c", "d"], rows)
        ).rows()
        assert got == expected
        assert [list(map(type, row)) for row in got] == [
            list(map(type, row)) for row in expected
        ]
