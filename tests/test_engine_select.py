"""Local engine SELECT tests over the classic EMP/DEPT dataset."""

import datetime
from decimal import Decimal

import pytest

from repro.engine import LocalEngine
from repro.errors import CatalogError, ExecutionError
from repro.storage.catalog import Catalog


def rows(engine, sql):
    return engine.execute(sql).rows


class TestProjectionFilter:
    def test_select_star_column_order(self, engine):
        result = engine.execute("SELECT * FROM dept")
        assert result.columns == ["deptno", "dname", "loc"]
        assert len(result) == 4

    def test_qualified_star(self, engine):
        result = engine.execute(
            "SELECT d.* FROM emp e JOIN dept d ON e.deptno = d.deptno "
            "WHERE e.ename = 'KING'"
        )
        assert result.rows == [(10, "ACCOUNTING", "NEW YORK")]

    def test_where_filtering(self, engine):
        assert len(rows(engine, "SELECT * FROM emp WHERE sal > 2800")) == 5

    def test_computed_projection(self, engine):
        result = engine.execute(
            "SELECT ename, sal * 12 AS annual FROM emp WHERE empno = 7839"
        )
        assert result.rows == [("KING", 60000.0)]
        assert result.columns == ["ename", "annual"]

    def test_null_comparison_filters_out(self, engine):
        # comm IS NULL for most; comm > 0 must not match NULL rows
        assert len(rows(engine, "SELECT * FROM emp WHERE comm > 0")) == 3

    def test_is_null_predicate(self, engine):
        assert len(rows(engine, "SELECT * FROM emp WHERE comm IS NULL")) == 10

    def test_select_without_from(self, engine):
        assert rows(engine, "SELECT 1 + 1") == [(2,)]

    def test_unknown_table(self, engine):
        with pytest.raises(CatalogError):
            engine.execute("SELECT * FROM nope")

    def test_unknown_column(self, engine):
        with pytest.raises(CatalogError):
            engine.execute("SELECT zzz FROM emp")


class TestOrderLimit:
    def test_order_by_desc(self, engine):
        result = rows(engine, "SELECT ename FROM emp ORDER BY sal DESC LIMIT 3")
        assert [r[0] for r in result] == ["KING", "SCOTT", "FORD"] or [
            r[0] for r in result
        ] == ["KING", "FORD", "SCOTT"]

    def test_multi_key_order(self, engine):
        result = rows(
            engine, "SELECT deptno, ename FROM emp ORDER BY deptno, ename"
        )
        assert result[0] == (10, "CLARK")
        assert result[-1] == (30, "WARD")

    def test_order_stability_with_mixed_directions(self, engine):
        result = rows(
            engine,
            "SELECT deptno, sal, ename FROM emp ORDER BY deptno ASC, sal DESC",
        )
        # within dept 20, salaries must be non-increasing
        dept20 = [r for r in result if r[0] == 20]
        sals = [r[1] for r in dept20]
        assert sals == sorted(sals, reverse=True)

    def test_order_by_position(self, engine):
        result = rows(engine, "SELECT ename, sal FROM emp ORDER BY 2 DESC LIMIT 1")
        assert result[0][0] == "KING"

    def test_order_by_alias(self, engine):
        result = rows(
            engine,
            "SELECT ename, sal * 12 AS annual FROM emp ORDER BY annual LIMIT 1",
        )
        assert result[0][0] == "SMITH"

    def test_order_by_expression_not_in_output(self, engine):
        result = rows(engine, "SELECT ename FROM emp ORDER BY sal LIMIT 2")
        assert [r[0] for r in result] == ["SMITH", "JAMES"]

    def test_limit_offset(self, engine):
        all_names = rows(engine, "SELECT ename FROM emp ORDER BY empno")
        page = rows(
            engine, "SELECT ename FROM emp ORDER BY empno LIMIT 3 OFFSET 2"
        )
        assert page == all_names[2:5]

    def test_nulls_sort_first(self, engine):
        result = rows(engine, "SELECT comm FROM emp ORDER BY comm LIMIT 1")
        assert result[0][0] is None

    def test_order_position_out_of_range(self, engine):
        with pytest.raises(ExecutionError):
            engine.execute("SELECT ename FROM emp ORDER BY 5")


class TestJoins:
    def test_inner_join(self, engine):
        result = rows(
            engine,
            "SELECT e.ename, d.dname FROM emp e JOIN dept d "
            "ON e.deptno = d.deptno WHERE d.loc = 'DALLAS'",
        )
        assert len(result) == 5
        assert all(r[1] == "RESEARCH" for r in result)

    def test_implicit_join(self, engine):
        result = rows(
            engine,
            "SELECT e.ename FROM emp e, dept d "
            "WHERE e.deptno = d.deptno AND d.dname = 'SALES'",
        )
        assert len(result) == 6

    def test_left_join_keeps_unmatched(self, engine):
        result = rows(
            engine,
            "SELECT d.dname, e.ename FROM dept d LEFT JOIN emp e "
            "ON d.deptno = e.deptno WHERE e.empno IS NULL",
        )
        assert result == [("OPERATIONS", None)]

    def test_right_join(self, engine):
        result = rows(
            engine,
            "SELECT d.dname FROM emp e RIGHT JOIN dept d "
            "ON e.deptno = d.deptno WHERE e.empno IS NULL",
        )
        assert result == [("OPERATIONS",)]

    def test_full_join(self, engine):
        engine.execute("CREATE TABLE a (x INTEGER)")
        engine.execute("CREATE TABLE b (y INTEGER)")
        engine.execute("INSERT INTO a VALUES (1), (2)")
        engine.execute("INSERT INTO b VALUES (2), (3)")
        result = sorted(
            rows(engine, "SELECT x, y FROM a FULL JOIN b ON a.x = b.y"),
            key=lambda r: (r[0] is None, r[0] or 0),
        )
        assert result == [(1, None), (2, 2), (None, 3)]

    def test_cross_join_cardinality(self, engine):
        assert len(rows(engine, "SELECT * FROM emp CROSS JOIN dept")) == 56

    def test_self_join(self, engine):
        result = rows(
            engine,
            "SELECT e.ename, m.ename FROM emp e JOIN emp m ON e.mgr = m.empno "
            "WHERE m.ename = 'KING' ORDER BY e.ename",
        )
        assert [r[0] for r in result] == ["BLAKE", "CLARK", "JONES"]

    def test_join_using(self, engine):
        result = rows(
            engine,
            "SELECT e.ename FROM emp e JOIN dept d USING (deptno) "
            "WHERE d.dname = 'ACCOUNTING'",
        )
        assert len(result) == 3

    def test_three_way_join(self, engine):
        result = rows(
            engine,
            "SELECT e.ename FROM emp e JOIN emp m ON e.mgr = m.empno "
            "JOIN dept d ON m.deptno = d.deptno WHERE d.dname = 'ACCOUNTING' "
            "ORDER BY e.ename",
        )
        # managers in dept 10: KING (manages 3), CLARK (manages MILLER)
        assert [r[0] for r in result] == ["BLAKE", "CLARK", "JONES", "MILLER"]

    def test_non_equi_join(self, engine):
        result = rows(
            engine,
            "SELECT COUNT(*) FROM emp e JOIN emp g "
            "ON e.sal > g.sal AND g.ename = 'KING'",
        )
        assert result == [(0,)]

    def test_join_null_keys_never_match(self, engine):
        # KING has NULL mgr; a self-join on mgr must not match NULL=anything
        result = rows(
            engine,
            "SELECT COUNT(*) FROM emp e JOIN emp m ON e.mgr = m.mgr "
            "WHERE e.ename = 'KING'",
        )
        assert result == [(0,)]


class TestAggregation:
    def test_global_aggregates(self, engine):
        result = engine.execute(
            "SELECT COUNT(*), SUM(sal), MIN(sal), MAX(sal), AVG(sal) FROM emp"
        )
        count, total, minimum, maximum, average = result.rows[0]
        assert count == 14
        assert total == pytest.approx(29025.0)
        assert minimum == 800.0
        assert maximum == 5000.0
        assert average == pytest.approx(29025.0 / 14)

    def test_count_column_skips_nulls(self, engine):
        assert rows(engine, "SELECT COUNT(comm) FROM emp") == [(4,)]

    def test_count_distinct(self, engine):
        assert rows(engine, "SELECT COUNT(DISTINCT deptno) FROM emp") == [(3,)]

    def test_group_by(self, engine):
        result = dict(
            rows(engine, "SELECT deptno, COUNT(*) FROM emp GROUP BY deptno")
        )
        assert result == {10: 3, 20: 5, 30: 6}

    def test_group_by_expression(self, engine):
        result = rows(
            engine,
            "SELECT sal >= 3000, COUNT(*) FROM emp GROUP BY sal >= 3000",
        )
        assert dict(result) == {True: 3, False: 11}

    def test_having(self, engine):
        result = rows(
            engine,
            "SELECT deptno FROM emp GROUP BY deptno HAVING COUNT(*) > 4 "
            "ORDER BY deptno",
        )
        assert result == [(20,), (30,)]

    def test_having_on_aggregate_not_in_select(self, engine):
        result = rows(
            engine,
            "SELECT deptno FROM emp GROUP BY deptno HAVING AVG(sal) > 2100",
        )
        assert result == [(10,), (20,)] or sorted(result) == [(10,), (20,)]

    def test_aggregate_of_expression(self, engine):
        result = rows(engine, "SELECT SUM(sal + COALESCE(comm, 0)) FROM emp")
        assert result[0][0] == pytest.approx(29025.0 + 2200.0)

    def test_empty_group_aggregate(self, engine):
        result = engine.execute("SELECT COUNT(*), SUM(sal) FROM emp WHERE sal > 99999")
        assert result.rows == [(0, None)]

    def test_group_by_empty_input_no_rows(self, engine):
        result = engine.execute(
            "SELECT deptno, COUNT(*) FROM emp WHERE sal > 99999 GROUP BY deptno"
        )
        assert result.rows == []

    def test_avg_of_nulls_is_null(self, engine):
        result = rows(engine, "SELECT AVG(comm) FROM emp WHERE comm IS NULL")
        assert result == [(None,)]

    def test_order_by_aggregate(self, engine):
        result = rows(
            engine,
            "SELECT deptno FROM emp GROUP BY deptno ORDER BY AVG(sal) DESC",
        )
        assert result == [(10,), (20,), (30,)]

    def test_group_key_in_expression(self, engine):
        result = rows(
            engine,
            "SELECT deptno * 10, COUNT(*) FROM emp GROUP BY deptno "
            "ORDER BY deptno",
        )
        assert result[0] == (100, 3)

    def test_having_without_group_by_rejected(self, engine):
        with pytest.raises(ExecutionError):
            engine.execute("SELECT ename FROM emp HAVING sal > 1")


class TestDistinctAndSetOps:
    def test_distinct(self, engine):
        result = rows(engine, "SELECT DISTINCT deptno FROM emp ORDER BY deptno")
        assert result == [(10,), (20,), (30,)]

    def test_distinct_multi_column(self, engine):
        result = rows(engine, "SELECT DISTINCT deptno, job FROM emp")
        assert len(result) == 9

    def test_union_removes_duplicates(self, engine):
        result = rows(
            engine,
            "SELECT deptno FROM emp UNION SELECT deptno FROM dept "
            "ORDER BY deptno",
        )
        assert result == [(10,), (20,), (30,), (40,)]

    def test_union_all_keeps_duplicates(self, engine):
        result = rows(
            engine, "SELECT deptno FROM emp UNION ALL SELECT deptno FROM dept"
        )
        assert len(result) == 18

    def test_intersect(self, engine):
        result = rows(
            engine,
            "SELECT deptno FROM dept INTERSECT SELECT deptno FROM emp "
            "ORDER BY deptno",
        )
        assert result == [(10,), (20,), (30,)]

    def test_except(self, engine):
        result = rows(
            engine, "SELECT deptno FROM dept EXCEPT SELECT deptno FROM emp"
        )
        assert result == [(40,)]

    def test_set_op_column_count_mismatch(self, engine):
        with pytest.raises(ExecutionError):
            engine.execute("SELECT deptno, dname FROM dept UNION SELECT deptno FROM emp")


class TestSubqueries:
    def test_in_subquery(self, engine):
        result = rows(
            engine,
            "SELECT ename FROM emp WHERE deptno IN "
            "(SELECT deptno FROM dept WHERE loc = 'NEW YORK') ORDER BY ename",
        )
        assert [r[0] for r in result] == ["CLARK", "KING", "MILLER"]

    def test_not_in_subquery(self, engine):
        result = rows(
            engine,
            "SELECT dname FROM dept WHERE deptno NOT IN "
            "(SELECT deptno FROM emp)",
        )
        assert result == [("OPERATIONS",)]

    def test_scalar_subquery(self, engine):
        result = rows(
            engine,
            "SELECT ename FROM emp WHERE sal = (SELECT MAX(sal) FROM emp)",
        )
        assert result == [("KING",)]

    def test_correlated_subquery(self, engine):
        result = rows(
            engine,
            "SELECT ename FROM emp e WHERE sal > "
            "(SELECT AVG(sal) FROM emp e2 WHERE e2.deptno = e.deptno) "
            "ORDER BY ename",
        )
        assert [r[0] for r in result] == [
            "ALLEN", "BLAKE", "FORD", "JONES", "KING", "SCOTT",
        ]

    def test_exists_correlated(self, engine):
        result = rows(
            engine,
            "SELECT dname FROM dept d WHERE EXISTS "
            "(SELECT 1 FROM emp e WHERE e.deptno = d.deptno AND e.sal > 2900) "
            "ORDER BY dname",
        )
        assert [r[0] for r in result] == ["ACCOUNTING", "RESEARCH"]

    def test_not_exists(self, engine):
        result = rows(
            engine,
            "SELECT dname FROM dept d WHERE NOT EXISTS "
            "(SELECT 1 FROM emp e WHERE e.deptno = d.deptno)",
        )
        assert result == [("OPERATIONS",)]

    def test_derived_table(self, engine):
        result = rows(
            engine,
            "SELECT dname, n FROM (SELECT deptno, COUNT(*) AS n FROM emp "
            "GROUP BY deptno) c JOIN dept ON c.deptno = dept.deptno "
            "ORDER BY n DESC LIMIT 1",
        )
        assert result == [("SALES", 6)]

    def test_scalar_subquery_multiple_rows_fails(self, engine):
        with pytest.raises(ExecutionError):
            engine.execute(
                "SELECT ename FROM emp WHERE sal = (SELECT sal FROM emp)"
            )

    def test_scalar_subquery_in_projection(self, engine):
        result = rows(
            engine,
            "SELECT dname, (SELECT COUNT(*) FROM emp e WHERE e.deptno = d.deptno) "
            "FROM dept d ORDER BY dname",
        )
        assert result == [
            ("ACCOUNTING", 3), ("OPERATIONS", 0), ("RESEARCH", 5), ("SALES", 6),
        ]


class TestSubqueryScanAccounting:
    """A statement's rows_scanned includes the scans its subqueries do."""

    @pytest.fixture
    def sized(self):
        engine = LocalEngine(Catalog("sized"))
        for name, count in (("a", 10), ("b", 1000)):
            engine.execute(f"CREATE TABLE {name} (id INTEGER, v INTEGER)")
            for i in range(count):
                engine.execute(f"INSERT INTO {name} VALUES ({i}, {i % 7})")
        return engine

    def test_uncorrelated_subquery_counted_once(self, sized):
        sized.execute("SELECT id FROM a WHERE v IN (SELECT v FROM b)")
        # 10 outer rows; the cached subquery scans b once.
        assert sized.last_report.rows_scanned == 10 + 1000

    def test_correlated_subquery_counted_per_outer_row(self, sized):
        sized.execute(
            "SELECT id FROM a WHERE EXISTS (SELECT 1 FROM b WHERE b.v = a.v)"
        )
        assert sized.last_report.rows_scanned == 10 + 10 * 1000

    def test_nested_subqueries_counted(self, sized):
        sized.execute(
            "SELECT id FROM a WHERE v IN "
            "(SELECT v FROM b WHERE id IN (SELECT id FROM a))"
        )
        assert sized.last_report.rows_scanned == 10 + 1000 + 10


class TestPlanner:
    def test_pk_lookup_uses_index(self, engine):
        plan = engine.explain("SELECT ename FROM emp WHERE empno = 7839")
        assert "IndexScan" in plan

    def test_range_uses_ordered_index(self, engine):
        engine.execute("CREATE INDEX sal_idx ON emp (sal)")
        plan = engine.explain("SELECT ename FROM emp WHERE sal > 2000")
        assert "IndexScan" in plan

    def test_equijoin_uses_hash_join(self, engine):
        plan = engine.explain(
            "SELECT * FROM emp e JOIN dept d ON e.deptno = d.deptno"
        )
        assert "HashJoin" in plan

    def test_non_equi_join_uses_nested_loop(self, engine):
        plan = engine.explain(
            "SELECT * FROM emp e JOIN dept d ON e.deptno > d.deptno"
        )
        assert "NestedLoopJoin" in plan

    def test_filter_pushed_below_join(self, engine):
        plan = engine.explain(
            "SELECT * FROM emp e, dept d "
            "WHERE e.deptno = d.deptno AND d.dname = 'SALES'"
        )
        # the dname filter must appear under the join, not above it
        join_line = plan.index("HashJoin")
        filter_line = plan.index("Filter")
        assert filter_line > join_line

    def test_hash_join_builds_on_smaller_input(self, engine):
        engine.execute("CREATE TABLE tiny (deptno INTEGER PRIMARY KEY)")
        engine.execute("INSERT INTO tiny VALUES (10)")
        plan = engine.explain(
            "SELECT * FROM tiny t JOIN emp e ON t.deptno = e.deptno"
        )
        assert "build=left" in plan
        plan = engine.explain(
            "SELECT * FROM emp e JOIN tiny t ON t.deptno = e.deptno"
        )
        assert "build=right" in plan

    def test_build_side_choice_preserves_answers(self, engine):
        engine.execute("CREATE TABLE tiny (deptno INTEGER PRIMARY KEY)")
        engine.execute("INSERT INTO tiny VALUES (10), (30)")
        one = engine.execute(
            "SELECT e.ename FROM tiny t JOIN emp e ON t.deptno = e.deptno "
            "ORDER BY e.ename"
        ).rows
        two = engine.execute(
            "SELECT e.ename FROM emp e JOIN tiny t ON t.deptno = e.deptno "
            "ORDER BY e.ename"
        ).rows
        assert one == two
        assert len(one) == 9  # depts 10 and 30

    def test_parameter_binding(self, engine):
        result = engine.execute(
            "SELECT ename FROM emp WHERE deptno = ? AND sal > ?", [20, 2900]
        )
        assert sorted(r[0] for r in result.rows) == ["FORD", "JONES", "SCOTT"]


#: The shape a gateway ships for an export: plain renamed columns over a
#: local table, with the export's own row predicate.
VIEW = (
    "(SELECT emp.empno AS id, emp.ename AS name, emp.deptno AS dno "
    "FROM emp WHERE emp.deptno = 10) AS e"
)


class TestViewPushdown:
    def test_renamed_column_reaches_the_pk_index(self, engine):
        sql = f"SELECT name FROM {VIEW} WHERE id = 7839"
        plan = engine.explain(sql)
        assert "IndexScan(emp AS emp USING __pk_emp = (7839,))" in plan
        assert "Filter(e.id" not in plan
        assert rows(engine, sql) == [("KING",)]
        assert engine.last_report.rows_scanned == 1

    def test_view_predicate_is_anded_not_replaced(self, engine):
        # SMITH (7369) is in dept 20: the view's own WHERE must still drop it.
        assert rows(engine, f"SELECT name FROM {VIEW} WHERE id = 7369") == []
        assert "Filter(emp.deptno = 10)" in engine.explain(
            f"SELECT name FROM {VIEW} WHERE id = 7369"
        )
        assert sorted(rows(engine, f"SELECT name FROM {VIEW} WHERE id > 0")) == [
            ("CLARK",), ("KING",), ("MILLER",),
        ]

    def test_null_supplying_side_of_left_join_not_pushed(self, engine):
        sql = (
            "SELECT d.dname, e.name FROM dept d "
            f"LEFT JOIN {VIEW} ON d.deptno = e.dno WHERE e.id = 7839"
        )
        # Pushed into e, the filter would pad every other department with
        # NULLs instead of removing it.
        assert rows(engine, sql) == [("ACCOUNTING", "KING")]
        plan = engine.explain(sql)
        assert "Filter(e.id = 7839)" in plan
        assert "SeqScan(emp AS emp)" in plan

    def test_preserved_side_of_left_join_is_pushed(self, engine):
        sql = (
            f"SELECT e.name, d.dname FROM {VIEW} "
            "LEFT JOIN dept d ON e.dno = d.deptno WHERE e.id = 7782"
        )
        assert rows(engine, sql) == [("CLARK", "ACCOUNTING")]
        assert "USING __pk_emp = (7782,)" in engine.explain(sql)

    def test_correlated_and_subquery_conjuncts_stay_outside(self, engine):
        from repro.engine.expressions import OutputColumn, Scope
        from repro.sql import parse_query

        query = parse_query(
            f"SELECT name FROM {VIEW} WHERE id = 7839 AND e.dno = d.deptno "
            "AND e.id IN (SELECT mgr FROM emp)"
        )
        outer = Scope([OutputColumn("deptno", "d")])
        plan = engine.planner.plan_query(query, outer).explain()
        assert "USING __pk_emp = (7839,)" in plan
        above_view = plan[: plan.index("Rename(e)")]
        assert "e.dno = d.deptno" in above_view
        assert "IN (SELECT" in above_view

    def test_correlated_view_query_answers(self, engine):
        sql = (
            "SELECT d.dname FROM dept d WHERE EXISTS (SELECT 1 FROM "
            f"{VIEW} WHERE e.dno = d.deptno AND e.id = 7934)"
        )
        assert rows(engine, sql) == [("ACCOUNTING",)]

    @pytest.mark.parametrize(
        "view",
        [
            "(SELECT DISTINCT emp.empno AS id FROM emp) AS e",
            "(SELECT emp.empno AS id FROM emp GROUP BY emp.empno) AS e",
            "(SELECT emp.empno AS id FROM emp ORDER BY emp.sal LIMIT 20) AS e",
            "(SELECT emp.empno + 0 AS id FROM emp) AS e",
        ],
    )
    def test_non_projection_views_are_not_pushed_into(self, engine, view):
        sql = f"SELECT id FROM {view} WHERE id = 7839"
        plan = engine.explain(sql)
        assert "Filter(id = 7839)" in plan
        assert "IndexScan" not in plan
        assert rows(engine, sql) == [(7839,)]

    def test_limit_view_keeps_its_row_choice(self, engine):
        # Pushing into a LIMIT view would pick the first match instead of
        # filtering the view's first row.
        sql = (
            "SELECT id FROM (SELECT emp.empno AS id FROM emp "
            "ORDER BY emp.empno LIMIT 1) AS e WHERE id = 7839"
        )
        assert rows(engine, sql) == []

    def test_equality_probe_wins_over_range_scan(self, engine):
        engine.execute("CREATE INDEX sal_idx ON emp (sal)")
        sql = (
            "SELECT name FROM (SELECT emp.empno AS id, emp.ename AS name "
            "FROM emp WHERE emp.sal > 1000) AS e WHERE id = 7839"
        )
        assert "USING __pk_emp = (7839,)" in engine.explain(sql)
        assert rows(engine, sql) == [("KING",)]
        assert engine.last_report.rows_scanned == 1


class TestIndexProbeLiteralTypes:
    """An index looks keys up exactly while SQL comparison coerces, so a
    literal of another type than the column's stays in the filter."""

    @pytest.mark.parametrize(
        "column, stored, where",
        [
            ("k INTEGER PRIMARY KEY", 57, "k = '57'"),
            ("k VARCHAR(10) PRIMARY KEY", "57", "k = 57"),
            ("k DATE PRIMARY KEY", datetime.date(2020, 1, 2), "k = '2020-01-02'"),
            ("k DECIMAL PRIMARY KEY", Decimal("1.1"), "k = 1.1"),
            ("k INTEGER PRIMARY KEY", 1, "k = TRUE"),
            ("k INTEGER PRIMARY KEY", 57, "k >= '57'"),
        ],
    )
    @pytest.mark.parametrize(
        "source", ["t", "(SELECT t.k AS k, t.v AS v FROM t) AS x"]
    )
    def test_mismatched_literal_is_filtered(self, column, stored, where, source):
        eng = LocalEngine(Catalog("types"))
        eng.execute(f"CREATE TABLE t ({column}, v INTEGER)")
        eng.execute("INSERT INTO t VALUES (?, 1)", [stored])
        sql = f"SELECT v FROM {source} WHERE {where}"
        assert "IndexScan" not in eng.explain(sql)
        assert rows(eng, sql) == [(1,)]

    @pytest.mark.parametrize("where", ["empno = 7839", "empno = 7839.0"])
    def test_same_family_literal_is_probed(self, engine, where):
        sql = f"SELECT ename FROM emp WHERE {where}"
        assert "IndexScan" in engine.explain(sql)
        assert rows(engine, sql) == [("KING",)]
