"""Global query processing tests: localization, optimizers, execution."""

import pytest

from repro.myriad import MyriadSystem
from repro.schema import union_merge


@pytest.fixture
def system():
    sys_ = MyriadSystem()
    a = sys_.add_postgres("a")
    b = sys_.add_oracle("b")
    c = sys_.add_postgres("c")
    a.dbms.execute(
        "CREATE TABLE emp_a (id INTEGER PRIMARY KEY, name VARCHAR(20), "
        "sal FLOAT, dept INTEGER)"
    )
    b.dbms.execute(
        "CREATE TABLE emp_b (id INTEGER PRIMARY KEY, name VARCHAR2(20), "
        "sal NUMBER, dept INTEGER)"
    )
    c.dbms.execute(
        "CREATE TABLE dept_c (dno INTEGER PRIMARY KEY, dname VARCHAR(20))"
    )
    for i in range(20):
        a.dbms.execute(
            f"INSERT INTO emp_a VALUES ({i}, 'A{i}', {1000 + i * 100}, {i % 5})"
        )
        b.dbms.execute(
            f"INSERT INTO emp_b VALUES ({100 + i}, 'B{i}', {1500 + i * 100}, {i % 5})"
        )
    for d in range(5):
        c.dbms.execute(f"INSERT INTO dept_c VALUES ({d}, 'DEPT{d}')")
    a.export_table("emp_a", "emp", {"id": "id", "name": "name", "sal": "sal", "dept": "dept"})
    b.export_table("emp_b", "emp", {"id": "id", "name": "name", "sal": "sal", "dept": "dept"})
    c.export_table("dept_c", "dept")
    fed = sys_.create_federation("f")
    fed.add_relation(
        union_merge(
            "all_emp",
            [("a", "emp", ["id", "name", "sal", "dept"]),
             ("b", "emp", ["id", "name", "sal", "dept"])],
            source_tag_column="src",
        )
    )
    fed.define_relation("depts", "SELECT dno, dname FROM c.dept")
    return sys_


ANSWER_QUERIES = [
    "SELECT COUNT(*) FROM all_emp",
    "SELECT name FROM all_emp WHERE sal > 3000 ORDER BY name",
    "SELECT src, COUNT(*), AVG(sal) FROM all_emp GROUP BY src ORDER BY src",
    "SELECT e.name, d.dname FROM all_emp e JOIN depts d ON e.dept = d.dno "
    "WHERE d.dname = 'DEPT3' ORDER BY e.name",
    "SELECT dept, MAX(sal) FROM all_emp GROUP BY dept HAVING COUNT(*) > 2 "
    "ORDER BY dept",
    "SELECT DISTINCT dept FROM all_emp ORDER BY dept",
    "SELECT name FROM all_emp WHERE dept IN "
    "(SELECT dno FROM depts WHERE dname LIKE 'DEPT1%') ORDER BY name",
    "SELECT name FROM all_emp WHERE sal > 2000 AND src = 'a' ORDER BY name",
    "SELECT e.src, d.dname, COUNT(*) AS n FROM all_emp e "
    "JOIN depts d ON e.dept = d.dno GROUP BY e.src, d.dname "
    "ORDER BY n DESC, d.dname, e.src LIMIT 5",
    "SELECT name FROM all_emp WHERE sal BETWEEN 2000 AND 2500 ORDER BY name",
]


def _norm_row(row):
    """Numeric-type-insensitive comparison key (int 3000 ≡ float 3000.0)."""
    return tuple(
        round(float(v), 9)
        if isinstance(v, (int, float)) and not isinstance(v, bool)
        else v
        for v in row
    )


class TestOptimizerEquivalence:
    """E1's core property: every optimizer returns identical answers."""

    @pytest.mark.parametrize("sql", ANSWER_QUERIES)
    def test_simple_vs_cost_vs_nosemijoin(self, system, sql):
        reference = system.query("f", sql, optimizer="simple")
        for optimizer in ("cost", "cost-nosemijoin", "cost-noaggpush"):
            result = system.query("f", sql, optimizer=optimizer)
            assert result.columns == reference.columns
            assert sorted(map(_norm_row, result.rows)) == sorted(
                map(_norm_row, reference.rows)
            ), f"{optimizer} differs on {sql}"


@pytest.fixture
def priced():
    """The same DECIMAL(10,2) prices at a postgres and an oracle site."""
    sys_ = MyriadSystem()
    for site, add in (("p", sys_.add_postgres), ("o", sys_.add_oracle)):
        gateway = add(site)
        gateway.dbms.execute(
            "CREATE TABLE item (id INTEGER PRIMARY KEY, price DECIMAL(10,2))"
        )
        gateway.dbms.execute("INSERT INTO item VALUES (1, 1500.00)")
        gateway.dbms.execute("INSERT INTO item VALUES (2, 2.50)")
        gateway.export_table("item", "item", ["id", "price"])
    fed = sys_.create_federation("f")
    fed.add_relation(
        union_merge(
            "items",
            [("p", "item", ["id", "price"]), ("o", "item", ["id", "price"])],
            source_tag_column="site",
        )
    )
    return sys_


class TestResultTypes:
    """A shipped aggregate's column is typed like the column it reads, so
    whether the optimizer pushes the aggregate does not change a value's
    Python type (MAX(price) used to be 1500 under one, 1500.0 under the
    other)."""

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT MAX(price) FROM items",
            "SELECT site, MAX(price) FROM items GROUP BY site ORDER BY site",
            "SELECT MIN(price), SUM(price), COUNT(price) FROM items",
        ],
    )
    def test_every_optimizer_returns_the_same_types(self, priced, sql):
        def typed(optimizer):
            rows = priced.query("f", sql, optimizer=optimizer).rows
            return [[(value, type(value)) for value in row] for row in rows]

        reference = typed("simple")
        assert reference and all(
            kind is not int
            for row in reference
            for value, kind in row
            if value in (1500, 2.5)
        )
        for optimizer in ("cost", "cost-noaggpush"):
            assert typed(optimizer) == reference, optimizer


class TestPushdown:
    def test_selection_pushdown_reduces_bytes(self, system):
        sql = "SELECT name FROM all_emp WHERE sal > 2900"
        simple = system.query("f", sql, optimizer="simple")
        cost = system.query("f", sql, optimizer="cost")
        assert cost.bytes_shipped < simple.bytes_shipped

    def test_projection_pruning_reduces_bytes(self, system):
        sql = "SELECT name FROM all_emp"
        simple = system.query("f", sql, optimizer="simple")
        cost = system.query("f", sql, optimizer="cost")
        assert cost.bytes_shipped < simple.bytes_shipped

    def test_pushed_predicate_visible_in_plan(self, system):
        plan = system.processor("f").plan(
            "SELECT name FROM all_emp WHERE sal > 2900", "cost"
        )
        assert any(fetch.predicate is not None for fetch in plan.fetches)

    def test_simple_plan_ships_everything(self, system):
        plan = system.processor("f").plan(
            "SELECT name FROM all_emp WHERE sal > 2900", "simple"
        )
        assert all(fetch.predicate is None for fetch in plan.fetches)
        assert all(len(fetch.columns) == 4 for fetch in plan.fetches)

    def test_plan_describes_itself(self, system):
        text = system.explain("f", "SELECT name FROM all_emp", "cost")
        assert "GlobalPlan[cost]" in text
        assert "fetch #" in text
        assert "residual:" in text


class TestExecutionAccounting:
    def test_trace_counts_messages(self, system):
        result = system.query("f", "SELECT COUNT(*) FROM all_emp")
        # two fetches: 2 requests + 2 replies
        assert result.trace.message_count == 4
        assert result.fetched_rows > 0
        assert result.elapsed_s > 0

    def test_parallel_fetches_cheaper_than_sum(self, system):
        result = system.query("f", "SELECT COUNT(*) FROM all_emp", "simple")
        total = sum(record.cost_s for record in result.trace.records)
        assert result.elapsed_s < total  # parallelism helped

    def test_result_helpers(self, system):
        result = system.query("f", "SELECT COUNT(*) FROM all_emp")
        assert result.scalar() == 40
        assert len(result) == 1
        assert list(result.to_dicts()[0].values()) == [40]

    def test_estimated_cost_close_to_measured(self, system):
        """The cost model and execution accounting share the same units."""
        processor = system.processor("f")
        plan = processor.plan("SELECT name, sal FROM all_emp", "cost")
        result = processor.executor.execute(plan)
        assert plan.estimated_cost_s == pytest.approx(
            result.elapsed_s, rel=0.5
        )


class TestHeterogeneousAnswers:
    def test_same_rows_from_both_dialects(self, system):
        """E6: identical data behind Oracle and Postgres dialects merge cleanly."""
        result = system.query(
            "f",
            "SELECT src, MIN(sal), MAX(sal) FROM all_emp GROUP BY src ORDER BY src",
        )
        (src_a, min_a, max_a), (src_b, min_b, max_b) = result.rows
        assert (src_a, min_a, max_a) == ("a", 1000.0, 2900.0)
        assert (src_b, min_b, max_b) == ("b", 1500.0, 3400.0)

    def test_global_dml_rejected_by_processor(self, system):
        from repro.errors import FederationError

        with pytest.raises(FederationError):
            system.query("f", "DELETE FROM all_emp")
