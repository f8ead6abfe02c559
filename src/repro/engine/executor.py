"""Statement execution for one component database.

:class:`LocalEngine` ties the parser, planner and operators together behind a
simple ``execute(sql | Statement)`` API returning :class:`ResultSet` for
queries and affected-row counts for DML.

Mutations are routed through a :class:`Mutator` so the transaction layer
(:mod:`repro.concurrency`) can interpose locking and undo logging without the
engine knowing about it — exactly the autonomy boundary MYRIAD relied on in
its component DBMSs.
"""

from __future__ import annotations

import datetime
import threading
from collections.abc import Callable, Mapping
from dataclasses import dataclass

from repro.errors import CatalogError, ExecutionError
from repro.engine import operators as ops
from repro.engine.expressions import (
    DEFAULT_NOW,
    EvalEnv,
    ExpressionEvaluator,
    OutputColumn,
    Scope,
)
from repro.engine.planner import LocalPlanner, _RecordingScope, prefers_batch
from repro.sql import ast, parse_statement
from repro.storage.catalog import Catalog
from repro.storage.fragment import Fragment
from repro.storage.schema import Column, Row, TableSchema
from repro.storage.table import Table
from repro.storage.types import DataType


class ResultSet:
    """Query result: column names plus rows.

    Held as rows, or as the columnar :class:`Fragment` a batch plan
    produces; either form is derived from the other on first use.
    """

    def __init__(
        self,
        columns: list[str],
        rows: list[tuple] | None = None,
        fragment: Fragment | None = None,
    ):
        self.columns = columns
        self._rows = rows
        self._fragment = fragment

    @classmethod
    def of(cls, fragment: Fragment) -> "ResultSet":
        """A result held as ``fragment``."""
        return cls(list(fragment.names), fragment=fragment)

    @property
    def rows(self) -> list[tuple]:
        if self._rows is None:
            self._rows = self._fragment.rows()
        return self._rows

    @property
    def fragment(self) -> Fragment:
        """The result a column at a time."""
        if self._fragment is None:
            self._fragment = Fragment.from_rows(self.columns, self._rows)
        return self._fragment

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self.columns == other.columns and self.rows == other.rows

    def __repr__(self) -> str:
        return f"ResultSet(columns={self.columns!r}, rows={self.rows!r})"

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        if self._rows is None:
            return self._fragment.length
        return len(self._rows)

    def to_dicts(self) -> list[dict[str, object]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self) -> object:
        """The single value of a 1x1 result."""
        if len(self) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"expected 1x1 result, got {len(self)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def column(self, name: str) -> list[object]:
        if self._rows is None:
            return self._fragment.column(name)
        try:
            position = [c.lower() for c in self.columns].index(name.lower())
        except ValueError:
            raise ExecutionError(f"no column {name!r} in result") from None
        return [row[position] for row in self.rows]


class Mutator:
    """Mutation interface between the engine and the storage/txn layers."""

    def insert(self, table: Table, row: Row) -> int:
        return table.insert(row)

    def delete(self, table: Table, rid: int) -> Row:
        return table.delete(rid)

    def update(self, table: Table, rid: int, new_row: Row) -> tuple[Row, Row]:
        return table.update(rid, new_row)

    def read_lock(self, table: Table) -> None:
        """Hook: acquire a shared lock before scanning (no-op by default)."""

    def write_lock(self, table: Table) -> None:
        """Hook: acquire an exclusive lock before mutating (no-op)."""


@dataclass
class ExecutionReport:
    """Work accounting for one statement (used by cost experiments)."""

    rows_scanned: int = 0
    rows_returned: int = 0
    #: How the statement ran: ``"batch"`` (columnar) or ``"row"``.
    strategy: str = "row"


class LocalEngine:
    """Executes SQL statements against one catalog."""

    def __init__(
        self,
        catalog: Catalog,
        functions: dict[str, Callable] | None = None,
        now: Callable[[], datetime.datetime] | None = None,
        mutator: Mutator | None = None,
    ):
        self.catalog = catalog
        self.planner = LocalPlanner(catalog)
        self.functions = {k.upper(): v for k, v in (functions or {}).items()}
        self._now = now or (lambda: DEFAULT_NOW)
        self.mutator = mutator or Mutator()
        self._report_local = threading.local()

    @property
    def last_report(self) -> ExecutionReport:
        """Work accounting of the last statement *this thread* executed.

        Thread-local so concurrent server sessions can't read each
        other's row counts (the gateway charges simulated compute from
        it immediately after executing).
        """
        report = getattr(self._report_local, "report", None)
        return report if report is not None else ExecutionReport()

    @last_report.setter
    def last_report(self, report: ExecutionReport) -> None:
        self._report_local.report = report

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def execute(
        self,
        statement: str | ast.Statement,
        params: list[object] | None = None,
        mutator: Mutator | None = None,
        snapshot=None,
    ) -> ResultSet | int:
        """Run one statement.  Queries return ResultSet; DML returns counts.

        With ``snapshot`` (a :class:`repro.concurrency.Snapshot`) the
        statement must be a query: it executes against the snapshot's read
        view without acquiring any table locks.
        """
        if isinstance(statement, str):
            statement = parse_statement(statement)
        if params:
            statement = _bind_parameters(statement, params)
        mutator = mutator or self.mutator

        if isinstance(statement, (ast.Select, ast.SetOperation)):
            return self.execute_query(
                statement, mutator=mutator, snapshot=snapshot
            )
        if snapshot is not None:
            raise ExecutionError(
                "only queries may execute against a read-only snapshot"
            )
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement, mutator)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement, mutator)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement, mutator)
        if isinstance(statement, ast.CreateTable):
            self._execute_create_table(statement)
            return 0
        if isinstance(statement, ast.DropTable):
            self.catalog.drop_table(statement.name, statement.if_exists)
            return 0
        if isinstance(statement, ast.CreateIndex):
            table = self.catalog.get_table(statement.table)
            table.create_index(
                statement.name, statement.columns, statement.unique
            )
            return 0
        if isinstance(
            statement,
            (ast.BeginTransaction, ast.CommitTransaction, ast.RollbackTransaction),
        ):
            raise ExecutionError(
                "transaction control is handled by the DBMS session layer"
            )
        raise ExecutionError(f"unsupported statement {type(statement).__name__}")

    def execute_query(
        self,
        query: ast.Query,
        mutator: Mutator | None = None,
        outer: Scope | None = None,
        outer_rows: tuple[tuple, ...] = (),
        snapshot=None,
        fragments: Mapping[str, Fragment] | None = None,
    ) -> ResultSet:
        """Run one query.  ``fragments`` (lower-cased name → fragment) are
        extra relations the query reads in place, ahead of the catalog."""
        mutator = mutator or self.mutator
        if snapshot is None:
            self._lock_query_tables(query, mutator)
        planner = LocalPlanner(self.catalog, fragments) if fragments else self.planner
        plan = planner.plan_query(query, outer)
        env = self._make_env(mutator, snapshot, planner)
        ctx = ops.ExecContext(
            env=env, outer_rows=outer_rows, snapshot=snapshot
        )
        result, strategy = _run_plan(plan, ctx)
        self.last_report = ExecutionReport(
            ctx.rows_scanned + env.rows_scanned, len(result), strategy
        )
        return result

    def explain(self, query: str | ast.Query) -> str:
        """The physical plan as a readable tree."""
        if isinstance(query, str):
            parsed = parse_statement(query)
            if not isinstance(parsed, (ast.Select, ast.SetOperation)):
                raise ExecutionError("EXPLAIN supports only queries")
            query = parsed
        return self.planner.plan_query(query).explain()

    # ------------------------------------------------------------------
    # Environment / subqueries
    # ------------------------------------------------------------------

    def _make_env(
        self, mutator: Mutator, snapshot=None, planner: LocalPlanner | None = None
    ) -> EvalEnv:
        planner = planner or self.planner
        env = EvalEnv(functions=dict(self.functions), now=self._now())
        cache: dict[int, list[tuple]] = {}

        def run_subquery(
            query: ast.Query, scope: Scope, outer_rows: tuple[tuple, ...]
        ) -> list[tuple]:
            if snapshot is None:
                self._lock_query_tables(query, mutator)
            recorder = _RecordingScope(scope)
            plan = planner.plan_query(query, recorder)
            key = id(query)
            # Plan once per call; cache results only for uncorrelated
            # subqueries (no outer resolution happened while planning and
            # none can happen at runtime because the plan never consulted
            # the recorder).
            if not recorder.consulted and key in cache:
                return cache[key]
            ctx = ops.ExecContext(
                env=env, outer_rows=outer_rows, snapshot=snapshot
            )
            rows = _run_plan(plan, ctx)[0].rows
            env.rows_scanned += ctx.rows_scanned
            if not recorder.consulted:
                cache[key] = rows
            return rows

        env.subquery_executor = run_subquery
        return env

    def _lock_query_tables(self, query: ast.Query, mutator: Mutator) -> None:
        for name in _query_table_names(query):
            if self.catalog.has_table(name):
                mutator.read_lock(self.catalog.get_table(name))

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def _execute_insert(self, statement: ast.Insert, mutator: Mutator) -> int:
        table = self.catalog.get_table(statement.table)
        mutator.write_lock(table)
        schema = table.schema

        rows_to_insert: list[Row] = []
        if statement.query is not None:
            result = self.execute_query(statement.query, mutator=mutator)
            source_rows = result.rows
            columns = statement.columns or schema.column_names
            if source_rows and len(source_rows[0]) != len(columns):
                raise ExecutionError(
                    "INSERT ... SELECT column count mismatch"
                )
            for row in source_rows:
                mapping = dict(zip(columns, row))
                rows_to_insert.append(schema.row_from_mapping(mapping))
        else:
            evaluator = ExpressionEvaluator(Scope([]), self._make_env(mutator))
            columns = statement.columns or schema.column_names
            for value_exprs in statement.rows:
                if len(value_exprs) != len(columns):
                    raise ExecutionError(
                        f"INSERT expects {len(columns)} values, "
                        f"got {len(value_exprs)}"
                    )
                values = [evaluator.eval(e, ()) for e in value_exprs]
                rows_to_insert.append(
                    schema.row_from_mapping(dict(zip(columns, values)))
                )

        for row in rows_to_insert:
            mutator.insert(table, row)
        self.catalog.invalidate_stats(table.name)
        return len(rows_to_insert)

    def _execute_update(self, statement: ast.Update, mutator: Mutator) -> int:
        table = self.catalog.get_table(statement.table)
        mutator.write_lock(table)
        schema = table.schema
        binding = statement.alias or statement.table
        scope = Scope(
            [OutputColumn(c.name, binding) for c in schema.columns]
        )
        evaluator = ExpressionEvaluator(scope, self._make_env(mutator))

        assignments: list[tuple[int, ast.Expression]] = []
        for column, expression in statement.assignments:
            assignments.append((schema.column_index(column), expression))

        matched: list[tuple[int, Row]] = []
        for rid, row in table.scan():
            if statement.where is not None:
                from repro.engine.expressions import as_bool

                if as_bool(evaluator.eval(statement.where, row)) is not True:
                    continue
            matched.append((rid, row))

        for rid, row in matched:
            new_values = list(row)
            for position, expression in assignments:
                new_values[position] = evaluator.eval(expression, row)
            mutator.update(table, rid, tuple(new_values))
        self.catalog.invalidate_stats(table.name)
        return len(matched)

    def _execute_delete(self, statement: ast.Delete, mutator: Mutator) -> int:
        table = self.catalog.get_table(statement.table)
        mutator.write_lock(table)
        binding = statement.alias or statement.table
        scope = Scope(
            [OutputColumn(c.name, binding) for c in table.schema.columns]
        )
        evaluator = ExpressionEvaluator(scope, self._make_env(mutator))

        matched: list[int] = []
        for rid, row in table.scan():
            if statement.where is not None:
                from repro.engine.expressions import as_bool

                if as_bool(evaluator.eval(statement.where, row)) is not True:
                    continue
            matched.append(rid)
        for rid in matched:
            mutator.delete(table, rid)
        self.catalog.invalidate_stats(table.name)
        return len(matched)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def _execute_create_table(self, statement: ast.CreateTable) -> None:
        columns: list[Column] = []
        primary_key = list(statement.primary_key)
        evaluator = ExpressionEvaluator(Scope([]), EvalEnv())
        for definition in statement.columns:
            datatype = DataType.from_name(
                definition.type_name, definition.type_params
            )
            default = None
            if definition.default is not None:
                default = evaluator.eval(definition.default, ())
            columns.append(
                Column(
                    definition.name,
                    datatype,
                    nullable=not (definition.not_null or definition.primary_key),
                    default=default,
                )
            )
            if definition.primary_key:
                primary_key.append(definition.name)
        if len(primary_key) != len(set(c.lower() for c in primary_key)):
            raise CatalogError("duplicate PRIMARY KEY specification")
        schema = TableSchema(statement.name, columns, primary_key)
        table = self.catalog.create_table(schema, statement.if_not_exists)
        for definition in statement.columns:
            if definition.unique and not definition.primary_key:
                table.create_index(
                    f"__uq_{statement.name}_{definition.name}",
                    [definition.name],
                    unique=True,
                )


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _run_plan(
    plan: ops.Operator, ctx: ops.ExecContext
) -> tuple[ResultSet, str]:
    """Execute a planned query on the strategy the planner's size rule
    picks (:func:`~repro.engine.planner.prefers_batch`); returns the result
    and ``"batch"`` or ``"row"``.  Both give identical rows in identical
    order and identical ``rows_scanned``; a batch result stays columnar."""
    names = [column.name for column in plan.schema]
    if prefers_batch(plan):
        from repro.engine.columnar import run_batch

        result = run_batch(plan, ctx)
        if isinstance(result, Fragment):
            return ResultSet.of(result), "batch"
        return ResultSet(names, result), "batch"
    return ResultSet(names, list(plan.rows(ctx))), "row"


def _bind_parameters(
    statement: ast.Statement, params: list[object]
) -> ast.Statement:
    """Replace ``?`` parameters with literal values (whole-statement walk)."""

    def replace(expr: ast.Expression) -> ast.Expression:
        if isinstance(expr, ast.Parameter):
            if expr.index >= len(params):
                raise ExecutionError(
                    f"parameter {expr.index + 1} not supplied"
                )
            return ast.Literal(params[expr.index])
        return expr

    return _transform_statement_expressions(statement, replace)


def _transform_statement_expressions(statement, fn):
    """Apply ``fn`` to every expression in a statement, recursively."""
    if isinstance(statement, ast.Select):
        statement.items = [
            ast.SelectItem(
                ast.transform_expression(i.expression, fn), i.alias
            )
            for i in statement.items
        ]
        if statement.where is not None:
            statement.where = ast.transform_expression(statement.where, fn)
        statement.group_by = [
            ast.transform_expression(g, fn) for g in statement.group_by
        ]
        if statement.having is not None:
            statement.having = ast.transform_expression(statement.having, fn)
        statement.order_by = [
            ast.OrderItem(ast.transform_expression(o.expression, fn), o.ascending)
            for o in statement.order_by
        ]
        for ref in statement.from_clause:
            _transform_table_ref(ref, fn)
    elif isinstance(statement, ast.SetOperation):
        _transform_statement_expressions(statement.left, fn)
        _transform_statement_expressions(statement.right, fn)
    elif isinstance(statement, ast.Insert):
        statement.rows = [
            [ast.transform_expression(v, fn) for v in row]
            for row in statement.rows
        ]
        if statement.query is not None:
            _transform_statement_expressions(statement.query, fn)
    elif isinstance(statement, ast.Update):
        statement.assignments = [
            (c, ast.transform_expression(v, fn)) for c, v in statement.assignments
        ]
        if statement.where is not None:
            statement.where = ast.transform_expression(statement.where, fn)
    elif isinstance(statement, ast.Delete):
        if statement.where is not None:
            statement.where = ast.transform_expression(statement.where, fn)
    return statement


def _transform_table_ref(ref: ast.TableRef, fn) -> None:
    if isinstance(ref, ast.SubqueryRef):
        _transform_statement_expressions(ref.query, fn)
    elif isinstance(ref, ast.Join):
        _transform_table_ref(ref.left, fn)
        _transform_table_ref(ref.right, fn)
        if ref.condition is not None:
            ref.condition = ast.transform_expression(ref.condition, fn)


def _query_table_names(query: ast.Query) -> set[str]:
    """All base-table names mentioned anywhere in a query."""
    names: set[str] = set()

    def visit_query(q: ast.Query) -> None:
        if isinstance(q, ast.SetOperation):
            visit_query(q.left)
            visit_query(q.right)
            return
        for ref in q.from_clause:
            visit_ref(ref)
        for expr in _query_expressions(q):
            for node in ast.walk_expressions(expr):
                if isinstance(node, (ast.InSubquery, ast.ScalarSubquery)):
                    visit_query(node.query)
                elif isinstance(node, ast.Exists):
                    visit_query(node.query)

    def visit_ref(ref: ast.TableRef) -> None:
        if isinstance(ref, ast.TableName):
            names.add(ref.name)
        elif isinstance(ref, ast.SubqueryRef):
            visit_query(ref.query)
        elif isinstance(ref, ast.Join):
            visit_ref(ref.left)
            visit_ref(ref.right)

    visit_query(query)
    return names


def _query_expressions(select: ast.Select):
    for item in select.items:
        yield item.expression
    if select.where is not None:
        yield select.where
    yield from select.group_by
    if select.having is not None:
        yield select.having
    for order in select.order_by:
        yield order.expression
