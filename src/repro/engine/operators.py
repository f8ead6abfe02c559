"""Volcano-style physical operators for the local execution engine.

Every operator exposes:

- ``schema``: list of :class:`~repro.engine.expressions.OutputColumn`
- ``rows(ctx)``: iterator of result tuples

``ctx`` is an :class:`ExecContext` carrying the expression-evaluation
environment, the stack of outer rows (for correlated subqueries), and row
counters used by the benchmarks to account work.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from decimal import Decimal

from repro.errors import ExecutionError
from repro.engine.expressions import (
    EvalEnv,
    ExpressionEvaluator,
    OutputColumn,
    Scope,
    as_bool,
    compare_values,
)
from repro.sql import ast
from repro.storage.fragment import Fragment
from repro.storage.table import Table
from repro.storage.types import null_first_key


@dataclass
class ExecContext:
    """Runtime context threaded through every operator."""

    env: EvalEnv = field(default_factory=EvalEnv)
    outer_rows: tuple[tuple, ...] = ()
    rows_scanned: int = 0
    #: When set (a :class:`repro.concurrency.Snapshot`), scans read the
    #: snapshot's visible versions instead of the live heap — lock-free.
    snapshot: object | None = None


class Operator:
    """Base class; subclasses set ``schema`` and implement ``rows``."""

    schema: list[OutputColumn]

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        raise NotImplementedError

    def scope(self, outer: Scope | None = None) -> Scope:
        return Scope(self.schema, outer)

    def explain(self, depth: int = 0) -> str:
        """Readable plan tree, used by EXPLAIN in the tools layer."""
        lines = [("  " * depth) + self._describe()]
        for child in self._children():
            lines.append(child.explain(depth + 1))
        return "\n".join(lines)

    def _describe(self) -> str:
        return type(self).__name__

    def _children(self) -> list["Operator"]:
        return []


# ---------------------------------------------------------------------------
# Leaf operators
# ---------------------------------------------------------------------------


class SeqScan(Operator):
    """Full scan of a stored table under a binding name."""

    def __init__(self, table: Table, binding: str | None = None):
        self.table = table
        self.binding = binding or table.name
        self.schema = [
            OutputColumn(column.name, self.binding)
            for column in table.schema.columns
        ]

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        if ctx.snapshot is not None:
            for row in ctx.snapshot.visible_rows(self.table):
                ctx.rows_scanned += 1
                yield row
            return
        for _, row in self.table.scan():
            ctx.rows_scanned += 1
            yield row

    def _describe(self) -> str:
        return f"SeqScan({self.table.name} AS {self.binding})"


class IndexScan(Operator):
    """Point/range scan through an ordered or hash index.

    ``equal_key`` takes precedence over the range bounds.  Bound values are
    constants (the planner only plants an IndexScan for constant predicates).
    """

    def __init__(
        self,
        table: Table,
        index_name: str,
        binding: str | None = None,
        equal_key: tuple | None = None,
        low: tuple | None = None,
        high: tuple | None = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ):
        self.table = table
        self.index = table.indexes[index_name]
        self.binding = binding or table.name
        self.equal_key = equal_key
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.schema = [
            OutputColumn(column.name, self.binding)
            for column in table.schema.columns
        ]

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        if ctx.snapshot is not None:
            yield from self._snapshot_rows(ctx, ctx.snapshot)
            return
        # Postings are kept sorted at insert time, so both paths read RIDs
        # straight through without a per-lookup sort.
        if self.equal_key is not None:
            for rid in self.index.sorted_rids(self.equal_key):
                ctx.rows_scanned += 1
                yield self.table.rows[rid]
            return
        for _, rids in self._range_postings():
            for rid in rids:
                ctx.rows_scanned += 1
                yield self.table.rows[rid]

    def _range_postings(self):
        from repro.storage.index import OrderedIndex

        if not isinstance(self.index, OrderedIndex):
            raise ExecutionError(
                f"index {self.index.name!r} does not support range scans"
            )
        return self.index.range_scan_sorted(
            self.low, self.high, self.low_inclusive, self.high_inclusive
        )

    def _snapshot_rows(
        self, ctx: ExecContext, snapshot
    ) -> Iterator[tuple]:
        """Index scan through a read view.

        The index reflects the *live* heap (latest committed plus any
        uncommitted writer), so RIDs whose state may postdate the snapshot
        — ``snapshot.changed_rids`` — are excluded from the index walk and
        re-checked one by one against their visible values.  The set is
        small (bounded by churn since the oldest active snapshot), so the
        scan keeps its index cost profile.  The walk runs under
        :meth:`Table.consistent_read`, so a writer arriving mid-walk sends
        it round again.
        """
        rows = self.table.consistent_read(
            lambda: self._visible_matches(snapshot)
        )
        for row in rows:
            ctx.rows_scanned += 1
            yield row

    def _visible_matches(self, snapshot) -> list[tuple]:
        changed = snapshot.changed_rids(self.table)
        if self.equal_key is not None:
            candidates = self.index.sorted_rids(self.equal_key)
        else:
            candidates = [
                rid for _, rids in self._range_postings() for rid in rids
            ]
        heap = self.table.rows
        rows = []
        for rid in candidates:
            if rid in changed:
                continue
            row = heap.get(rid)
            if row is not None:
                rows.append(row)
        if not changed:
            return rows
        positions = [
            self.table.schema.column_index(c) for c in self.index.columns
        ]
        for rid in sorted(changed):
            row = snapshot.visible_get(self.table, rid)
            if row is None:
                continue
            key = tuple(row[p] for p in positions)
            if self._key_matches(key):
                rows.append(row)
        return rows

    def _key_matches(self, key: tuple) -> bool:
        """Equality/range predicate on a recomputed key (mirrors the
        ordered index's prefix comparison semantics)."""
        from repro.storage.index import _key_has_null, sort_key

        if self.equal_key is not None:
            return key == self.equal_key
        if _key_has_null(key):
            return False
        sortable = sort_key(key)
        if self.low is not None:
            low = sort_key(self.low)
            prefix = sortable[: len(low)]
            if prefix < low or (not self.low_inclusive and prefix <= low):
                return False
        if self.high is not None:
            high = sort_key(self.high)
            prefix = sortable[: len(high)]
            if prefix > high or (not self.high_inclusive and prefix >= high):
                return False
        return True

    def _describe(self) -> str:
        if self.equal_key is not None:
            detail = f"= {self.equal_key!r}"
        else:
            detail = f"range {self.low!r}..{self.high!r}"
        return (
            f"IndexScan({self.table.name} AS {self.binding} "
            f"USING {self.index.name} {detail})"
        )


class FragmentScan(Operator):
    """Scan of a columnar :class:`~repro.storage.fragment.Fragment` in place.

    The federation site's leaf over a shipped fragment.  Without bounds it
    reads every row (zipped lazily from the columns); with ``equal_key`` or
    range bounds it reads the rows the fragment's key index selects, the
    way an :class:`IndexScan` over a unique ordered key would: one row per
    equal key, ranges in key order.
    """

    def __init__(
        self,
        fragment: Fragment,
        name: str,
        binding: str | None = None,
        equal_key: tuple | None = None,
        low: tuple | None = None,
        high: tuple | None = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ):
        self.fragment = fragment
        self.name = name
        self.binding = binding or name
        self.equal_key = equal_key
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.schema = [
            OutputColumn(column, self.binding) for column in fragment.names
        ]

    @property
    def probes(self) -> bool:
        """True when the key index selects the rows (no full scan)."""
        return not (
            self.equal_key is None and self.low is None and self.high is None
        )

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        fragment = self.fragment
        if not self.probes:
            for row in fragment.iter_rows():
                ctx.rows_scanned += 1
                yield row
            return
        if self.equal_key is not None:
            position = fragment.key_index().get(self.equal_key)
            positions = [] if position is None else [position]
        else:
            positions = fragment.key_range(
                self.low, self.high, self.low_inclusive, self.high_inclusive
            )
        for position in positions:
            ctx.rows_scanned += 1
            yield fragment.row(position)

    def _describe(self) -> str:
        if self.equal_key is not None:
            detail = f" KEY = {self.equal_key!r}"
        elif self.probes:
            detail = f" KEY range {self.low!r}..{self.high!r}"
        else:
            detail = ""
        return f"FragmentScan({self.name} AS {self.binding}{detail})"


class ValuesScan(Operator):
    """Materialised constant rows (used for VALUES)."""

    def __init__(self, schema: list[OutputColumn], rows: list[tuple]):
        self.schema = list(schema)
        self._rows = rows

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        for row in self._rows:
            ctx.rows_scanned += 1
            yield row

    def _describe(self) -> str:
        return f"ValuesScan({len(self._rows)} rows)"


#: Operators that read a relation rather than another operator.
LEAVES = (SeqScan, IndexScan, FragmentScan, ValuesScan)


# ---------------------------------------------------------------------------
# Unary operators
# ---------------------------------------------------------------------------


class Filter(Operator):
    def __init__(
        self,
        child: Operator,
        predicate: ast.Expression,
        scope: Scope | None = None,
    ):
        self.child = child
        self.predicate = predicate
        self.schema = child.schema
        self._scope = scope or Scope(child.schema)

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        evaluator = ExpressionEvaluator(self._scope, ctx.env)
        for row in self.child.rows(ctx):
            if as_bool(evaluator.eval(self.predicate, row, ctx.outer_rows)) is True:
                yield row

    def _describe(self) -> str:
        from repro.sql.printer import expression_to_sql

        return f"Filter({expression_to_sql(self.predicate)})"

    def _children(self) -> list[Operator]:
        return [self.child]


class Project(Operator):
    def __init__(
        self,
        child: Operator,
        expressions: list[ast.Expression],
        names: list[str],
        scope: Scope | None = None,
    ):
        if len(expressions) != len(names):
            raise ExecutionError("projection names/expressions mismatch")
        self.child = child
        self.expressions = expressions
        self.schema = [OutputColumn(name) for name in names]
        self._scope = scope or Scope(child.schema)

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        evaluator = ExpressionEvaluator(self._scope, ctx.env)
        for row in self.child.rows(ctx):
            yield tuple(
                evaluator.eval(expression, row, ctx.outer_rows)
                for expression in self.expressions
            )

    def _describe(self) -> str:
        return f"Project({', '.join(c.name for c in self.schema)})"

    def _children(self) -> list[Operator]:
        return [self.child]


class Limit(Operator):
    def __init__(self, child: Operator, limit: int | None, offset: int | None):
        self.child = child
        self.limit = limit
        self.offset = offset or 0
        self.schema = child.schema

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        produced = 0
        skipped = 0
        for row in self.child.rows(ctx):
            if skipped < self.offset:
                skipped += 1
                continue
            if self.limit is not None and produced >= self.limit:
                return
            produced += 1
            yield row

    def _describe(self) -> str:
        return f"Limit({self.limit}, offset={self.offset})"

    def _children(self) -> list[Operator]:
        return [self.child]


class Sort(Operator):
    def __init__(
        self,
        child: Operator,
        keys: list[ast.Expression],
        ascending: list[bool],
        scope: Scope | None = None,
    ):
        self.child = child
        self.keys = keys
        self.ascending = ascending
        self.schema = child.schema
        self._scope = scope or Scope(child.schema)

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        evaluator = ExpressionEvaluator(self._scope, ctx.env)
        materialised = list(self.child.rows(ctx))

        def key_tuple(row: tuple) -> tuple:
            return tuple(
                null_first_key(evaluator.eval(key, row, ctx.outer_rows))
                for key in self.keys
            )

        decorated = [(key_tuple(row), position, row)
                     for position, row in enumerate(materialised)]
        # Stable multi-key sort with mixed directions: sort by each key from
        # least to most significant.
        for key_index in range(len(self.keys) - 1, -1, -1):
            reverse = not self.ascending[key_index]
            decorated.sort(key=lambda item: item[0][key_index], reverse=reverse)
        for _, _, row in decorated:
            yield row

    def _describe(self) -> str:
        return f"Sort({len(self.keys)} keys)"

    def _children(self) -> list[Operator]:
        return [self.child]


class Distinct(Operator):
    def __init__(self, child: Operator):
        self.child = child
        self.schema = child.schema

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        seen: set[tuple] = set()
        for row in self.child.rows(ctx):
            key = tuple(_group_key_value(v) for v in row)
            if key not in seen:
                seen.add(key)
                yield row

    def _children(self) -> list[Operator]:
        return [self.child]


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


def _null_row(schema: list[OutputColumn]) -> tuple:
    return (None,) * len(schema)


class NestedLoopJoin(Operator):
    """General join supporting arbitrary conditions and all join types."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        join_type: ast.JoinType = ast.JoinType.INNER,
        condition: ast.Expression | None = None,
        scope: Scope | None = None,
    ):
        self.left = left
        self.right = right
        self.join_type = join_type
        self.condition = condition
        self.schema = left.schema + right.schema
        self._scope = scope or Scope(self.schema)

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        evaluator = ExpressionEvaluator(self._scope, ctx.env)
        right_rows = list(self.right.rows(ctx))
        right_matched = [False] * len(right_rows)
        join_type = self.join_type

        for left_row in self.left.rows(ctx):
            left_matched = False
            for position, right_row in enumerate(right_rows):
                combined = left_row + right_row
                if self.condition is not None:
                    verdict = as_bool(
                        evaluator.eval(self.condition, combined, ctx.outer_rows)
                    )
                    if verdict is not True:
                        continue
                left_matched = True
                right_matched[position] = True
                yield combined
            if not left_matched and join_type in (
                ast.JoinType.LEFT,
                ast.JoinType.FULL,
            ):
                yield left_row + _null_row(self.right.schema)
        if join_type in (ast.JoinType.RIGHT, ast.JoinType.FULL):
            left_nulls = _null_row(self.left.schema)
            for position, right_row in enumerate(right_rows):
                if not right_matched[position]:
                    yield left_nulls + right_row

    def _describe(self) -> str:
        return f"NestedLoopJoin({self.join_type.name})"

    def _children(self) -> list[Operator]:
        return [self.left, self.right]


class HashJoin(Operator):
    """Equi-join: builds a hash table on the right input.

    ``left_keys``/``right_keys`` are expressions over the respective inputs.
    ``residual`` is an extra non-equi condition checked on each match.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: list[ast.Expression],
        right_keys: list[ast.Expression],
        join_type: ast.JoinType = ast.JoinType.INNER,
        residual: ast.Expression | None = None,
        scope: Scope | None = None,
        build_left: bool = False,
    ):
        if join_type is ast.JoinType.CROSS:
            raise ExecutionError("HashJoin cannot implement CROSS JOIN")
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.join_type = join_type
        self.residual = residual
        #: Build the hash table on the left input instead (INNER only);
        #: the output schema stays left ++ right either way.
        self.build_left = build_left and join_type is ast.JoinType.INNER
        self.schema = left.schema + right.schema
        self._scope = scope or Scope(self.schema)
        self._left_scope = Scope(left.schema)
        self._right_scope = Scope(right.schema)

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        left_eval = ExpressionEvaluator(self._left_scope, ctx.env)
        right_eval = ExpressionEvaluator(self._right_scope, ctx.env)
        combined_eval = ExpressionEvaluator(self._scope, ctx.env)

        if self.build_left:
            build_op, build_eval, build_keys = (
                self.left, left_eval, self.left_keys,
            )
            probe_op, probe_eval, probe_keys = (
                self.right, right_eval, self.right_keys,
            )
        else:
            build_op, build_eval, build_keys = (
                self.right, right_eval, self.right_keys,
            )
            probe_op, probe_eval, probe_keys = (
                self.left, left_eval, self.left_keys,
            )

        hash_table: dict[tuple, list[int]] = {}
        build_rows: list[tuple] = []
        for build_row in build_op.rows(ctx):
            key = tuple(
                build_eval.eval(k, build_row, ctx.outer_rows)
                for k in build_keys
            )
            build_rows.append(build_row)
            if any(value is None for value in key):
                continue  # NULL keys never join
            hash_table.setdefault(_hash_key(key), []).append(len(build_rows) - 1)

        build_matched = [False] * len(build_rows)

        for probe_row in probe_op.rows(ctx):
            key = tuple(
                probe_eval.eval(k, probe_row, ctx.outer_rows)
                for k in probe_keys
            )
            probe_matched = False
            if not any(value is None for value in key):
                for position in hash_table.get(_hash_key(key), ()):
                    if self.build_left:
                        combined = build_rows[position] + probe_row
                    else:
                        combined = probe_row + build_rows[position]
                    if self.residual is not None:
                        verdict = as_bool(
                            combined_eval.eval(
                                self.residual, combined, ctx.outer_rows
                            )
                        )
                        if verdict is not True:
                            continue
                    probe_matched = True
                    build_matched[position] = True
                    yield combined
            if not probe_matched and not self.build_left and self.join_type in (
                ast.JoinType.LEFT,
                ast.JoinType.FULL,
            ):
                yield probe_row + _null_row(self.right.schema)

        if not self.build_left and self.join_type in (
            ast.JoinType.RIGHT,
            ast.JoinType.FULL,
        ):
            left_nulls = _null_row(self.left.schema)
            for position, build_row in enumerate(build_rows):
                if not build_matched[position]:
                    yield left_nulls + build_row

    def _describe(self) -> str:
        side = "build=left" if self.build_left else "build=right"
        return (
            f"HashJoin({self.join_type.name}, {len(self.left_keys)} keys, "
            f"{side})"
        )

    def _children(self) -> list[Operator]:
        return [self.left, self.right]


def _hash_key(key: tuple) -> tuple:
    """Normalise numeric variants so 1, 1.0 and Decimal(1) hash together."""
    return tuple(_group_key_value(value) for value in key)


def _group_key_value(value: object) -> object:
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, Decimal):
        return ("n", float(value))
    if isinstance(value, (int, float)):
        return ("n", float(value))
    return value


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class _Accumulator:
    def add(self, value: object) -> None:
        raise NotImplementedError

    def result(self) -> object:
        raise NotImplementedError


class _CountStar(_Accumulator):
    def __init__(self):
        self.count = 0

    def add(self, value: object) -> None:
        self.count += 1

    def result(self) -> object:
        return self.count


class _Count(_Accumulator):
    def __init__(self, distinct: bool):
        self.count = 0
        self.distinct = distinct
        self.seen: set = set()

    def add(self, value: object) -> None:
        if value is None:
            return
        if self.distinct:
            key = _group_key_value(value)
            if key in self.seen:
                return
            self.seen.add(key)
        self.count += 1

    def result(self) -> object:
        return self.count


class _Sum(_Accumulator):
    def __init__(self, distinct: bool):
        self.total = None
        self.distinct = distinct
        self.seen: set = set()

    def add(self, value: object) -> None:
        if value is None:
            return
        if self.distinct:
            key = _group_key_value(value)
            if key in self.seen:
                return
            self.seen.add(key)
        self.total = value if self.total is None else self.total + value

    def result(self) -> object:
        return self.total


class _Avg(_Accumulator):
    def __init__(self, distinct: bool):
        self.total = None
        self.count = 0
        self.distinct = distinct
        self.seen: set = set()

    def add(self, value: object) -> None:
        if value is None:
            return
        if self.distinct:
            key = _group_key_value(value)
            if key in self.seen:
                return
            self.seen.add(key)
        self.total = value if self.total is None else self.total + value
        self.count += 1

    def result(self) -> object:
        if self.count == 0:
            return None
        return self.total / self.count


class _Min(_Accumulator):
    def __init__(self):
        self.best = None

    def add(self, value: object) -> None:
        if value is None:
            return
        if self.best is None or compare_values(value, self.best) < 0:
            self.best = value

    def result(self) -> object:
        return self.best


class _Max(_Accumulator):
    def __init__(self):
        self.best = None

    def add(self, value: object) -> None:
        if value is None:
            return
        if self.best is None or compare_values(value, self.best) > 0:
            self.best = value

    def result(self) -> object:
        return self.best


def _make_accumulator(call: ast.FunctionCall) -> _Accumulator:
    name = call.name.upper()
    if name == "COUNT":
        if call.args and isinstance(call.args[0], ast.Star):
            return _CountStar()
        return _Count(call.distinct)
    if name == "SUM":
        return _Sum(call.distinct)
    if name == "AVG":
        return _Avg(call.distinct)
    if name == "MIN":
        return _Min()
    if name == "MAX":
        return _Max()
    raise ExecutionError(f"unknown aggregate {name}")


class HashAggregate(Operator):
    """Grouping + aggregation.

    Output layout: group-by expressions first (one column each), then one
    column per aggregate call, in the order given.  The planner rewrites
    post-aggregation expressions (HAVING, projections, ORDER BY) to reference
    this layout.
    """

    def __init__(
        self,
        child: Operator,
        group_exprs: list[ast.Expression],
        aggregates: list[ast.FunctionCall],
        output_names: list[str] | None = None,
        scope: Scope | None = None,
    ):
        self.child = child
        self.group_exprs = group_exprs
        self.aggregates = aggregates
        names = output_names or (
            [f"g{i}" for i in range(len(group_exprs))]
            + [f"a{i}" for i in range(len(aggregates))]
        )
        self.schema = [OutputColumn(name) for name in names]
        self._scope = scope or Scope(child.schema)

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        evaluator = ExpressionEvaluator(self._scope, ctx.env)
        groups: dict[tuple, tuple[tuple, list[_Accumulator]]] = {}
        for row in self.child.rows(ctx):
            group_values = tuple(
                evaluator.eval(e, row, ctx.outer_rows) for e in self.group_exprs
            )
            key = tuple(_group_key_value(v) for v in group_values)
            entry = groups.get(key)
            if entry is None:
                entry = (
                    group_values,
                    [_make_accumulator(call) for call in self.aggregates],
                )
                groups[key] = entry
            _, accumulators = entry
            for call, accumulator in zip(self.aggregates, accumulators):
                if call.args and not isinstance(call.args[0], ast.Star):
                    value = evaluator.eval(call.args[0], row, ctx.outer_rows)
                else:
                    value = row  # COUNT(*): value unused
                accumulator.add(value)
        if not groups and not self.group_exprs:
            # Global aggregate over an empty input still yields one row.
            accumulators = [_make_accumulator(call) for call in self.aggregates]
            yield tuple(a.result() for a in accumulators)
            return
        for group_values, accumulators in groups.values():
            yield group_values + tuple(a.result() for a in accumulators)

    def _describe(self) -> str:
        return (
            f"HashAggregate({len(self.group_exprs)} group keys, "
            f"{len(self.aggregates)} aggregates)"
        )

    def _children(self) -> list[Operator]:
        return [self.child]


# ---------------------------------------------------------------------------
# Set operations
# ---------------------------------------------------------------------------


class SetOp(Operator):
    def __init__(self, kind: ast.SetOpKind, left: Operator, right: Operator):
        if len(left.schema) != len(right.schema):
            raise ExecutionError(
                f"{kind.value} inputs have different column counts"
            )
        self.kind = kind
        self.left = left
        self.right = right
        self.schema = [OutputColumn(c.name) for c in left.schema]

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        kind = self.kind
        if kind is ast.SetOpKind.UNION_ALL:
            yield from self.left.rows(ctx)
            yield from self.right.rows(ctx)
            return
        if kind is ast.SetOpKind.UNION:
            seen: set[tuple] = set()
            for row in self.left.rows(ctx):
                key = _hash_key(row)
                if key not in seen:
                    seen.add(key)
                    yield row
            for row in self.right.rows(ctx):
                key = _hash_key(row)
                if key not in seen:
                    seen.add(key)
                    yield row
            return
        right_keys = {_hash_key(row) for row in self.right.rows(ctx)}
        emitted: set[tuple] = set()
        if kind is ast.SetOpKind.INTERSECT:
            for row in self.left.rows(ctx):
                key = _hash_key(row)
                if key in right_keys and key not in emitted:
                    emitted.add(key)
                    yield row
            return
        if kind is ast.SetOpKind.EXCEPT:
            for row in self.left.rows(ctx):
                key = _hash_key(row)
                if key not in right_keys and key not in emitted:
                    emitted.add(key)
                    yield row
            return
        raise ExecutionError(f"unknown set operation {kind}")  # pragma: no cover

    def _describe(self) -> str:
        return f"SetOp({self.kind.value})"

    def _children(self) -> list[Operator]:
        return [self.left, self.right]


class Rename(Operator):
    """Re-binds a child's output columns under a new binding/alias."""

    def __init__(self, child: Operator, binding: str, names: list[str] | None = None):
        self.child = child
        source_names = names or [c.name for c in child.schema]
        self.schema = [OutputColumn(name, binding) for name in source_names]

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        return self.child.rows(ctx)

    def _describe(self) -> str:
        binding = self.schema[0].binding if self.schema else "?"
        return f"Rename({binding})"

    def _children(self) -> list[Operator]:
        return [self.child]
