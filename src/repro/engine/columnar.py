"""Batch-at-a-time columnar execution over the row planner's operator tree.

The row engine (``operators.py``) is Volcano-style: one tuple per
``rows()`` step, one AST walk per expression per tuple.  This module adds a
second execution strategy over the *same* physical plan: operators exchange
:class:`Batch` objects (one :class:`ColumnBlock` per output column), and
every expression is compiled **once per query** into a closure that runs
over whole columns with selection vectors.

The engine picks this strategy per statement, never a user: a plan whose
scans feed at least ``planner.BATCH_MIN_ROWS`` rows runs here, a smaller
one row-at-a-time (``planner.prefers_batch``).

Correctness contract (tested by ``tests/test_columnar.py``):

- identical result rows *in identical order* to the row engine, for every
  supported query shape — so vectorized subtrees compose transparently
  under row-at-a-time parents (Sort, Limit, set ops, nested-loop joins);
- identical ``rows_scanned`` accounting, except under a LIMIT over a
  streaming input, where the row engine stops pulling its child early
  while a batch materialises its input fully; ``prefers_batch`` keeps
  those plans on rows;
- scalar semantics come from the *same* kernels the row evaluator uses
  (``expressions.BINARY_KERNELS`` / ``UNARY_KERNELS``), so three-valued
  logic, numeric coercion and error behaviour cannot drift.

Anything the compiler cannot vectorize (subqueries, outer-row references,
non-literal IN lists, unknown node types) falls back to a per-row
``ExpressionEvaluator`` over the batch — still inside the batch framework,
so a single opaque predicate never forces the whole plan back to rows.
"""

from __future__ import annotations

import operator

from repro.engine import operators as ops
from repro.engine.expressions import (
    BINARY_KERNELS,
    BUILTIN_FUNCTIONS,
    UNARY_KERNELS,
    ExpressionEvaluator,
    OutputColumn,
    Scope,
    as_bool,
    compare_values,
    literal_in_probe,
    membership,
)
from repro.errors import ExecutionError
from repro.sql import ast
from repro.storage.fragment import Fragment
from repro.storage.types import tv_and, tv_not, tv_or

__all__ = [
    "Batch",
    "ColumnBlock",
    "compile_expr",
    "run_batch",
    "run_vectorized",
    "vectorize",
]


# ---------------------------------------------------------------------------
# Columnar containers
# ---------------------------------------------------------------------------


class ColumnBlock(list):
    """One column of a :class:`Batch` — a plain list of values.

    Subclassing ``list`` keeps per-element access at native speed; the
    class exists so batches have a nominal column type and a place for
    column-level helpers.
    """

    __slots__ = ()

    def take(self, sel: list[int]) -> "ColumnBlock":
        return ColumnBlock([self[i] for i in sel])


def _gather(column: list, indices: list[int]) -> ColumnBlock:
    """Gather by index; ``-1`` produces NULL (outer-join padding)."""
    return ColumnBlock(
        [column[i] if i >= 0 else None for i in indices]
    )


class Batch:
    """A horizontal slice of an operator's output, stored column-wise."""

    __slots__ = ("schema", "columns", "length")

    def __init__(
        self, schema: list[OutputColumn], columns: list[list], length: int
    ):
        self.schema = schema
        self.columns = columns
        self.length = length

    @classmethod
    def from_rows(cls, schema: list[OutputColumn], rows: list[tuple]) -> "Batch":
        width = len(schema)
        if not rows:
            return cls(schema, [ColumnBlock() for _ in range(width)], 0)
        if width == 0:
            return cls(schema, [], len(rows))
        # The transposed tuples are used as columns directly (columns are
        # only ever indexed/iterated, never mutated) — wrapping each in a
        # ColumnBlock would copy the whole table once more per scan.
        return cls(schema, list(zip(*rows)), len(rows))

    def to_rows(self) -> list[tuple]:
        if not self.columns:
            return [()] * self.length
        return list(zip(*self.columns))

    def row(self, index: int) -> tuple:
        return tuple(column[index] for column in self.columns)

    def take(self, sel: list[int]) -> "Batch":
        # Pruned columns (None — see _apply_pruning) stay pruned.
        return Batch(
            self.schema,
            [
                ColumnBlock([col[i] for i in sel]) if col is not None else None
                for col in self.columns
            ],
            len(sel),
        )


# ---------------------------------------------------------------------------
# Expression compilation
#
# A compiled expression is a callable ``f(cols, n, sel, ctx) -> list`` where
# ``cols`` are the input batch's columns, ``n`` its length and ``sel`` an
# optional selection vector (list of row indices; None means "all rows").
# The result list is aligned with ``sel`` (or with 0..n-1 when sel is None).
# Selection vectors are how AND/OR/CASE keep the row engine's short-circuit
# semantics: a sub-expression only ever runs over the rows the row engine
# would have evaluated it for.
# ---------------------------------------------------------------------------


class _CannotCompile(Exception):
    pass


_MISSING = object()


def _count(n: int, sel) -> int:
    return n if sel is None else len(sel)


def compile_expr(expr: ast.Expression, scope: Scope):
    """Compile ``expr`` for vectorized evaluation, or None if unsupported."""
    try:
        return _compile(expr, scope)
    except _CannotCompile:
        return None


def _compile(expr, scope):
    compiler = _COMPILERS.get(type(expr))
    if compiler is None:
        raise _CannotCompile
    return compiler(expr, scope)


def _compile_literal(expr, scope):
    value = expr.value

    def run(cols, n, sel, ctx):
        return [value] * _count(n, sel)

    run.const_value = value
    return run


def _compile_column(expr, scope):
    if (
        expr.table is None
        and expr.name.upper() in ("SYSDATE", "CURRENT_DATE")
        and scope.try_resolve(expr.table, expr.name) is None
    ):
        def run_now(cols, n, sel, ctx):
            today = ctx.env.now.date()
            return [today] * _count(n, sel)

        return run_now
    loc = scope.try_resolve(expr.table, expr.name)
    if loc is None or loc[0] != 0:
        # Unknown, ambiguous, or an outer-row reference: the per-row
        # fallback reproduces the row engine's behaviour exactly.
        raise _CannotCompile
    position = loc[1]

    def run(cols, n, sel, ctx):
        column = cols[position]
        if sel is None:
            return column
        return [column[i] for i in sel]

    return run


def _compile_unary(expr, scope):
    kernel = UNARY_KERNELS.get(expr.op)
    if kernel is None:
        raise _CannotCompile
    operand = _compile(expr.operand, scope)

    def run(cols, n, sel, ctx):
        return [kernel(v) for v in operand(cols, n, sel, ctx)]

    return run


def _compile_binary(expr, scope):
    op = expr.op
    if op == "AND":
        return _compile_logical(expr, scope, is_and=True)
    if op == "OR":
        return _compile_logical(expr, scope, is_and=False)
    kernel = BINARY_KERNELS.get(op)
    if kernel is None:
        raise _CannotCompile
    left = _compile(expr.left, scope)
    right = _compile(expr.right, scope)
    left_const = getattr(left, "const_value", _MISSING)
    right_const = getattr(right, "const_value", _MISSING)

    if left_const is not _MISSING and right_const is not _MISSING:
        def run_const(cols, n, sel, ctx):
            count = _count(n, sel)
            if count == 0:
                return []
            return [kernel(left_const, right_const)] * count

        return run_const

    if right_const is not _MISSING:
        def run_rconst(cols, n, sel, ctx):
            return [kernel(v, right_const) for v in left(cols, n, sel, ctx)]

        return run_rconst

    if left_const is not _MISSING:
        def run_lconst(cols, n, sel, ctx):
            return [kernel(left_const, v) for v in right(cols, n, sel, ctx)]

        return run_lconst

    def run(cols, n, sel, ctx):
        return [
            kernel(a, b)
            for a, b in zip(left(cols, n, sel, ctx), right(cols, n, sel, ctx))
        ]

    return run


def _compile_logical(expr, scope, is_and: bool):
    left = _compile(expr.left, scope)
    right = _compile(expr.right, scope)
    combine = tv_and if is_and else tv_or
    # AND short-circuits on False, OR on True: the right side only runs
    # over rows where the left side did not already decide the outcome.
    stop = False if is_and else True

    def run(cols, n, sel, ctx):
        left_bools = [as_bool(v) for v in left(cols, n, sel, ctx)]
        base = range(n) if sel is None else sel
        need = [i for i, lb in zip(base, left_bools) if lb is not stop]
        out = [stop] * len(left_bools)
        if need:
            right_vals = iter(right(cols, n, need, ctx))
            for position, lb in enumerate(left_bools):
                if lb is not stop:
                    out[position] = combine(lb, as_bool(next(right_vals)))
        return out

    return run


def _compile_is_null(expr, scope):
    operand = _compile(expr.operand, scope)
    if expr.negated:
        def run_not_null(cols, n, sel, ctx):
            return [v is not None for v in operand(cols, n, sel, ctx)]

        return run_not_null

    def run(cols, n, sel, ctx):
        return [v is None for v in operand(cols, n, sel, ctx)]

    return run


def _compile_between(expr, scope):
    operand = _compile(expr.operand, scope)
    low = _compile(expr.low, scope)
    high = _compile(expr.high, scope)
    negated = expr.negated

    def run(cols, n, sel, ctx):
        out = []
        append = out.append
        for value, lo, hi in zip(
            operand(cols, n, sel, ctx),
            low(cols, n, sel, ctx),
            high(cols, n, sel, ctx),
        ):
            if value is None or lo is None or hi is None:
                append(None)
                continue
            result = (
                compare_values(lo, value) <= 0
                and compare_values(value, hi) <= 0
            )
            append(not result if negated else result)
        return out

    return run


def _compile_in_list(expr, scope):
    if not all(isinstance(item, ast.Literal) for item in expr.items):
        raise _CannotCompile
    operand = _compile(expr.operand, scope)
    candidates = [item.value for item in expr.items]
    probe = literal_in_probe(expr.items) or (
        lambda value: membership(value, candidates)
    )
    if expr.negated:
        def run_not_in(cols, n, sel, ctx):
            return [tv_not(probe(v)) for v in operand(cols, n, sel, ctx)]

        return run_not_in

    def run(cols, n, sel, ctx):
        return [probe(v) for v in operand(cols, n, sel, ctx)]

    return run


def _compile_function(expr, scope):
    if expr.is_aggregate:
        raise _CannotCompile
    name = expr.name.upper()
    arg_compiled = [_compile(arg, scope) for arg in expr.args]

    def run(cols, n, sel, ctx):
        arg_cols = [c(cols, n, sel, ctx) for c in arg_compiled]
        env = ctx.env
        custom = env.functions.get(name)
        if custom is not None:
            if arg_cols:
                return [custom(*vals) for vals in zip(*arg_cols)]
            return [custom() for _ in range(_count(n, sel))]
        builtin = BUILTIN_FUNCTIONS.get(name)
        if builtin is None:
            raise ExecutionError(f"unknown function {name}")
        if arg_cols:
            return [builtin(env, list(vals)) for vals in zip(*arg_cols)]
        return [builtin(env, []) for _ in range(_count(n, sel))]

    return run


def _compile_case(expr, scope):
    whens = [
        (_compile(cond, scope), _compile(result, scope))
        for cond, result in expr.whens
    ]
    default = _compile(expr.default, scope) if expr.default is not None else None
    operand = _compile(expr.operand, scope) if expr.operand is not None else None

    def run(cols, n, sel, ctx):
        base = list(range(n)) if sel is None else list(sel)
        out = [None] * len(base)
        remaining_idx = base
        remaining_slot = list(range(len(base)))
        subjects = operand(cols, n, base, ctx) if operand is not None else None
        for cond_c, result_c in whens:
            if not remaining_idx:
                break
            cond_vals = cond_c(cols, n, remaining_idx, ctx)
            hit_idx, hit_slot = [], []
            rest_idx, rest_slot = [], []
            for i, slot, cand in zip(remaining_idx, remaining_slot, cond_vals):
                if subjects is not None:
                    subject = subjects[slot]
                    hit = (
                        subject is not None
                        and cand is not None
                        and compare_values(subject, cand) == 0
                    )
                else:
                    hit = as_bool(cand) is True
                if hit:
                    hit_idx.append(i)
                    hit_slot.append(slot)
                else:
                    rest_idx.append(i)
                    rest_slot.append(slot)
            if hit_idx:
                for slot, value in zip(
                    hit_slot, result_c(cols, n, hit_idx, ctx)
                ):
                    out[slot] = value
            remaining_idx, remaining_slot = rest_idx, rest_slot
        if default is not None and remaining_idx:
            for slot, value in zip(
                remaining_slot, default(cols, n, remaining_idx, ctx)
            ):
                out[slot] = value
        return out

    return run


def _compile_cast(expr, scope):
    from repro.storage.types import DataType

    operand = _compile(expr.operand, scope)
    try:
        data_type = DataType.from_name(expr.type_name)
    except Exception:
        raise _CannotCompile from None

    def run(cols, n, sel, ctx):
        validate = data_type.validate
        return [validate(v) for v in operand(cols, n, sel, ctx)]

    return run


_COMPILERS = {
    ast.Literal: _compile_literal,
    ast.ColumnRef: _compile_column,
    ast.UnaryOp: _compile_unary,
    ast.BinaryOp: _compile_binary,
    ast.IsNull: _compile_is_null,
    ast.Between: _compile_between,
    ast.InList: _compile_in_list,
    ast.FunctionCall: _compile_function,
    ast.Case: _compile_case,
    ast.Cast: _compile_cast,
}


def _row_fallback(expr, scope):
    """Per-row evaluation inside the batch framework, for anything the
    compiler cannot vectorize (subqueries, outer-row references, ...)."""

    def run(cols, n, sel, ctx):
        evaluator = ExpressionEvaluator(scope, ctx.env)
        evaluate = evaluator.eval
        outer = ctx.outer_rows
        indices = range(n) if sel is None else sel
        return [
            evaluate(expr, tuple(col[i] for col in cols), outer)
            for i in indices
        ]

    run.is_fallback = True
    return run


def compile_or_fallback(expr, scope):
    compiled = compile_expr(expr, scope)
    if compiled is not None:
        return compiled
    return _row_fallback(expr, scope)


def _split_conjuncts(expr) -> list:
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


# ---------------------------------------------------------------------------
# Column pruning
#
# Joins are the one place a batch plan materialises wide intermediate
# results; when every expression above a join compiled cleanly we know the
# exact set of output positions that will ever be read and skip gathering
# the rest.  Positions flow top-down (``None`` = "needs every column").
# ---------------------------------------------------------------------------


_SUBQUERY_NODES = (ast.InSubquery, ast.Exists, ast.ScalarSubquery)


def _referenced_positions(expr, scope):
    """Depth-0 column positions ``expr`` reads, or None if undeterminable."""
    positions: set[int] = set()
    for node in ast.walk_expressions(expr):
        if isinstance(node, _SUBQUERY_NODES):
            return None  # the body may see any column through outer rows
        if isinstance(node, ast.ColumnRef):
            loc = scope.try_resolve(node.table, node.name)
            if loc is None:
                continue  # pseudo-column (SYSDATE) or a runtime error
            if loc[0] != 0:
                return None
            positions.add(loc[1])
    return positions


def _union_positions(pairs, scope):
    """Union referenced positions over ``(expr, compiled)`` pairs; None if
    any expression fell back to per-row evaluation (needs whole rows)."""
    out: set[int] = set()
    for expr, compiled in pairs:
        if getattr(compiled, "is_fallback", False):
            return None
        positions = _referenced_positions(expr, scope)
        if positions is None:
            return None
        out |= positions
    return out


# ---------------------------------------------------------------------------
# Vectorized operators
# ---------------------------------------------------------------------------


class VecNode:
    """Base class: subclasses set ``schema`` and implement ``batch(ctx)``."""

    schema: list[OutputColumn]

    def batch(self, ctx: ops.ExecContext) -> Batch:
        raise NotImplementedError


class VecMaterialize(VecNode):
    """Materialises a row operator's output as one batch.

    Used for leaves (SeqScan gets a dedicated bulk path) and as the bridge
    under any operator that stays row-at-a-time.
    """

    def __init__(self, op: ops.Operator):
        self.op = op
        self.schema = op.schema

    def batch(self, ctx):
        op = self.op
        if type(op) is ops.FragmentScan and not op.probes:
            # Already columnar: read in place.
            fragment = op.fragment
            ctx.rows_scanned += fragment.length
            return Batch(self.schema, fragment.columns, fragment.length)
        if type(op) is ops.SeqScan:
            if ctx.snapshot is not None:
                data = ctx.snapshot.visible_rows(op.table)
            else:
                data = list(op.table.rows.values())
            ctx.rows_scanned += len(data)
        elif type(op) is ops.ValuesScan:
            data = list(op._rows)
            ctx.rows_scanned += len(data)
        else:
            data = list(op.rows(ctx))
        return Batch.from_rows(self.schema, data)


class VecRename(VecNode):
    def __init__(self, op: ops.Rename, child: VecNode):
        self.op = op
        self.child = child
        self.schema = op.schema

    def batch(self, ctx):
        inner = self.child.batch(ctx)
        return Batch(self.schema, inner.columns, inner.length)


#: Comparison conjuncts fusable into a direct selection loop.
_CMP_FUNCS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "<>": operator.ne,
}
#: Operator after swapping operand sides (literal on the left).
_CMP_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}


def _fuse_comparison(expr, scope):
    """``(position, cmp, const, kernel)`` for ``col <cmp> numeric-literal``.

    The fused form lets :class:`VecFilter` compare int/float values with a
    direct operator call instead of kernel dispatch + three-valued
    coercion per row; every other value type (None, bool, str, dates)
    drops to the shared kernel so semantics match the row engine exactly.
    """
    if not isinstance(expr, ast.BinaryOp) or expr.op not in _CMP_FUNCS:
        return None
    left, right, op_name = expr.left, expr.right, expr.op
    if isinstance(left, ast.Literal) and isinstance(right, ast.ColumnRef):
        left, right = right, left
        op_name = _CMP_FLIP[op_name]
    if not (
        isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal)
    ):
        return None
    const = right.value
    if isinstance(const, bool) or not isinstance(const, (int, float)):
        return None
    loc = scope.try_resolve(left.table, left.name)
    if loc is None or loc[0] != 0:
        return None
    return (loc[1], _CMP_FUNCS[op_name], const, BINARY_KERNELS[op_name])


class VecFilter(VecNode):
    """Filter via progressively-narrowed selection vectors.

    The predicate splits into conjuncts evaluated left to right; a row
    leaves the selection as soon as a conjunct is False (the row engine's
    AND short-circuit), while NULL verdicts keep evaluating later conjuncts
    but taint the row out of the final output.
    """

    def __init__(self, op: ops.Filter, child: VecNode):
        self.op = op
        self.child = child
        self.schema = op.schema
        conjunct_exprs = _split_conjuncts(op.predicate)
        self.conjuncts = [
            compile_or_fallback(conjunct, op._scope)
            for conjunct in conjunct_exprs
        ]
        self.fused = [
            _fuse_comparison(conjunct, op._scope)
            for conjunct in conjunct_exprs
        ]
        self.predicate_positions = _union_positions(
            zip(conjunct_exprs, self.conjuncts), op._scope
        )

    def batch(self, ctx):
        batch = self.child.batch(ctx)
        n = batch.length
        if n == 0:
            return batch
        cols = batch.columns
        sel = None
        taint = None
        for conjunct, fused in zip(self.conjuncts, self.fused):
            base = range(n) if sel is None else sel
            kept = []
            append = kept.append
            if fused is not None:
                position, cmp, const, kernel = fused
                column = cols[position]
                for i in base:
                    value = column[i]
                    kind = type(value)
                    if kind is float or kind is int:
                        if cmp(value, const):
                            append(i)
                        continue
                    if value is None:
                        if taint is None:
                            taint = set()
                        taint.add(i)
                        append(i)
                        continue
                    verdict = as_bool(kernel(value, const))
                    if verdict is False:
                        continue
                    if verdict is None:
                        if taint is None:
                            taint = set()
                        taint.add(i)
                    append(i)
            else:
                verdicts = conjunct(cols, n, sel, ctx)
                for i, raw in zip(base, verdicts):
                    verdict = as_bool(raw)
                    if verdict is False:
                        continue
                    if verdict is None:
                        if taint is None:
                            taint = set()
                        taint.add(i)
                    append(i)
            sel = kept
            if not sel:
                break
        if taint:
            sel = [i for i in sel if i not in taint]
        return batch.take(sel)


class VecProject(VecNode):
    def __init__(self, op: ops.Project, child: VecNode):
        self.op = op
        self.child = child
        self.schema = op.schema
        self.expressions = [
            compile_or_fallback(expression, op._scope)
            for expression in op.expressions
        ]
        self.child_needed = _union_positions(
            zip(op.expressions, self.expressions), op._scope
        )

    def batch(self, ctx):
        batch = self.child.batch(ctx)
        cols = batch.columns
        n = batch.length
        out = [expression(cols, n, None, ctx) for expression in self.expressions]
        return Batch(self.schema, out, n)


class VecHashJoin(VecNode):
    """Batch-building hash join mirroring :class:`operators.HashJoin`.

    Key columns are computed vectorized on both sides, the hash table maps
    normalised key tuples to build positions, and the output batch is
    assembled by index gather (``-1`` = outer-join NULL padding) in exactly
    the row engine's emission order.
    """

    def __init__(self, op: ops.HashJoin, left: VecNode, right: VecNode):
        self.op = op
        self.left = left
        self.right = right
        self.schema = op.schema
        self.left_keys = [
            compile_or_fallback(key, op._left_scope) for key in op.left_keys
        ]
        self.right_keys = [
            compile_or_fallback(key, op._right_scope) for key in op.right_keys
        ]
        self.residual = (
            compile_or_fallback(op.residual, op._scope)
            if op.residual is not None
            else None
        )
        self.left_key_positions = _union_positions(
            zip(op.left_keys, self.left_keys), op._left_scope
        )
        self.right_key_positions = _union_positions(
            zip(op.right_keys, self.right_keys), op._right_scope
        )
        if op.residual is None:
            self.residual_positions: set[int] | None = set()
        else:
            self.residual_positions = _union_positions(
                [(op.residual, self.residual)], op._scope
            )
        #: output positions the consumer reads (set by _apply_pruning;
        #: None = all).
        self.needed: set[int] | None = None

    def batch(self, ctx):
        op = self.op
        left_batch = self.left.batch(ctx)
        right_batch = self.right.batch(ctx)
        if op.build_left:
            build_batch, build_keys = left_batch, self.left_keys
            probe_batch, probe_keys = right_batch, self.right_keys
        else:
            build_batch, build_keys = right_batch, self.right_keys
            probe_batch, probe_keys = left_batch, self.left_keys

        group_key = ops._group_key_value
        build_n = build_batch.length
        build_cols = [
            key(build_batch.columns, build_n, None, ctx) for key in build_keys
        ]
        probe_n = probe_batch.length
        probe_cols = [
            key(probe_batch.columns, probe_n, None, ctx) for key in probe_keys
        ]

        hash_table: dict = {}
        single_key = len(build_cols) == 1
        if single_key:
            # Scalar keys: no per-row tuple building.  Ints/floats are
            # normalised inline (bool/Decimal/rest via _group_key_value,
            # keeping the row engine's cross-type equality).
            for position, value in enumerate(build_cols[0]):
                if value is None:
                    continue  # NULL keys never join
                kind = type(value)
                hashed = (
                    ("n", float(value))
                    if kind is int or kind is float
                    else group_key(value)
                )
                bucket = hash_table.get(hashed)
                if bucket is None:
                    hash_table[hashed] = [position]
                else:
                    bucket.append(position)
        else:
            for position in range(build_n):
                key = tuple(col[position] for col in build_cols)
                if any(value is None for value in key):
                    continue  # NULL keys never join
                hashed = tuple(group_key(value) for value in key)
                bucket = hash_table.get(hashed)
                if bucket is None:
                    hash_table[hashed] = [position]
                else:
                    bucket.append(position)

        # One bucket lookup per probe row (None = NULL key or no match).
        get = hash_table.get
        if single_key:
            buckets = [
                get(
                    ("n", float(value))
                    if type(value) is int or type(value) is float
                    else group_key(value)
                )
                if value is not None
                else None
                for value in probe_cols[0]
            ]
        else:
            buckets = []
            append_bucket = buckets.append
            for i in range(probe_n):
                key = tuple(col[i] for col in probe_cols)
                if any(value is None for value in key):
                    append_bucket(None)
                else:
                    append_bucket(get(tuple(group_key(value) for value in key)))

        left_outer = not op.build_left and op.join_type in (
            ast.JoinType.LEFT,
            ast.JoinType.FULL,
        )
        right_outer = not op.build_left and op.join_type in (
            ast.JoinType.RIGHT,
            ast.JoinType.FULL,
        )
        build_matched = bytearray(build_n) if right_outer else None
        out_probe: list[int] = []
        out_build: list[int] = []
        null_build = False  # -1 entries present in out_build (LEFT/FULL pad)
        null_probe = False  # -1 entries present in out_probe (RIGHT/FULL pad)
        append_probe = out_probe.append
        append_build = out_build.append

        if self.residual is None:
            if not left_outer and build_matched is None:
                # Inner join: no padding or matched bookkeeping.
                for i, bucket in enumerate(buckets):
                    if bucket is not None:
                        if len(bucket) == 1:
                            append_probe(i)
                            append_build(bucket[0])
                        else:
                            for position in bucket:
                                append_probe(i)
                                append_build(position)
            else:
                for i, bucket in enumerate(buckets):
                    if bucket is not None:
                        for position in bucket:
                            append_probe(i)
                            append_build(position)
                            if build_matched is not None:
                                build_matched[position] = 1
                    elif left_outer:
                        append_probe(i)
                        append_build(-1)
                        null_build = True
        else:
            # Collect candidate pairs, run the residual over them as one
            # gathered batch, then assemble output in probe order.
            cand_probe: list[int] = []
            cand_build: list[int] = []
            probe_counts = [0] * probe_n
            for i, bucket in enumerate(buckets):
                if bucket is not None:
                    for position in bucket:
                        cand_probe.append(i)
                        cand_build.append(position)
                    probe_counts[i] = len(bucket)
            verdicts: list[bool] = []
            if cand_probe:
                combined = self._combined_batch(
                    probe_batch, build_batch, cand_probe, cand_build
                )
                verdicts = [
                    as_bool(v) is True
                    for v in self.residual(
                        combined.columns, combined.length, None, ctx
                    )
                ]
            cursor = 0
            for i in range(probe_n):
                matched = False
                for _ in range(probe_counts[i]):
                    if verdicts[cursor]:
                        position = cand_build[cursor]
                        append_probe(i)
                        append_build(position)
                        if build_matched is not None:
                            build_matched[position] = 1
                        matched = True
                    cursor += 1
                if not matched and left_outer:
                    append_probe(i)
                    append_build(-1)
                    null_build = True

        if build_matched is not None:
            for position in range(build_n):
                if not build_matched[position]:
                    append_probe(-1)
                    append_build(position)
                    null_probe = True

        if op.build_left:
            left_idx, right_idx = out_build, out_probe
            left_pad, right_pad = null_build, null_probe
        else:
            left_idx, right_idx = out_probe, out_build
            left_pad, right_pad = null_probe, null_build

        needed = self.needed
        left_width = len(left_batch.columns)
        columns: list = []
        for offset, col in enumerate(left_batch.columns):
            if col is None or (needed is not None and offset not in needed):
                columns.append(None)
            elif left_pad:
                columns.append(_gather(col, left_idx))
            else:
                columns.append(ColumnBlock([col[i] for i in left_idx]))
        for offset, col in enumerate(right_batch.columns, start=left_width):
            if col is None or (needed is not None and offset not in needed):
                columns.append(None)
            elif right_pad:
                columns.append(_gather(col, right_idx))
            else:
                columns.append(ColumnBlock([col[i] for i in right_idx]))
        return Batch(self.schema, columns, len(out_probe))

    def _combined_batch(self, probe_batch, build_batch, probe_idx, build_idx):
        # Output schema is always left ++ right regardless of build side.
        # Only the columns the residual actually reads are gathered.
        if self.op.build_left:
            left_batch, left_idx = build_batch, build_idx
            right_batch, right_idx = probe_batch, probe_idx
        else:
            left_batch, left_idx = probe_batch, probe_idx
            right_batch, right_idx = build_batch, build_idx
        positions = self.residual_positions
        left_width = len(left_batch.columns)
        columns: list = []
        for offset, col in enumerate(left_batch.columns):
            if col is not None and (positions is None or offset in positions):
                columns.append(ColumnBlock([col[i] for i in left_idx]))
            else:
                columns.append(None)
        for offset, col in enumerate(right_batch.columns, start=left_width):
            if col is not None and (positions is None or offset in positions):
                columns.append(ColumnBlock([col[i] for i in right_idx]))
            else:
                columns.append(None)
        return Batch(self.op.schema, columns, len(probe_idx))


def _accumulate_column(accumulator, column, indices):
    """Feed ``column[indices]`` into ``accumulator`` without a method call
    per row for the common accumulator types.  Each branch is the exact
    fold the accumulator's ``add`` performs (same NULL skips, same
    ``+``/``compare_values`` semantics, same within-group row order)."""
    kind = type(accumulator)
    if kind is ops._Sum and not accumulator.distinct:
        total = accumulator.total
        for i in indices:
            value = column[i]
            if value is not None:
                total = value if total is None else total + value
        accumulator.total = total
    elif kind is ops._Count and not accumulator.distinct:
        count = 0
        for i in indices:
            if column[i] is not None:
                count += 1
        accumulator.count += count
    elif kind is ops._Avg and not accumulator.distinct:
        total = accumulator.total
        count = accumulator.count
        for i in indices:
            value = column[i]
            if value is not None:
                total = value if total is None else total + value
                count += 1
        accumulator.total = total
        accumulator.count = count
    elif kind is ops._Min:
        best = accumulator.best
        for i in indices:
            value = column[i]
            if value is not None and (
                best is None or compare_values(value, best) < 0
            ):
                best = value
        accumulator.best = best
    elif kind is ops._Max:
        best = accumulator.best
        for i in indices:
            value = column[i]
            if value is not None and (
                best is None or compare_values(value, best) > 0
            ):
                best = value
        accumulator.best = best
    else:
        add = accumulator.add
        for i in indices:
            add(column[i])


class VecHashAggregate(VecNode):
    """Grouping/aggregation over pre-computed key and argument columns."""

    #: marker: aggregate wants the whole input row (COUNT with a bare
    #: non-star argument list — the row engine passes the row through).
    _ROW_ARG = object()

    def __init__(self, op: ops.HashAggregate, child: VecNode):
        self.op = op
        self.child = child
        self.schema = op.schema
        self.group_exprs = [
            compile_or_fallback(expression, op._scope)
            for expression in op.group_exprs
        ]
        self.agg_args = []
        for call in op.aggregates:
            if call.args and not isinstance(call.args[0], ast.Star):
                self.agg_args.append(compile_or_fallback(call.args[0], op._scope))
            elif isinstance(ops._make_accumulator(call), ops._CountStar):
                self.agg_args.append(None)  # COUNT(*): value unused
            else:
                self.agg_args.append(self._ROW_ARG)
        needed = _union_positions(
            zip(op.group_exprs, self.group_exprs), op._scope
        )
        if needed is not None:
            for call, compiled in zip(op.aggregates, self.agg_args):
                if compiled is None:
                    continue  # COUNT(*) reads nothing
                if compiled is self._ROW_ARG:
                    needed = None  # wants whole input rows
                    break
                extra = _union_positions([(call.args[0], compiled)], op._scope)
                if extra is None:
                    needed = None
                    break
                needed |= extra
        self.child_needed = needed

    def batch(self, ctx):
        op = self.op
        batch = self.child.batch(ctx)
        n = batch.length
        cols = batch.columns
        group_key = ops._group_key_value
        make_accumulator = ops._make_accumulator
        group_cols = [g(cols, n, None, ctx) for g in self.group_exprs]
        agg_cols = [
            arg(cols, n, None, ctx) if callable(arg) else arg
            for arg in self.agg_args
        ]
        aggregates = op.aggregates

        # Partition row indices by group key (first-occurrence order — the
        # row engine's dict insertion order), then fold each aggregate
        # column group-at-a-time.
        slots: dict = {}
        order: list[tuple[tuple, list[int]]] = []
        if not group_cols:
            if n:
                order.append(((), list(range(n))))
        elif len(group_cols) == 1:
            for i, value in enumerate(group_cols[0]):
                kind = type(value)
                key = (
                    ("n", float(value))
                    if kind is int or kind is float
                    else group_key(value)
                )
                slot = slots.get(key)
                if slot is None:
                    slots[key] = len(order)
                    order.append(((value,), [i]))
                else:
                    order[slot][1].append(i)
        else:
            for i in range(n):
                group_values = tuple(col[i] for col in group_cols)
                key = tuple(group_key(v) for v in group_values)
                slot = slots.get(key)
                if slot is None:
                    slots[key] = len(order)
                    order.append((group_values, [i]))
                else:
                    order[slot][1].append(i)

        out_rows: list[tuple] = []
        if not order and not op.group_exprs:
            accumulators = [make_accumulator(call) for call in aggregates]
            out_rows.append(tuple(a.result() for a in accumulators))
        else:
            row_arg = self._ROW_ARG
            for group_values, indices in order:
                accumulators = [make_accumulator(call) for call in aggregates]
                for accumulator, column in zip(accumulators, agg_cols):
                    if column is None:  # COUNT(*): one per row, value unused
                        accumulator.count += len(indices)
                    elif column is row_arg:
                        add = accumulator.add
                        for i in indices:
                            add(batch.row(i))
                    else:
                        _accumulate_column(accumulator, column, indices)
                out_rows.append(
                    group_values + tuple(a.result() for a in accumulators)
                )
        return Batch.from_rows(self.schema, out_rows)


class _VecRows(ops.Operator):
    """Row-operator adapter over a vectorized subtree, so row-at-a-time
    parents (Sort, Limit, nested-loop joins, set ops) keep working."""

    def __init__(self, vec: VecNode):
        self.vec = vec
        self.schema = vec.schema

    def rows(self, ctx):
        return iter(self.vec.batch(ctx).to_rows())

    def _describe(self):
        return f"Vectorized({type(self.vec).__name__})"


# ---------------------------------------------------------------------------
# Plan translation
# ---------------------------------------------------------------------------


def vectorize(plan: ops.Operator) -> VecNode:
    """Translate a row-operator tree into a vectorized tree.

    Hot operators (Filter, Project, HashJoin, HashAggregate, Rename) get
    dedicated batch implementations; everything else keeps its row
    implementation but has vectorized children bridged in via _VecRows.
    """
    kind = type(plan)
    if kind is ops.Filter:
        return VecFilter(plan, vectorize(plan.child))
    if kind is ops.Project:
        return VecProject(plan, vectorize(plan.child))
    if kind is ops.HashJoin:
        return VecHashJoin(plan, vectorize(plan.left), vectorize(plan.right))
    if kind is ops.HashAggregate:
        return VecHashAggregate(plan, vectorize(plan.child))
    if kind is ops.Rename:
        return VecRename(plan, vectorize(plan.child))
    _vectorize_children(plan)
    return VecMaterialize(plan)


def _vectorize_children(op: ops.Operator) -> None:
    if isinstance(op, ops.LEAVES):
        return
    for attr in ("child", "left", "right"):
        child = getattr(op, attr, None)
        if isinstance(child, ops.Operator):
            sub = vectorize(child)
            if type(sub) is VecMaterialize:
                # No vectorized operator underneath; keep the original
                # child (its own subtree was already processed).
                setattr(op, attr, sub.op)
            else:
                _apply_pruning(sub, None)
                setattr(op, attr, _VecRows(sub))


def _apply_pruning(node: VecNode, needed: set[int] | None) -> None:
    """Push "which output positions does the consumer read" down the vec
    tree so joins skip gathering columns nobody will look at.  ``None``
    means "every column" — the root, row-operator bridges, and anything
    downstream of a per-row fallback all require full rows."""
    if isinstance(node, VecProject):
        _apply_pruning(node.child, node.child_needed)
    elif isinstance(node, VecFilter):
        mine = node.predicate_positions
        if needed is None or mine is None:
            _apply_pruning(node.child, None)
        else:
            _apply_pruning(node.child, needed | mine)
    elif isinstance(node, VecRename):
        _apply_pruning(node.child, needed)
    elif isinstance(node, VecHashAggregate):
        _apply_pruning(node.child, node.child_needed)
    elif isinstance(node, VecHashJoin):
        node.needed = needed
        left_keys = node.left_key_positions
        right_keys = node.right_key_positions
        residual = node.residual_positions
        if (
            needed is None
            or left_keys is None
            or right_keys is None
            or residual is None
        ):
            _apply_pruning(node.left, None)
            _apply_pruning(node.right, None)
        else:
            wanted = needed | residual
            left_width = len(node.left.schema)
            _apply_pruning(
                node.left, {p for p in wanted if p < left_width} | left_keys
            )
            _apply_pruning(
                node.right,
                {p - left_width for p in wanted if p >= left_width}
                | right_keys,
            )
    # VecMaterialize: row operators build full rows regardless.


def run_batch(
    plan: ops.Operator, ctx: ops.ExecContext
) -> Fragment | list[tuple]:
    """Execute a planned query batch-at-a-time.

    Returns the final batch as a :class:`Fragment`, or the rows themselves
    when a row operator sits at the root (nothing to transpose).
    """
    vec = vectorize(plan)
    if type(vec) is VecMaterialize:
        return list(vec.op.rows(ctx))
    _apply_pruning(vec, None)
    batch = vec.batch(ctx)
    return Fragment(
        [column.name for column in plan.schema], batch.columns, batch.length
    )


def run_vectorized(plan: ops.Operator, ctx: ops.ExecContext) -> list[tuple]:
    """Execute a planned query batch-at-a-time; returns the result rows."""
    result = run_batch(plan, ctx)
    return result.rows() if isinstance(result, Fragment) else result
