"""Scalar expression evaluation with SQL three-valued logic.

The evaluator works against a :class:`Scope` describing the positional layout
of the rows an operator produces.  Correlated subqueries are supported by
stacking scopes: a subquery's scope points at the enclosing scope, and at
evaluation time outer rows travel alongside the current row.

Aggregate function calls are *not* evaluated here — the planner rewrites them
into column references over the aggregate operator's output before any
post-aggregation expression reaches this evaluator.
"""

from __future__ import annotations

import datetime
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from decimal import Decimal

from repro.errors import CatalogError, ExecutionError, SQLTypeError
from repro.sql import ast
from repro.storage.types import tv_and, tv_not, tv_or

#: Deterministic "current time" used when no clock is wired in (keeps every
#: test and benchmark reproducible).
DEFAULT_NOW = datetime.datetime(1994, 5, 24, 12, 0, 0)  # SIGMOD'94, day 1


@dataclass(frozen=True)
class OutputColumn:
    """One column of an operator's output: optional binding plus name."""

    name: str
    binding: str | None = None

    def matches(self, table: str | None, name: str) -> bool:
        if name.lower() != self.name.lower():
            return False
        if table is None:
            return True
        return self.binding is not None and table.lower() == self.binding.lower()


class Scope:
    """Positional layout of a row, with an optional outer (parent) scope."""

    def __init__(self, columns: list[OutputColumn], parent: "Scope | None" = None):
        self.columns = list(columns)
        self.parent = parent

    def resolve(self, table: str | None, name: str) -> tuple[int, int]:
        """Resolve a column reference to (depth, position).

        Depth 0 is the current row; depth 1 the innermost outer row, etc.
        Raises CatalogError for unknown or ambiguous references.
        """
        matches = [
            position
            for position, column in enumerate(self.columns)
            if column.matches(table, name)
        ]
        if len(matches) == 1:
            return 0, matches[0]
        if len(matches) > 1:
            raise CatalogError(f"ambiguous column reference {_display(table, name)}")
        if self.parent is not None:
            depth, position = self.parent.resolve(table, name)
            return depth + 1, position
        raise CatalogError(f"unknown column {_display(table, name)}")

    def try_resolve(self, table: str | None, name: str) -> tuple[int, int] | None:
        try:
            return self.resolve(table, name)
        except CatalogError:
            return None


def _display(table: str | None, name: str) -> str:
    return f"{table}.{name}" if table else name


#: Signature of the callback used to run subqueries found inside expressions.
#: Receives (query, outer_scope, outer_rows) and returns the result rows.
SubqueryExecutor = Callable[
    [ast.Query, Scope, tuple[tuple, ...]], list[tuple]
]


@dataclass
class EvalEnv:
    """Everything the evaluator needs besides the row itself."""

    functions: dict[str, Callable] = field(default_factory=dict)
    subquery_executor: SubqueryExecutor | None = None
    now: datetime.datetime = DEFAULT_NOW
    #: Rows scanned by the subqueries ``subquery_executor`` ran; the
    #: engine adds them to the statement's own count.
    rows_scanned: int = 0


#: Cache marker for unqualified SYSDATE/CURRENT_DATE references that do not
#: name a real column — they evaluate to the environment clock instead.
_NOW_COLUMN = ("now",)

_MISSING = object()


class ExpressionEvaluator:
    """Evaluates AST expressions against rows laid out by a :class:`Scope`.

    Column ordinals are resolved once per evaluator (one evaluator lives for
    the whole lifetime of an operator's ``rows()`` call), so the per-row cost
    of a column reference is a dict hit plus a tuple index — not a linear
    scan over the scope's columns.
    """

    def __init__(self, scope: Scope, env: EvalEnv | None = None):
        self.scope = scope
        self.env = env or EvalEnv()
        self._column_cache: dict[tuple[str | None, str], tuple] = {}
        #: ``id(InList node)`` → its :func:`literal_in_probe` (or None),
        #: built on the node's first evaluation.
        self._in_probes: dict[int, Callable | None] = {}

    def __call__(
        self, expr: ast.Expression, row: tuple, outer: tuple[tuple, ...] = ()
    ) -> object:
        return self.eval(expr, row, outer)

    # `outer` is a stack of outer rows, innermost first; index [depth-1].
    def eval(
        self, expr: ast.Expression, row: tuple, outer: tuple[tuple, ...] = ()
    ) -> object:
        method = _DISPATCH.get(type(expr))
        if method is None:
            raise ExecutionError(
                f"cannot evaluate expression node {type(expr).__name__}"
            )
        return method(self, expr, row, outer)

    # -- leaves --------------------------------------------------------

    def _eval_literal(self, expr: ast.Literal, row, outer) -> object:
        return expr.value

    def _eval_column(self, expr: ast.ColumnRef, row, outer) -> object:
        key = (expr.table, expr.name)
        loc = self._column_cache.get(key)
        if loc is None:
            if (
                expr.table is None
                and expr.name.upper() in ("SYSDATE", "CURRENT_DATE")
                and self.scope.try_resolve(expr.table, expr.name) is None
            ):
                loc = _NOW_COLUMN
            else:
                loc = self.scope.resolve(expr.table, expr.name)
            self._column_cache[key] = loc
        if loc is _NOW_COLUMN:
            return self.env.now.date()
        depth, position = loc
        target = row if depth == 0 else outer[depth - 1]
        return target[position]

    def _eval_parameter(self, expr: ast.Parameter, row, outer) -> object:
        raise ExecutionError(
            "unbound parameter: bind parameters before execution"
        )

    # -- operators --------------------------------------------------------

    def _eval_unary(self, expr: ast.UnaryOp, row, outer) -> object:
        kernel = UNARY_KERNELS.get(expr.op)
        if kernel is None:
            raise ExecutionError(f"unknown unary operator {expr.op!r}")
        return kernel(self.eval(expr.operand, row, outer))

    def _eval_binary(self, expr: ast.BinaryOp, row, outer) -> object:
        op = expr.op
        if op == "AND":
            left = _as_bool(self.eval(expr.left, row, outer))
            if left is False:
                return False
            return tv_and(left, _as_bool(self.eval(expr.right, row, outer)))
        if op == "OR":
            left = _as_bool(self.eval(expr.left, row, outer))
            if left is True:
                return True
            return tv_or(left, _as_bool(self.eval(expr.right, row, outer)))
        kernel = BINARY_KERNELS.get(op)
        if kernel is None:
            raise ExecutionError(f"unknown binary operator {op!r}")
        return kernel(
            self.eval(expr.left, row, outer),
            self.eval(expr.right, row, outer),
        )

    # -- predicates -------------------------------------------------------

    def _eval_is_null(self, expr: ast.IsNull, row, outer) -> object:
        value = self.eval(expr.operand, row, outer)
        result = value is None
        return not result if expr.negated else result

    def _eval_between(self, expr: ast.Between, row, outer) -> object:
        value = self.eval(expr.operand, row, outer)
        low = self.eval(expr.low, row, outer)
        high = self.eval(expr.high, row, outer)
        if value is None or low is None or high is None:
            return None
        result = (
            _compare_values(low, value) <= 0 and _compare_values(value, high) <= 0
        )
        return not result if expr.negated else result

    def _eval_in_list(self, expr: ast.InList, row, outer) -> object:
        value = self.eval(expr.operand, row, outer)
        key = id(expr)
        probe = self._in_probes.get(key, _MISSING)
        if probe is _MISSING:
            probe = self._in_probes[key] = literal_in_probe(expr.items)
        if probe is not None:
            result = probe(value)
        else:
            result = self._membership(
                value, (self.eval(item, row, outer) for item in expr.items)
            )
        return tv_not(result) if expr.negated else result

    def _membership(self, value: object, candidates) -> bool | None:
        return membership(value, candidates)

    def _eval_in_subquery(self, expr: ast.InSubquery, row, outer) -> object:
        rows = self._run_subquery(expr.query, row, outer)
        value = self.eval(expr.operand, row, outer)
        result = self._membership(value, (r[0] for r in rows))
        return tv_not(result) if expr.negated else result

    def _eval_exists(self, expr: ast.Exists, row, outer) -> object:
        rows = self._run_subquery(expr.query, row, outer, limit_one=True)
        result = bool(rows)
        return not result if expr.negated else result

    def _eval_scalar_subquery(self, expr: ast.ScalarSubquery, row, outer) -> object:
        rows = self._run_subquery(expr.query, row, outer)
        if not rows:
            return None
        if len(rows) > 1:
            raise ExecutionError("scalar subquery returned more than one row")
        if len(rows[0]) != 1:
            raise ExecutionError("scalar subquery must return one column")
        return rows[0][0]

    def _run_subquery(
        self,
        query: ast.Query,
        row: tuple,
        outer: tuple[tuple, ...],
        limit_one: bool = False,
    ) -> list[tuple]:
        if self.env.subquery_executor is None:
            raise ExecutionError("subqueries are not supported in this context")
        return self.env.subquery_executor(query, self.scope, (row, *outer))

    # -- functions ---------------------------------------------------------

    def _eval_function(self, expr: ast.FunctionCall, row, outer) -> object:
        name = expr.name.upper()
        if expr.is_aggregate:
            raise ExecutionError(
                f"aggregate {name} used outside GROUP BY context"
            )
        args = [self.eval(arg, row, outer) for arg in expr.args]
        custom = self.env.functions.get(name)
        if custom is not None:
            return custom(*args)
        builtin = BUILTIN_FUNCTIONS.get(name)
        if builtin is not None:
            return builtin(self.env, args)
        raise ExecutionError(f"unknown function {name}")

    def _eval_case(self, expr: ast.Case, row, outer) -> object:
        if expr.operand is not None:
            subject = self.eval(expr.operand, row, outer)
            for condition, result in expr.whens:
                candidate = self.eval(condition, row, outer)
                if (
                    subject is not None
                    and candidate is not None
                    and _compare_values(subject, candidate) == 0
                ):
                    return self.eval(result, row, outer)
        else:
            for condition, result in expr.whens:
                if _as_bool(self.eval(condition, row, outer)) is True:
                    return self.eval(result, row, outer)
        if expr.default is not None:
            return self.eval(expr.default, row, outer)
        return None

    def _eval_cast(self, expr: ast.Cast, row, outer) -> object:
        from repro.storage.types import DataType

        value = self.eval(expr.operand, row, outer)
        return DataType.from_name(expr.type_name).validate(value)

    def _eval_star(self, expr: ast.Star, row, outer) -> object:
        raise ExecutionError("* is only valid in projections and COUNT(*)")


_DISPATCH = {
    ast.Literal: ExpressionEvaluator._eval_literal,
    ast.ColumnRef: ExpressionEvaluator._eval_column,
    ast.Parameter: ExpressionEvaluator._eval_parameter,
    ast.UnaryOp: ExpressionEvaluator._eval_unary,
    ast.BinaryOp: ExpressionEvaluator._eval_binary,
    ast.IsNull: ExpressionEvaluator._eval_is_null,
    ast.Between: ExpressionEvaluator._eval_between,
    ast.InList: ExpressionEvaluator._eval_in_list,
    ast.InSubquery: ExpressionEvaluator._eval_in_subquery,
    ast.Exists: ExpressionEvaluator._eval_exists,
    ast.ScalarSubquery: ExpressionEvaluator._eval_scalar_subquery,
    ast.FunctionCall: ExpressionEvaluator._eval_function,
    ast.Case: ExpressionEvaluator._eval_case,
    ast.Cast: ExpressionEvaluator._eval_cast,
    ast.Star: ExpressionEvaluator._eval_star,
}


# ---------------------------------------------------------------------------
# Value helpers
# ---------------------------------------------------------------------------


def _as_bool(value: object) -> bool | None:
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return bool(value)
    raise SQLTypeError(f"expected boolean, got {value!r}")


def _require_number(value: object, where: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float, Decimal)):
        raise SQLTypeError(f"non-numeric operand {value!r} for {where}")


def _arith(left, right, fn):
    if isinstance(left, Decimal) or isinstance(right, Decimal):
        return fn(Decimal(str(left)), Decimal(str(right)))
    return fn(left, right)


def _compare_values(left: object, right: object) -> int:
    """Total comparison for non-null SQL values; coerces numeric widths."""
    if isinstance(left, bool) or isinstance(right, bool):
        if isinstance(left, bool) and isinstance(right, bool):
            return (left > right) - (left < right)
        left, right = _numeric_pair(left, right)
    if isinstance(left, Decimal) or isinstance(right, Decimal):
        left, right = _numeric_pair(left, right)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return (left > right) - (left < right)
    if isinstance(left, datetime.datetime) and isinstance(right, datetime.date):
        if not isinstance(right, datetime.datetime):
            right = datetime.datetime(right.year, right.month, right.day)
    if isinstance(right, datetime.datetime) and isinstance(left, datetime.date):
        if not isinstance(left, datetime.datetime):
            left = datetime.datetime(left.year, left.month, left.day)
    if type(left) is not type(right) and not (
        isinstance(left, str) and isinstance(right, str)
    ):
        if isinstance(left, str) or isinstance(right, str):
            left, right = str(left), str(right)
    try:
        return (left > right) - (left < right)
    except TypeError:
        raise SQLTypeError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        ) from None


def _numeric_pair(left, right):
    def to_num(v):
        if isinstance(v, bool):
            return int(v)
        if isinstance(v, Decimal):
            return float(v)
        if isinstance(v, (int, float)):
            return v
        raise SQLTypeError(f"cannot compare {v!r} numerically")

    return to_num(left), to_num(right)


def _varchar(value: object) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (datetime.date, datetime.datetime)):
        return value.isoformat()
    return str(value)


def membership(value: object, candidates) -> bool | None:
    """SQL IN semantics: TRUE on match, NULL if nulls prevent certainty."""
    saw_null = value is None
    for candidate in candidates:
        if candidate is None:
            saw_null = True
            continue
        if value is not None and _compare_values(value, candidate) == 0:
            return True
    return None if saw_null else False


def literal_in_probe(
    items: list[ast.Expression],
) -> Callable[[object], bool | None] | None:
    """A hash probe with :func:`membership` semantics for a numeric IN list.

    Returns None unless every item is an int/float literal (or NULL) — the
    shape of a semijoin key list.  The probe hashes ``int`` and ``float``
    values directly (Python compares them exactly, as ``compare_values``
    does) and a ``Decimal`` as its float, the coercion ``compare_values``
    applies, so ``1``, ``1.0`` and ``Decimal(1)`` all match.  A NULL item
    turns a miss into NULL.  Anything else — NULL, ``bool``, strings,
    dates, and NaN (which ``compare_values`` equates with every number) —
    goes through :func:`membership` itself.
    """
    if not all(isinstance(item, ast.Literal) for item in items):
        return None
    candidates = [item.value for item in items]
    numbers = [c for c in candidates if c is not None]
    if not all(type(c) in (int, float) and c == c for c in numbers):
        return None
    keys = frozenset(numbers)
    miss = None if len(numbers) < len(candidates) else False

    def probe(value: object) -> bool | None:
        kind = type(value)
        if value is None:
            return None
        if kind is Decimal:
            value = float(value)
        elif kind is not int and kind is not float:
            return membership(value, candidates)
        if value in keys:
            return True
        return miss if value == value else membership(value, candidates)

    return probe


_LIKE_CACHE: dict[str, re.Pattern] = {}


def _like_regex(pattern: str) -> re.Pattern:
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        regex = ["^"]
        for ch in pattern:
            if ch == "%":
                regex.append(".*")
            elif ch == "_":
                regex.append(".")
            else:
                regex.append(re.escape(ch))
        regex.append("$")
        compiled = re.compile("".join(regex), re.DOTALL)
        if len(_LIKE_CACHE) > 1024:
            _LIKE_CACHE.clear()
        _LIKE_CACHE[pattern] = compiled
    return compiled


def _like_match(value: str, pattern: str) -> bool:
    return _like_regex(pattern).match(value) is not None


# ---------------------------------------------------------------------------
# Scalar kernels
#
# One function per operator, None handling included.  Both engines share
# these: the row evaluator dispatches per AST node, the columnar engine
# (``repro.engine.columnar``) applies one kernel over a whole column, so
# operator semantics cannot drift between the two paths.
# ---------------------------------------------------------------------------


def _k_like(left, right):
    if left is None or right is None:
        return None
    return _like_match(str(left), str(right))


def _k_not_like(left, right):
    if left is None or right is None:
        return None
    return not _like_match(str(left), str(right))


def _k_eq(left, right):
    if left is None or right is None:
        return None
    return _compare_values(left, right) == 0


def _k_ne(left, right):
    if left is None or right is None:
        return None
    return _compare_values(left, right) != 0


def _k_lt(left, right):
    if left is None or right is None:
        return None
    return _compare_values(left, right) < 0


def _k_le(left, right):
    if left is None or right is None:
        return None
    return _compare_values(left, right) <= 0


def _k_gt(left, right):
    if left is None or right is None:
        return None
    return _compare_values(left, right) > 0


def _k_ge(left, right):
    if left is None or right is None:
        return None
    return _compare_values(left, right) >= 0


def _k_concat(left, right):
    if left is None or right is None:
        return None
    return _varchar(left) + _varchar(right)


def _k_add(left, right):
    if left is None or right is None:
        return None
    if isinstance(left, (datetime.date, datetime.datetime)):
        _require_number(right, "date arithmetic")
        return left + datetime.timedelta(days=float(right))
    _require_number(left, "+")
    _require_number(right, "+")
    return _arith(left, right, lambda a, b: a + b)


def _k_sub(left, right):
    if left is None or right is None:
        return None
    if isinstance(left, (datetime.date, datetime.datetime)):
        if isinstance(right, (datetime.date, datetime.datetime)):
            return (left - right).days
        _require_number(right, "date arithmetic")
        return left - datetime.timedelta(days=float(right))
    _require_number(left, "-")
    _require_number(right, "-")
    return _arith(left, right, lambda a, b: a - b)


def _k_mul(left, right):
    if left is None or right is None:
        return None
    _require_number(left, "*")
    _require_number(right, "*")
    return _arith(left, right, lambda a, b: a * b)


def _k_div(left, right):
    if left is None or right is None:
        return None
    _require_number(left, "/")
    _require_number(right, "/")
    if right == 0:
        raise ExecutionError("division by zero")
    if isinstance(left, int) and isinstance(right, int):
        if left % right == 0:
            return left // right
        return left / right
    return _arith(left, right, lambda a, b: a / b)


def _k_mod(left, right):
    if left is None or right is None:
        return None
    _require_number(left, "%")
    _require_number(right, "%")
    if right == 0:
        raise ExecutionError("division by zero")
    return _arith(left, right, lambda a, b: a % b)


BINARY_KERNELS: dict[str, Callable[[object, object], object]] = {
    "LIKE": _k_like,
    "NOT LIKE": _k_not_like,
    "=": _k_eq,
    "<>": _k_ne,
    "<": _k_lt,
    "<=": _k_le,
    ">": _k_gt,
    ">=": _k_ge,
    "||": _k_concat,
    "+": _k_add,
    "-": _k_sub,
    "*": _k_mul,
    "/": _k_div,
    "%": _k_mod,
}


def _k_not(value):
    return tv_not(_as_bool(value))


def _k_neg(value):
    if value is None:
        return None
    _require_number(value, "unary -")
    return -value


def _k_pos(value):
    if value is None:
        return None
    _require_number(value, "unary +")
    return value


UNARY_KERNELS: dict[str, Callable[[object], object]] = {
    "NOT": _k_not,
    "-": _k_neg,
    "+": _k_pos,
}


# ---------------------------------------------------------------------------
# Built-in scalar functions
# ---------------------------------------------------------------------------


def _fn_upper(env, args):
    (value,) = args
    return None if value is None else str(value).upper()


def _fn_lower(env, args):
    (value,) = args
    return None if value is None else str(value).lower()


def _fn_length(env, args):
    (value,) = args
    return None if value is None else len(str(value))


def _fn_substr(env, args):
    value = args[0]
    if value is None:
        return None
    text = str(value)
    start = int(args[1])
    begin = start - 1 if start > 0 else max(len(text) + start, 0)
    if len(args) >= 3:
        if args[2] is None:
            return None
        return text[begin : begin + int(args[2])]
    return text[begin:]


def _fn_abs(env, args):
    (value,) = args
    return None if value is None else abs(value)


def _fn_round(env, args):
    value = args[0]
    if value is None:
        return None
    digits = int(args[1]) if len(args) > 1 else 0
    result = round(float(value), digits)
    return int(result) if digits <= 0 else result


def _fn_floor(env, args):
    import math

    (value,) = args
    return None if value is None else math.floor(value)


def _fn_ceil(env, args):
    import math

    (value,) = args
    return None if value is None else math.ceil(value)


def _fn_mod(env, args):
    left, right = args
    if left is None or right is None:
        return None
    if right == 0:
        raise ExecutionError("MOD by zero")
    return left % right


def _fn_coalesce(env, args):
    for value in args:
        if value is not None:
            return value
    return None


def _fn_nullif(env, args):
    left, right = args
    if left is not None and right is not None and _compare_values(left, right) == 0:
        return None
    return left


def _fn_trim(env, args):
    (value,) = args
    return None if value is None else str(value).strip()


def _fn_concat(env, args):
    return "".join(_varchar(a) for a in args if a is not None)


def _fn_now(env, args):
    return env.now


def _fn_current_date(env, args):
    return env.now.date()


def _fn_greatest(env, args):
    values = [a for a in args if a is not None]
    if len(values) != len(args):
        return None
    result = values[0]
    for value in values[1:]:
        if _compare_values(value, result) > 0:
            result = value
    return result


def _fn_least(env, args):
    values = [a for a in args if a is not None]
    if len(values) != len(args):
        return None
    result = values[0]
    for value in values[1:]:
        if _compare_values(value, result) < 0:
            result = value
    return result


BUILTIN_FUNCTIONS: dict[str, Callable[[EvalEnv, list], object]] = {
    "UPPER": _fn_upper,
    "LOWER": _fn_lower,
    "LENGTH": _fn_length,
    "SUBSTR": _fn_substr,
    "SUBSTRING": _fn_substr,
    "ABS": _fn_abs,
    "ROUND": _fn_round,
    "FLOOR": _fn_floor,
    "CEIL": _fn_ceil,
    "CEILING": _fn_ceil,
    "MOD": _fn_mod,
    "COALESCE": _fn_coalesce,
    "NVL": _fn_coalesce,
    "NULLIF": _fn_nullif,
    "TRIM": _fn_trim,
    "CONCAT": _fn_concat,
    "NOW": _fn_now,
    "SYSDATE": _fn_current_date,
    "CURRENT_DATE": _fn_current_date,
    "GREATEST": _fn_greatest,
    "LEAST": _fn_least,
}

compare_values = _compare_values
as_bool = _as_bool
