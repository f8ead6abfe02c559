"""Expression evaluator tests: operators, 3VL, functions, LIKE, CASE."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.expressions import (
    DEFAULT_NOW,
    EvalEnv,
    ExpressionEvaluator,
    OutputColumn,
    Scope,
)
from repro.errors import CatalogError, ExecutionError, SQLTypeError
from repro.sql import parse_expression


def evaluate(text, row=(), columns=(), env=None, outer=()):
    scope = Scope([OutputColumn(name, "t") for name in columns])
    evaluator = ExpressionEvaluator(scope, env or EvalEnv())
    return evaluator.eval(parse_expression(text), tuple(row), outer)


class TestArithmetic:
    def test_basics(self):
        assert evaluate("1 + 2 * 3") == 7
        assert evaluate("(1 + 2) * 3") == 9
        assert evaluate("7 / 2") == 3.5
        assert evaluate("8 / 2") == 4
        assert evaluate("7 % 3") == 1
        assert evaluate("-5 + 2") == -3

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            evaluate("1 / 0")
        with pytest.raises(ExecutionError):
            evaluate("1 % 0")

    def test_null_propagation(self):
        assert evaluate("NULL + 1") is None
        assert evaluate("1 * NULL") is None
        assert evaluate("-x", (None,), ("x",)) is None

    def test_type_error_on_string_arithmetic(self):
        with pytest.raises(SQLTypeError):
            evaluate("'a' + 1")

    def test_date_arithmetic(self):
        assert evaluate(
            "d + 1", (datetime.date(2020, 1, 1),), ("d",)
        ) == datetime.date(2020, 1, 2)
        assert (
            evaluate(
                "d - e",
                (datetime.date(2020, 1, 10), datetime.date(2020, 1, 1)),
                ("d", "e"),
            )
            == 9
        )


class TestComparisons:
    def test_numeric(self):
        assert evaluate("1 < 2") is True
        assert evaluate("2 <= 2") is True
        assert evaluate("3 <> 3") is False
        assert evaluate("1.5 = 1.5") is True

    def test_mixed_int_float(self):
        assert evaluate("1 = 1.0") is True

    def test_strings(self):
        assert evaluate("'abc' < 'abd'") is True

    def test_null_comparisons_are_null(self):
        assert evaluate("NULL = NULL") is None
        assert evaluate("1 < NULL") is None

    def test_boolean_logic(self):
        assert evaluate("TRUE AND FALSE") is False
        assert evaluate("TRUE OR NULL") is True
        assert evaluate("FALSE AND NULL") is False
        assert evaluate("NULL OR FALSE") is None
        assert evaluate("NOT NULL") is None

    def test_short_circuit(self):
        # The right side would divide by zero; AND must not evaluate it.
        assert evaluate("FALSE AND 1 / 0 = 1") is False
        assert evaluate("TRUE OR 1 / 0 = 1") is True


class TestPredicates:
    def test_between(self):
        assert evaluate("5 BETWEEN 1 AND 10") is True
        assert evaluate("0 BETWEEN 1 AND 10") is False
        assert evaluate("5 NOT BETWEEN 1 AND 10") is False
        assert evaluate("NULL BETWEEN 1 AND 2") is None

    def test_in_list(self):
        assert evaluate("2 IN (1, 2, 3)") is True
        assert evaluate("9 IN (1, 2, 3)") is False
        assert evaluate("9 NOT IN (1, 2, 3)") is True

    def test_in_list_null_semantics(self):
        assert evaluate("9 IN (1, NULL)") is None
        assert evaluate("1 IN (1, NULL)") is True
        assert evaluate("NULL IN (1, 2)") is None
        assert evaluate("9 NOT IN (1, NULL)") is None

    def test_is_null(self):
        assert evaluate("NULL IS NULL") is True
        assert evaluate("1 IS NULL") is False
        assert evaluate("1 IS NOT NULL") is True

    def test_like(self):
        assert evaluate("'hello' LIKE 'h%'") is True
        assert evaluate("'hello' LIKE 'h_llo'") is True
        assert evaluate("'hello' LIKE 'H%'") is False  # case-sensitive
        assert evaluate("'hello' NOT LIKE 'x%'") is True
        assert evaluate("'50%' LIKE '50%'") is True

    def test_like_special_chars_escaped(self):
        assert evaluate("'a.c' LIKE 'a.c'") is True
        assert evaluate("'abc' LIKE 'a.c'") is False  # dot is literal

    def test_like_null(self):
        assert evaluate("NULL LIKE 'x'") is None


class TestCase:
    def test_searched(self):
        text = "CASE WHEN x > 0 THEN 'pos' WHEN x < 0 THEN 'neg' ELSE 'zero' END"
        assert evaluate(text, (5,), ("x",)) == "pos"
        assert evaluate(text, (-5,), ("x",)) == "neg"
        assert evaluate(text, (0,), ("x",)) == "zero"

    def test_simple(self):
        text = "CASE x WHEN 1 THEN 'one' WHEN 2 THEN 'two' END"
        assert evaluate(text, (2,), ("x",)) == "two"
        assert evaluate(text, (3,), ("x",)) is None

    def test_null_operand_never_matches(self):
        text = "CASE x WHEN NULL THEN 'null!' ELSE 'other' END"
        assert evaluate(text, (None,), ("x",)) == "other"


class TestColumnsAndScopes:
    def test_qualified_and_unqualified(self):
        assert evaluate("t.a + a", (21,), ("a",)) == 42

    def test_unknown_column(self):
        with pytest.raises(CatalogError):
            evaluate("zzz")

    def test_ambiguous_column(self):
        scope = Scope([OutputColumn("a", "t1"), OutputColumn("a", "t2")])
        evaluator = ExpressionEvaluator(scope, EvalEnv())
        with pytest.raises(CatalogError):
            evaluator.eval(parse_expression("a"), (1, 2))
        # Qualified access works.
        assert evaluator.eval(parse_expression("t2.a"), (1, 2)) == 2

    def test_outer_scope_resolution(self):
        outer_scope = Scope([OutputColumn("o", "outer_t")])
        inner_scope = Scope([OutputColumn("i", "inner_t")], outer_scope)
        evaluator = ExpressionEvaluator(inner_scope, EvalEnv())
        value = evaluator.eval(
            parse_expression("i + outer_t.o"), (10,), ((32,),)
        )
        assert value == 42


class TestFunctions:
    def test_string_functions(self):
        assert evaluate("UPPER('ab')") == "AB"
        assert evaluate("LOWER('AB')") == "ab"
        assert evaluate("LENGTH('abc')") == 3
        assert evaluate("SUBSTR('hello', 2, 3)") == "ell"
        assert evaluate("SUBSTR('hello', 2)") == "ello"
        assert evaluate("TRIM('  x ')") == "x"
        assert evaluate("CONCAT('a', 'b', 'c')") == "abc"

    def test_numeric_functions(self):
        assert evaluate("ABS(-3)") == 3
        assert evaluate("ROUND(2.567, 2)") == 2.57
        assert evaluate("ROUND(2.5)") == 2
        assert evaluate("FLOOR(2.7)") == 2
        assert evaluate("CEIL(2.1)") == 3
        assert evaluate("MOD(7, 3)") == 1
        assert evaluate("GREATEST(1, 5, 3)") == 5
        assert evaluate("LEAST(1, 5, 3)") == 1

    def test_null_handling_in_functions(self):
        assert evaluate("UPPER(NULL)") is None
        assert evaluate("COALESCE(NULL, NULL, 3)") == 3
        assert evaluate("NVL(NULL, 'd')") == "d"
        assert evaluate("NULLIF(1, 1)") is None
        assert evaluate("NULLIF(1, 2)") == 1
        assert evaluate("GREATEST(1, NULL)") is None

    def test_clock_functions_deterministic(self):
        assert evaluate("NOW()") == DEFAULT_NOW
        assert evaluate("CURRENT_DATE()") == DEFAULT_NOW.date()
        assert evaluate("SYSDATE()") == DEFAULT_NOW.date()

    def test_custom_function(self):
        env = EvalEnv(functions={"DOUBLE_IT": lambda v: None if v is None else v * 2})
        assert evaluate("DOUBLE_IT(21)", env=env) == 42

    def test_unknown_function(self):
        with pytest.raises(ExecutionError):
            evaluate("NO_SUCH_FN(1)")

    def test_aggregate_outside_group_context(self):
        with pytest.raises(ExecutionError):
            evaluate("SUM(1)")

    def test_cast(self):
        assert evaluate("CAST('42' AS INTEGER)") == 42
        assert evaluate("CAST(1 AS VARCHAR)") == "1"
        assert evaluate("CAST('2020-01-02' AS DATE)") == datetime.date(2020, 1, 2)

    def test_concat_operator_coerces(self):
        assert evaluate("'n=' || 5") == "n=5"


_IN_VALUES = st.one_of(
    st.none(),
    st.integers(),
    st.integers(-3, 3),
    st.floats(allow_nan=True),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, float("inf")]),
    st.decimals(allow_nan=False, allow_infinity=False, places=2),
    st.booleans(),
    st.text(max_size=3),
    st.sampled_from(["1", "2.5", "x"]),
)
_IN_NUMBERS = st.one_of(
    st.integers(), st.integers(-3, 3), st.floats(), st.sampled_from([1.0, 2.5])
)


def _expected_in(value, items, negated):
    from repro.engine.expressions import membership
    from repro.storage.types import tv_not

    result = membership(value, items)
    return tv_not(result) if negated else result


def _outcome(run):
    try:
        return ("ok", run())
    except SQLTypeError:
        return ("error", None)


class TestInListProbe:
    """The hashed IN probe against :func:`membership`, on both engines."""

    @settings(max_examples=400, deadline=None)
    @given(
        values=st.lists(_IN_VALUES, min_size=1, max_size=6),
        items=st.one_of(
            st.lists(st.one_of(_IN_NUMBERS, st.none()), min_size=1, max_size=8),
            st.lists(_IN_VALUES, min_size=1, max_size=8),
        ),
        negated=st.booleans(),
    )
    def test_probe_matches_membership(self, values, items, negated):
        from repro.engine.columnar import compile_expr
        from repro.engine.operators import ExecContext
        from repro.sql import ast

        expr = ast.InList(
            ast.ColumnRef("x"), [ast.Literal(v) for v in items], negated
        )
        scope = Scope([OutputColumn("x", "t")])
        evaluator = ExpressionEvaluator(scope, EvalEnv())
        compiled = compile_expr(expr, scope)
        ctx = ExecContext(env=EvalEnv())
        for value in values:
            expected = _outcome(lambda: _expected_in(value, items, negated))
            row = _outcome(lambda: evaluator.eval(expr, (value,)))
            batch = _outcome(lambda: compiled([[value]], 1, None, ctx)[0])
            assert row == expected, (value, items)
            assert batch == expected, (value, items)

    def test_numeric_coercion_and_nulls(self):
        from decimal import Decimal

        from repro.engine.expressions import literal_in_probe
        from repro.sql import ast

        probe = literal_in_probe([ast.Literal(v) for v in (1, 2.5, None)])
        assert probe(1) is True
        assert probe(1.0) is True
        assert probe(Decimal(1)) is True
        assert probe(Decimal("2.5")) is True
        assert probe(7) is None  # a NULL item makes a miss unknown
        assert probe(None) is None
        assert literal_in_probe([ast.Literal(True)]) is None
        assert literal_in_probe([ast.Literal("a")]) is None
        assert literal_in_probe([ast.Literal(float("nan"))]) is None
        assert literal_in_probe([ast.ColumnRef("x")]) is None

    def test_probe_is_built_once_per_node(self, monkeypatch):
        import repro.engine.expressions as expressions

        builds = []
        original = expressions.literal_in_probe
        monkeypatch.setattr(
            expressions,
            "literal_in_probe",
            lambda items: builds.append(1) or original(items),
        )
        scope = Scope([OutputColumn("x", "t")])
        evaluator = ExpressionEvaluator(scope, EvalEnv())
        expr = parse_expression("x IN (1, 2, 3)")
        hits = [evaluator.eval(expr, (v,)) for v in range(5)]
        assert hits == [False, True, True, True, False]
        assert len(builds) == 1
