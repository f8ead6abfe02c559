"""Unit tests for the global cost model and selectivity estimation."""

import pytest

from repro.myriad import MyriadSystem
from repro.query.cost import CostModel
from repro.sql import parse_expression


@pytest.fixture
def model():
    system = MyriadSystem()
    gateway = system.add_postgres("s")
    gateway.dbms.execute(
        "CREATE TABLE t (k INTEGER PRIMARY KEY, grp INTEGER, val FLOAT, "
        "name VARCHAR(16))"
    )
    session = gateway.dbms.connect()
    session.begin()
    for i in range(200):
        session.execute(
            "INSERT INTO t VALUES (?, ?, ?, ?)",
            [i, i % 10, float(i), f"n{i % 4}"],
        )
    session.commit()
    gateway.export_table("t", "rel", ["k", "grp", "val", "name"])
    return CostModel(system.gateways, system.network), system


class TestSelectivity:
    def test_no_predicate_is_one(self, model):
        cost_model, _ = model
        stats = cost_model.export_stats("s", "rel")
        assert cost_model.predicate_selectivity(stats, None) == 1.0

    def test_equality_uses_distinct_count(self, model):
        cost_model, _ = model
        stats = cost_model.export_stats("s", "rel")
        sel = cost_model.predicate_selectivity(
            stats, parse_expression("grp = 3")
        )
        assert sel == pytest.approx(0.1)

    def test_pk_equality_is_one_row(self, model):
        cost_model, _ = model
        stats = cost_model.export_stats("s", "rel")
        sel = cost_model.predicate_selectivity(stats, parse_expression("k = 3"))
        assert sel == pytest.approx(1 / 200)

    def test_range_uses_histogram(self, model):
        cost_model, _ = model
        stats = cost_model.export_stats("s", "rel")
        sel = cost_model.predicate_selectivity(
            stats, parse_expression("val < 50.0")
        )
        assert 0.15 < sel < 0.35

    def test_conjunction_multiplies(self, model):
        cost_model, _ = model
        stats = cost_model.export_stats("s", "rel")
        single = cost_model.predicate_selectivity(
            stats, parse_expression("grp = 3")
        )
        double = cost_model.predicate_selectivity(
            stats, parse_expression("grp = 3 AND name = 'n1'")
        )
        assert double == pytest.approx(single * 0.25, rel=0.01)

    def test_disjunction_adds(self, model):
        cost_model, _ = model
        stats = cost_model.export_stats("s", "rel")
        sel = cost_model.predicate_selectivity(
            stats, parse_expression("grp = 1 OR grp = 2")
        )
        assert sel == pytest.approx(0.1 + 0.1 - 0.01)

    def test_inequality_complements(self, model):
        cost_model, _ = model
        stats = cost_model.export_stats("s", "rel")
        sel = cost_model.predicate_selectivity(
            stats, parse_expression("grp <> 3")
        )
        assert sel == pytest.approx(0.9)

    def test_in_list_uses_column_stats(self, model):
        # regression: IN used to charge the System-R default (0.1) per
        # item even when per-column statistics existed
        cost_model, _ = model
        stats = cost_model.export_stats("s", "rel")
        sel = cost_model.predicate_selectivity(
            stats, parse_expression("grp IN (1, 2, 3)")
        )
        assert sel == pytest.approx(0.3)

    def test_in_list_over_key_column_is_selective(self, model):
        cost_model, _ = model
        stats = cost_model.export_stats("s", "rel")
        sel = cost_model.predicate_selectivity(
            stats, parse_expression("k IN (1, 2, 3, 4)")
        )
        assert sel == pytest.approx(4 / 200)

    def test_in_list_dedupes_duplicate_literals(self, model):
        # regression: generated semijoin key lists repeat literals; each
        # occurrence used to count as a fresh disjunct
        cost_model, _ = model
        stats = cost_model.export_stats("s", "rel")
        deduped = cost_model.predicate_selectivity(
            stats, parse_expression("grp IN (1, 1, 1)")
        )
        assert deduped == pytest.approx(0.1)

    def test_not_in_complements(self, model):
        cost_model, _ = model
        stats = cost_model.export_stats("s", "rel")
        sel = cost_model.predicate_selectivity(
            stats, parse_expression("grp NOT IN (1, 2)")
        )
        assert sel == pytest.approx(0.8)

    def test_never_zero_or_above_one(self, model):
        cost_model, _ = model
        stats = cost_model.export_stats("s", "rel")
        tiny = cost_model.predicate_selectivity(
            stats,
            parse_expression("k = 1 AND k = 2 AND k = 3 AND k = 4 AND k = 5"),
        )
        assert tiny > 0
        big = cost_model.predicate_selectivity(
            stats, parse_expression("grp = 1 OR grp <> 1")
        )
        assert big <= 1.0


class TestFragmentEstimates:
    def test_rows_scale_with_predicate(self, model):
        cost_model, _ = model
        full = cost_model.estimate_fragment("s", "rel", None, None)
        filtered = cost_model.estimate_fragment(
            "s", "rel", None, parse_expression("grp = 3")
        )
        assert full.rows == 200
        assert filtered.rows == pytest.approx(20)

    def test_row_bytes_scale_with_columns(self, model):
        cost_model, _ = model
        wide = cost_model.estimate_fragment("s", "rel", None, None)
        narrow = cost_model.estimate_fragment("s", "rel", ["k"], None)
        assert narrow.row_bytes < wide.row_bytes
        assert narrow.total_bytes < wide.total_bytes

    def test_projected_width_uses_per_column_byte_stats(self, model):
        # regression: a projection used to be charged an even share of
        # avg_row_bytes per column regardless of the columns' real widths
        cost_model, _ = model
        stats = cost_model.export_stats("s", "rel")
        # k INTEGER → 8 bytes; name 'n0'..'n3' → 2 + 4 = 6 bytes
        key_only = cost_model.estimate_fragment("s", "rel", ["k"], None)
        name_only = cost_model.estimate_fragment("s", "rel", ["name"], None)
        assert key_only.row_bytes == pytest.approx(8.0)
        assert name_only.row_bytes == pytest.approx(6.0)
        # all columns together reproduce the full row width
        every = cost_model.estimate_fragment(
            "s", "rel", ["k", "grp", "val", "name"], None
        )
        assert every.row_bytes == pytest.approx(stats.avg_row_bytes)

    def test_fetch_cost_monotone_in_size(self, model):
        cost_model, _ = model
        cheap = cost_model.fetch_cost(
            "s", "rel", ["k"], parse_expression("grp = 3")
        )
        expensive = cost_model.fetch_cost("s", "rel", None, None)
        assert cheap < expensive

    def test_transfer_cost_includes_latency(self, model):
        cost_model, _ = model
        assert cost_model.transfer_cost("s", 0) > 0
        assert cost_model.transfer_cost("s", 1_000_000) > (
            cost_model.transfer_cost("s", 0)
        )


class TestSemijoinBenefit:
    def test_positive_for_selective_source(self, model):
        cost_model, system = model
        gateway2 = system.add_oracle("s2")
        gateway2.dbms.execute(
            "CREATE TABLE big (k INTEGER PRIMARY KEY, pad VARCHAR2(64))"
        )
        session = gateway2.dbms.connect()
        session.begin()
        for i in range(2000):
            session.execute(
                "INSERT INTO big VALUES (?, ?)", [i, "x" * 64]
            )
        session.commit()
        gateway2.export_table("big", "big", ["k", "pad"])

        benefit = cost_model.semijoin_benefit(
            "s",
            "rel",
            parse_expression("grp = 3"),
            "k",
            "s2",
            "big",
            None,
            None,
            "k",
        )
        assert benefit > 0

    def test_negative_for_full_match(self, model):
        cost_model, _ = model
        # reducing rel by its own full key set cannot win
        benefit = cost_model.semijoin_benefit(
            "s", "rel", None, "k", "s", "rel", None, ["k"], "k"
        )
        assert benefit <= 0


_E3_JOIN = "SELECT l.k, r.val FROM lhs l JOIN rhs r ON l.k = r.k WHERE l.flt < 0.15"
_SEMIJOIN_PLAN = """GlobalPlan[cost]
  estimated cost: 226.58ms
  fetch #0 s1.left_rel AS left_rel: [k] WHERE flt < 0.15
  fetch #1 s2.right_rel AS right_rel: [k, val] SEMIJOIN keys from #0.k -> k
  note: semijoin: reduce fetch #1 by keys of #0.k (est. benefit {benefit})
  residual: SELECT l.k, r.val FROM (SELECT k FROM __f1_left_rel AS left_rel) \
AS l JOIN (SELECT k, val FROM __f2_right_rel AS right_rel) AS r ON l.k = r.k"""


class TestIndexProbeCosting:
    """Local work follows the component's access path."""

    @staticmethod
    def _cost(cost_model, predicate):
        # A fixed reply estimate isolates the local-work term.
        from repro.query.cost import FragmentEstimate

        return cost_model.fetch_cost(
            "s",
            "rel",
            ["k"],
            parse_expression(predicate) if predicate else None,
            estimate=FragmentEstimate(rows=1, row_bytes=8),
        )

    def test_pk_equality_charges_one_row(self, model):
        from repro.gateway import LOCAL_ROW_COST_S

        cost_model, _ = model
        saved = self._cost(cost_model, None) - self._cost(cost_model, "k = 3")
        assert saved == pytest.approx(199 * LOCAL_ROW_COST_S)
        assert self._cost(cost_model, "3 = k AND grp = 1") == pytest.approx(
            self._cost(cost_model, "k = 3")
        )

    @pytest.mark.parametrize(
        "predicate", ["grp = 3", "k < 3", "k <> 3", "k = NULL", "k = grp"]
    )
    def test_other_predicates_charge_a_full_scan(self, model, predicate):
        cost_model, _ = model
        assert self._cost(cost_model, predicate) == self._cost(cost_model, None)

    @pytest.mark.parametrize(
        "build, sql, expected",
        [
            (
                dict(left_rows=300, right_rows=4000, match_fraction=0.02,
                     payload_width=40, seed=31),
                _E3_JOIN,
                _SEMIJOIN_PLAN.format(benefit="47.83ms"),
            ),
            (
                dict(left_rows=300, right_rows=4000, match_fraction=0.9,
                     payload_width=40, seed=31),
                _E3_JOIN,
                _SEMIJOIN_PLAN.format(benefit="45.34ms"),
            ),
            (
                dict(left_rows=2000, right_rows=2000, match_fraction=1.0,
                     payload_width=32),
                "SELECT l.k, r.val FROM lhs l JOIN rhs r ON l.k = r.k "
                "WHERE l.flt < 0.7",
                """GlobalPlan[cost]
  estimated cost: 137.62ms
  fetch #0 s1.left_rel AS left_rel: [k] WHERE flt < 0.7
  fetch #1 s2.right_rel AS right_rel: [k, val]
  residual: SELECT l.k, r.val FROM (SELECT k FROM __f1_left_rel AS left_rel) \
AS l JOIN (SELECT k, val FROM __f2_right_rel AS right_rel) AS r ON l.k = r.k""",
            ),
            (
                dict(left_rows=800, right_rows=800, match_fraction=0.25,
                     payload_width=200),
                "SELECT l.k, l.pad, r.val, r.pad FROM lhs l JOIN rhs r "
                "ON l.k = r.k WHERE l.flt < 0.15",
                """GlobalPlan[cost]
  estimated cost: 221.61ms
  fetch #0 s1.left_rel AS left_rel: [k, pad] WHERE flt < 0.15
  fetch #1 s2.right_rel AS right_rel: [k, val, pad] SEMIJOIN keys from #0.k -> k
  note: semijoin: reduce fetch #1 by keys of #0.k (est. benefit 107.49ms)
  residual: SELECT l.k, l.pad, r.val, r.pad FROM (SELECT k, pad FROM \
__f1_left_rel AS left_rel) AS l JOIN (SELECT k, val, pad FROM __f2_right_rel \
AS right_rel) AS r ON l.k = r.k""",
            ),
        ],
        ids=["e3-match-0.02", "e3-match-0.9", "join_ship", "semijoin_join"],
    )
    def test_join_plans_unchanged(self, build, sql, expected):
        # Join fetches filter on ranges, never on an indexed equality, so
        # access-path costing must leave the E3 and ledger join plans alone.
        from repro.workloads import build_two_site_join

        system = build_two_site_join(**build)
        assert system.processor("synth").plan(sql, "cost").describe() == expected
