"""Adaptive optimization tests (experiment E17).

Covers the feedback loop end to end:

- predicate/fetch shapes abstract literals so learned cardinalities
  generalise across parameter values
- the RuntimeStatsStore's EWMA learning and drift-anchored versioning
- estimate error shrinking monotonically across repeated executions when
  gateway statistics are stale (skew injected behind the gateway's back)
- mid-query re-planning: a semijoin whose source materialises far bigger
  than estimated is dropped, with a measurable simulated-cost win
- the off-by-default contract: with both knobs off, accounting is
  bit-identical to a system that never heard of adaptivity
"""

import pytest

from repro.myriad import MyriadSystem
from repro.query.feedback import (
    RuntimeStatsStore,
    fragment_shape,
    predicate_shape,
    query_shape,
    rows_shape,
)
from repro.sql import parse_expression, parse_query

JOIN = "SELECT l.k, r.pad FROM lhs l JOIN rhs r ON l.k = r.k"


def build_skewed_join(
    initial_left: int = 3,
    final_left: int = 600,
    right_rows: int = 600,
    payload_width: int = 64,
    **system_kwargs,
):
    """Two-site join whose left-side statistics are stale by construction.

    Statistics are primed while ``left_t`` holds ``initial_left`` rows;
    the table then grows (or shrinks) to ``final_left`` through a *local*
    session the gateway never sees — exactly the autonomous-component
    drift MYRIAD gateways cannot observe.  Every right key matches a
    final left key, so the join result always has ``min(final_left,
    right_rows)`` rows.
    """
    system = MyriadSystem(query_timeout=5.0, **system_kwargs)
    s1 = system.add_postgres("s1")
    s2 = system.add_oracle("s2")
    s1.dbms.execute(
        "CREATE TABLE left_t (k INTEGER PRIMARY KEY, pad VARCHAR(8))"
    )
    s2.dbms.execute(
        "CREATE TABLE right_t (k INTEGER PRIMARY KEY, pad VARCHAR2(%d))"
        % payload_width
    )
    session = s1.dbms.connect()
    session.begin()
    for key in range(initial_left):
        session.execute("INSERT INTO left_t VALUES (?, ?)", [key, "y" * 8])
    session.commit()
    session = s2.dbms.connect()
    session.begin()
    for key in range(right_rows):
        session.execute(
            "INSERT INTO right_t VALUES (?, ?)", [key, "x" * payload_width]
        )
    session.commit()
    s1.export_table("left_t", "left_rel", ["k", "pad"])
    s2.export_table("right_t", "right_rel", ["k", "pad"])
    fed = system.create_federation("fed")
    fed.define_relation("lhs", "SELECT k, pad FROM s1.left_rel")
    fed.define_relation("rhs", "SELECT k, pad FROM s2.right_rel")
    # Prime the statistics caches on the pre-skew truth...
    s1.export_stats("left_rel")
    s2.export_stats("right_rel")
    # ...then drift the left table behind the gateway's back.
    session = s1.dbms.connect()
    session.begin()
    if final_left > initial_left:
        for key in range(initial_left, final_left):
            session.execute(
                "INSERT INTO left_t VALUES (?, ?)", [key, "y" * 8]
            )
    else:
        session.execute(
            "DELETE FROM left_t WHERE k >= ?", [final_left]
        )
    session.commit()
    return system


def estimate_error_bytes(result) -> float:
    """Sum over fetches of |estimated bytes - measured wire bytes|."""
    total = 0.0
    for fetch in result.plan.fetches:
        actual = result.fetch_actuals.get(fetch.index)
        if actual is None or fetch.est_bytes is None:
            continue
        total += abs(fetch.est_bytes - actual.bytes)
    return total


class TestShapes:
    def test_literals_are_anonymised(self):
        assert predicate_shape(
            parse_expression("grp = 3")
        ) == predicate_shape(parse_expression("grp = 42"))

    def test_structure_still_distinguishes(self):
        assert predicate_shape(
            parse_expression("grp = 3")
        ) != predicate_shape(parse_expression("grp = 3 AND val < 1.0"))
        assert predicate_shape(
            parse_expression("grp = 3")
        ) != predicate_shape(parse_expression("val = 3"))

    def test_no_predicate_shape(self):
        assert predicate_shape(None) == "-"

    def test_aggregate_block_shape_ignores_only_literals(self):
        def shape(sql):
            return query_shape(parse_query(sql))

        base = shape(
            "SELECT grp, SUM(val + 1) FROM t WHERE val > 10 "
            "GROUP BY grp HAVING COUNT(*) > 2"
        )
        assert base == shape(
            "SELECT grp, SUM(val + 7) FROM t WHERE val > 99 "
            "GROUP BY grp HAVING COUNT(*) > 5"
        )
        assert base != shape(
            "SELECT grp, SUM(pad + 1) FROM t WHERE val > 10 "
            "GROUP BY grp HAVING COUNT(*) > 2"
        )
        assert base != shape(
            "SELECT grp, AVG(val + 1) FROM t WHERE val > 10 "
            "GROUP BY grp HAVING COUNT(*) > 2"
        )

    def test_fragment_shape_varies_with_projection_and_semijoin(self):
        predicate = parse_expression("grp = 1")
        base = fragment_shape(["a", "b"], predicate)
        assert fragment_shape(["b", "a"], predicate) == base  # order-free
        assert fragment_shape(["a"], predicate) != base
        assert fragment_shape(["a", "b"], predicate, "k") != base

    def test_rows_shape_ignores_projection(self):
        predicate = parse_expression("grp = 1")
        assert rows_shape(predicate) == rows_shape(predicate)
        assert rows_shape(predicate) != fragment_shape(["a"], predicate)
        # but semijoin reduction still separates entries
        assert rows_shape(predicate, "k") != rows_shape(predicate)


class TestRuntimeStatsStore:
    def test_first_observation_bumps_version(self):
        store = RuntimeStatsStore()
        assert store.observe("s", "rel", "-", 100, 1000) is True
        assert store.version == 1

    def test_stable_observations_stop_bumping(self):
        store = RuntimeStatsStore()
        store.observe("s", "rel", "-", 100, 1000)
        for _ in range(5):
            assert store.observe("s", "rel", "-", 100, 1000) is False
        assert store.version == 1

    def test_drift_rebumps(self):
        store = RuntimeStatsStore()
        store.observe("s", "rel", "-", 100, 1000)
        assert store.observe("s", "rel", "-", 500, 5000) is True
        assert store.version == 2

    def test_ewma_learning(self):
        store = RuntimeStatsStore()
        store.observe("s", "rel", "-", 100, 1000)
        store.observe("s", "rel", "-", 200, 2000)
        entry = store.lookup("s", "rel", "-")
        assert entry.rows == pytest.approx(150)
        assert entry.samples == 2
        assert entry.confidence() == pytest.approx(2 / 3)

    def test_lookup_is_case_insensitive_on_export(self):
        store = RuntimeStatsStore()
        store.observe("s", "REL", "-", 10, 100)
        assert store.lookup("s", "rel", "-") is not None

    def test_capacity_evicts_lru(self):
        store = RuntimeStatsStore(capacity=2)
        store.observe("s", "rel", "a", 1, 1)
        store.observe("s", "rel", "b", 1, 1)
        store.observe("s", "rel", "c", 1, 1)
        assert len(store) == 2
        assert store.lookup("s", "rel", "a") is None

    def test_clear_bumps_version_once(self):
        store = RuntimeStatsStore()
        store.observe("s", "rel", "-", 1, 1)
        version = store.version
        store.clear()
        assert store.version == version + 1
        store.clear()  # empty: nothing to invalidate
        assert store.version == version + 1


class TestFeedbackLoop:
    def test_estimate_error_strictly_decreases(self):
        # Plan cache off: every run re-plans with the freshest learned
        # estimates, so convergence is visible run over run.
        with build_skewed_join(
            initial_left=50,
            final_left=600,
            adaptive_feedback=True,
            plan_cache_size=0,
            fragment_cache=False,
        ) as system:
            errors = [
                estimate_error_bytes(system.query("fed", JOIN))
                for _ in range(3)
            ]
        assert errors[0] > errors[1] > errors[2]

    def test_learned_rows_blend_toward_actuals(self):
        with build_skewed_join(
            initial_left=50,
            final_left=600,
            adaptive_feedback=True,
            plan_cache_size=0,
            fragment_cache=False,
        ) as system:
            first = system.query("fed", JOIN)
            second = system.query("fed", JOIN)
            lhs_first = next(
                f for f in first.plan.fetches if f.export == "left_rel"
            )
            lhs_second = next(
                f for f in second.plan.fetches if f.export == "left_rel"
            )
            # run 1 planned from stale statistics (50 rows); run 2 blends
            # the measured 600 with weight 1/2
            assert lhs_first.est_rows == pytest.approx(50)
            assert lhs_second.est_rows == pytest.approx(325)
            store = system.processor("fed").runtime_stats
            assert store.observations > 0
            assert len(store) > 0

    def test_first_run_identical_to_non_adaptive(self):
        # Before anything is learned, the blend is a no-op: the first
        # execution accounts identically with feedback on and off.
        with build_skewed_join(adaptive_feedback=True) as adaptive:
            on = adaptive.query("fed", JOIN)
        with build_skewed_join() as plain:
            off = plain.query("fed", JOIN)
        assert on.elapsed_s == off.elapsed_s
        assert on.bytes_shipped == off.bytes_shipped
        assert on.trace.message_count == off.trace.message_count
        assert sorted(on.rows) == sorted(off.rows)

    def test_feedback_event_emitted(self):
        with build_skewed_join(adaptive_feedback=True) as system:
            system.query("fed", JOIN)
            assert (
                system.metrics.counter_total("query.feedback_version_bumps")
                >= 1
            )
            assert system.events.of_type("query.feedback")


class TestMidQueryReplan:
    def test_overgrown_semijoin_source_drops_reduction(self):
        with build_skewed_join(adaptive_replan=True) as system:
            result = system.query("fed", JOIN)
        notes = "\n".join(result.plan.notes)
        assert "semijoin: reduce" in notes  # planned from stale stats
        assert "replan@stage0: drop semijoin" in notes
        assert any(
            getattr(f, "replanned", False) for f in result.plan.fetches
        )
        assert "(replanned)" in result.explain_analyze()
        assert system.metrics.counter_total("query.replans") == 1
        assert len(result.rows) == 600

    def test_replan_leaves_cached_plan_untouched(self):
        with build_skewed_join(
            adaptive_replan=True
        ) as system, build_skewed_join(adaptive_replan=True) as twin:
            processor = system.processor("fed")
            cached = processor.plan(JOIN)
            for _ in range(2):
                result = system.query("fed", JOIN)
                assert "(replanned)" in result.explain_analyze()
                assert result.plan is not cached
            assert processor.plan(JOIN) is cached
            assert system.metrics.counter_total("plancache.hit") == 3
            assert system.metrics.counter_total("query.replans") == 2
            fresh = twin.processor("fed").plan(JOIN)

        def fetch_fields(plan):
            return [
                (
                    fetch.est_rows,
                    fetch.est_bytes,
                    fetch.est_cost_s,
                    fetch.semijoin,
                    fetch.replanned,
                )
                for fetch in plan.fetches
            ]

        assert cached.describe() == fresh.describe()
        assert fetch_fields(cached) == fetch_fields(fresh)
        assert any(f.semijoin is not None for f in cached.fetches)
        assert not any(f.replanned for f in cached.fetches)

    def test_replan_event_carries_trigger(self):
        with build_skewed_join(adaptive_replan=True) as system:
            system.query("fed", JOIN)
            events = system.events.of_type("query.replan")
        assert len(events) == 1
        assert "divergence" in events[0].fields["trigger"]
        assert events[0].fields["changes"] == 1

    def test_replan_wins_simulated_cost(self):
        # Without re-planning, the stale plan ships 600 join keys to the
        # right site only to fetch every row anyway.
        with build_skewed_join(adaptive_replan=True) as system:
            adaptive = system.query("fed", JOIN)
        with build_skewed_join() as system:
            static = system.query("fed", JOIN)
        assert sorted(adaptive.rows) == sorted(static.rows)
        assert adaptive.bytes_shipped < static.bytes_shipped
        assert adaptive.elapsed_s < static.elapsed_s

    def test_no_trigger_means_no_replan(self):
        # Accurate statistics → actuals match estimates → the plan stands.
        with build_skewed_join(
            initial_left=3, final_left=3, adaptive_replan=True
        ) as system:
            result = system.query("fed", JOIN)
        assert "replan@" not in "\n".join(result.plan.notes)
        assert system.metrics.counter_total("query.replans") == 0

    def test_late_semijoin_added_on_shrunken_source(self):
        # The reverse mis-estimate: statistics say the left side is too
        # big for a semijoin to pay off, but it materialises tiny.  The
        # replanner grafts a reduction onto the still-pending fetch using
        # the exact key set already at the federation site.
        with build_skewed_join(
            initial_left=600, final_left=3, adaptive_replan=True
        ) as system:
            processor = system.processor("fed")
            plan = processor.plan(JOIN)
            lhs = next(f for f in plan.fetches if f.export == "left_rel")
            rhs = next(f for f in plan.fetches if f.export == "right_rel")
            assert rhs.semijoin is None  # not worth it per stale stats
            optimizer = processor.optimizers["cost"]
            revised, notes = optimizer.replan(
                plan,
                executed={lhs.index: (3.0, 100.0)},
                key_count=lambda index, column: 3,
                stage=0,
            )
        assert len(notes) == 1 and "add semijoin" in notes[0]
        grafted = revised.fetches[rhs.index]
        assert grafted.semijoin is not None
        assert grafted.semijoin.source_index == lhs.index
        assert grafted.replanned
        # The revision is a private copy: the (cached) plan is untouched.
        assert revised is not plan
        assert rhs.semijoin is None and not rhs.replanned
        assert not any("replan@" in note for note in plan.notes)


class TestKnobsOff:
    def test_defaults_are_off(self):
        system = MyriadSystem()
        assert system.config.adaptive_feedback is False
        assert system.config.adaptive_replan is False
        gateway = system.add_postgres("s")
        gateway.dbms.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        gateway.export_table("t", "t")
        fed = system.create_federation("f")
        fed.define_relation("rel", "SELECT id FROM s.t")
        with system:
            processor = system.processor("f")
            assert processor.runtime_stats is None
            assert processor.adaptive_replan is False

    def test_bit_identical_accounting_when_off(self):
        # The E12/E15 guarantee: explicit knobs-off equals a system built
        # before adaptivity existed, message for message.
        runs = []
        for kwargs in (
            {},
            {"adaptive_feedback": False, "adaptive_replan": False},
        ):
            with build_skewed_join(**kwargs) as system:
                result = system.query("fed", JOIN)
                runs.append(
                    (
                        result.elapsed_s,
                        result.bytes_shipped,
                        result.trace.message_count,
                        sorted(result.rows),
                    )
                )
        assert runs[0] == runs[1]

    def test_replan_threshold_knob_propagates(self):
        with build_skewed_join(adaptive_replan=True) as system:
            executor = system.processor("fed").executor
            assert executor.replan_threshold == 3.0
            # threshold too high to ever trigger: stale plan runs as-is
            executor.replan_threshold = 10_000.0
            result = system.query("fed", JOIN)
            assert executor.replan_threshold == 10_000.0
        assert "replan@" not in "\n".join(result.plan.notes)
