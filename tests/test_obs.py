"""Observability tests: tracer, metrics, system wiring, EXPLAIN ANALYZE."""

import threading
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MyriadSystem
from repro.engine import LocalEngine, LocalPlanner, ResultSet
from repro.engine.columnar import Batch
from repro.net import MessageTrace
from repro.obs import (
    DISABLED,
    DISABLED_REPORT,
    NULL_SPAN,
    MetricsRegistry,
    Observability,
    Tracer,
    obs_of,
    percentile,
    render_explain_analyze,
)
from repro.query.executor import GlobalResult
from repro.query.localizer import Fetch
from repro.sql import parse_statement
from repro.storage import (
    FLOAT,
    INTEGER,
    Catalog,
    Column,
    Fragment,
    Index,
    Table,
    TableSchema,
)
from repro.workloads import build_bank_sites, build_two_site_join

JOIN_SQL = (
    "SELECT lhs.k, rhs.val FROM lhs, rhs "
    "WHERE lhs.k = rhs.k AND lhs.flt < 0.5"
)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nesting_builds_parent_child_tree(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("mid") as mid:
                with tracer.span("leaf") as leaf:
                    pass
        assert outer.parent is None
        assert mid.parent is outer
        assert leaf.parent is mid
        assert outer.children == [mid]
        assert mid.children == [leaf]
        assert list(tracer.roots) == [outer]

    def test_wall_clock_recorded(self):
        tracer = Tracer()
        with tracer.span("op") as span:
            pass
        assert span.wall_s >= 0.0
        assert span.sim_s is None
        span.set_sim(0.25)
        assert span.sim_s == 0.25

    def test_tags_at_creation_and_later(self):
        tracer = Tracer()
        with tracer.span("op", site="a") as span:
            span.tag(rows=3)
        assert span.tags == {"site": "a", "rows": 3}

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("op") as span:
                raise ValueError("boom")
        assert span.error == "ValueError: boom"
        # the stack is unwound: a new span is a fresh root
        with tracer.span("next") as span2:
            pass
        assert span2.parent is None
        assert len(tracer.roots) == 2

    def test_disabled_tracer_is_noop(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("op", site="a")
        assert span is NULL_SPAN
        with span as inner:
            inner.tag(x=1).set_sim(2.0)
        assert len(tracer.roots) == 0

    def test_max_roots_evicts_oldest(self):
        tracer = Tracer(max_roots=3)
        for index in range(5):
            with tracer.span(f"op{index}"):
                pass
        assert [root.name for root in tracer.roots] == ["op2", "op3", "op4"]

    def test_eviction_is_counted_not_silent(self):
        tracer = Tracer(max_roots=3)
        for index in range(5):
            with tracer.span(f"op{index}"):
                pass
        assert tracer.dropped == 2
        text = tracer.render()
        assert "trace truncated: 2 older root spans dropped" in text
        assert "3-root buffer" in text

    def test_no_eviction_no_truncation_banner(self):
        tracer = Tracer(max_roots=8)
        with tracer.span("only"):
            pass
        assert tracer.dropped == 0
        assert "truncated" not in tracer.render()

    def test_clear_resets_drop_counter(self):
        tracer = Tracer(max_roots=1)
        for index in range(3):
            with tracer.span(f"op{index}"):
                pass
        assert tracer.dropped == 2
        tracer.clear()
        assert tracer.dropped == 0
        assert len(tracer.roots) == 0

    def test_eviction_increments_spans_dropped_metric(self):
        obs = Observability(max_roots=2)
        for index in range(5):
            with obs.span(f"op{index}"):
                pass
        assert obs.tracer.dropped == 3
        assert obs.metrics.counter("obs.spans_dropped") == 3
        report = obs.render()
        assert "trace truncated: 3 older root spans dropped" in report
        assert "obs.spans_dropped" in report

    def test_find_searches_all_roots_recursively(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("fetch"):
                pass
            with tracer.span("fetch"):
                pass
        with tracer.span("fetch"):
            pass
        assert len(tracer.find("fetch")) == 3

    def test_render_shows_tree_and_tags(self):
        tracer = Tracer()
        with tracer.span("query", federation="corp"):
            with tracer.span("fetch") as inner:
                inner.set_sim(0.001)
        text = tracer.render()
        assert "query [federation=corp]" in text
        assert "  fetch" in text
        assert "sim=1.000ms" in text

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()
        results = {}

        def worker():
            with tracer.span("thread-op") as span:
                results["parent"] = span.parent

        with tracer.span("main-op"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # the worker's span must not nest under the main thread's open span
        assert results["parent"] is None
        assert len(tracer.roots) == 2


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counters_with_labels(self):
        metrics = MetricsRegistry()
        metrics.inc("rows", 5, site="a")
        metrics.inc("rows", 2, site="a")
        metrics.inc("rows", 7, site="b")
        assert metrics.counter("rows", site="a") == 5 + 2
        assert metrics.counter("rows", site="b") == 7
        assert metrics.counter_total("rows") == 14
        assert metrics.counter("rows", site="nope") == 0.0

    def test_gauges(self):
        metrics = MetricsRegistry()
        assert metrics.gauge("depth") is None
        metrics.set_gauge("depth", 3)
        metrics.set_gauge("depth", 5)
        assert metrics.gauge("depth") == 5

    def test_histogram_summary_percentiles(self):
        metrics = MetricsRegistry()
        for value in range(1, 101):  # 1..100
            metrics.observe("lat", float(value))
        summary = metrics.histogram_summary("lat")
        assert summary["count"] == 100
        assert summary["min"] == 1
        assert summary["max"] == 100
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["p50"] == 50
        assert summary["p95"] == 95
        assert summary["p99"] == 99

    def test_histogram_missing_series_is_none(self):
        assert MetricsRegistry().histogram_summary("nope") is None

    def test_percentile_nearest_rank(self):
        assert percentile([10.0], 99.0) == 10.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 99.0) == 4.0

    def test_percentile_empty_list_raises(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50.0)

    def test_percentile_single_sample_every_pct(self):
        for pct in (0.0, 1.0, 50.0, 99.0, 100.0):
            assert percentile([7.5], pct) == 7.5

    def test_percentile_100_is_the_maximum(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0]
        assert percentile(values, 100.0) == 5.0
        assert percentile(values, 0.0) == 1.0

    def test_percentile_clamps_out_of_range_pct(self):
        values = [1.0, 2.0, 3.0]
        assert percentile(values, -10.0) == percentile(values, 0.0)
        assert percentile(values, 250.0) == 3.0

    def test_histogram_summary_single_sample(self):
        metrics = MetricsRegistry()
        metrics.observe("lat", 42.0)
        summary = metrics.histogram_summary("lat")
        assert summary["count"] == 1
        assert summary["min"] == summary["max"] == summary["mean"] == 42.0
        assert summary["p50"] == summary["p95"] == summary["p99"] == 42.0

    def test_disabled_registry_records_nothing(self):
        metrics = MetricsRegistry(enabled=False)
        metrics.inc("c")
        metrics.set_gauge("g", 1)
        metrics.observe("h", 1.0)
        snap = metrics.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_reset_clears_everything(self):
        metrics = MetricsRegistry()
        metrics.inc("c")
        metrics.observe("h", 1.0)
        metrics.reset()
        assert metrics.counter_total("c") == 0
        assert metrics.histogram_summary("h") is None

    def test_render_groups_by_kind(self):
        metrics = MetricsRegistry()
        metrics.inc("msgs", 3, purpose="query")
        metrics.set_gauge("active", 2)
        metrics.observe("lat", 0.5)
        text = metrics.render()
        assert "-- counters --" in text
        assert "msgs{purpose=query}" in text
        assert "-- gauges --" in text
        assert "-- histograms --" in text

    def test_render_empty(self):
        assert "(no metrics recorded)" in MetricsRegistry().render()


# ---------------------------------------------------------------------------
# Observability handle + wiring helpers
# ---------------------------------------------------------------------------


class TestObservabilityHandle:
    def test_disabled_singleton(self):
        assert DISABLED.span("x") is NULL_SPAN
        DISABLED.metrics.inc("x")
        assert DISABLED.metrics.counter_total("x") == 0

    def test_obs_of_network_without_handle(self):
        class Bare:
            obs = None

        assert obs_of(Bare()) is DISABLED
        assert obs_of(object()) is DISABLED

    def test_reset_clears_both(self):
        obs = Observability()
        with obs.span("op"):
            obs.metrics.inc("c")
        obs.reset()
        assert len(obs.tracer.roots) == 0
        assert obs.metrics.counter_total("c") == 0


# ---------------------------------------------------------------------------
# System-level wiring
# ---------------------------------------------------------------------------


class TestSystemObservability:
    def test_query_produces_spans_and_metrics(self):
        system = build_two_site_join(40, 40)
        result = system.query("synth", JOIN_SQL)
        assert len(result.rows) > 0

        # span tree: query.execute → execute.stage → execute.fetch
        (root,) = system.tracer.find("query.execute")
        assert root.parent is None
        assert root.find("query.plan")
        stages = root.find("execute.stage")
        assert stages
        fetches = root.find("execute.fetch")
        assert len(fetches) == len(result.plan.fetches)
        for span in fetches:
            assert span.sim_s is not None and span.sim_s > 0
        assert root.find("execute.residual")

        # metrics: per-site shipping, per-purpose messages, query counters
        metrics = system.metrics
        assert metrics.counter("query.executed", strategy="cost") == 1
        assert metrics.counter("site.rows_shipped", site="s1") > 0
        assert metrics.counter("site.rows_shipped", site="s2") > 0
        assert metrics.counter_total("site.bytes_shipped") > 0
        assert metrics.counter("net.messages", purpose="query") > 0
        assert metrics.counter("net.messages", purpose="result") > 0
        summary = metrics.histogram_summary("query.sim_elapsed_s")
        assert summary["count"] == 1
        assert summary["max"] == pytest.approx(result.trace.elapsed_s)

    def test_transaction_metrics_and_spans(self):
        system = build_bank_sites(2, 4)
        txn = system.begin_transaction()
        txn.execute(
            "b0", "UPDATE account SET balance = balance - 10 WHERE acct = 0"
        )
        txn.execute(
            "b1", "UPDATE account SET balance = balance + 10 WHERE acct = 4"
        )
        txn.commit()

        metrics = system.metrics
        assert metrics.counter("txn.begun") == 1
        assert metrics.counter("txn.outcomes", outcome="committed") == 1
        (commit,) = system.tracer.find("txn.commit")
        assert commit.find("txn.prepare")
        decides = commit.find("txn.decide")
        assert [s.tags["decision"] for s in decides] == ["commit"]
        delivers = commit.find("txn.deliver")
        assert len(delivers) == 2
        assert commit.sim_s is not None and commit.sim_s > 0

    def test_transactional_reads_count_as_executed_queries(self):
        with build_bank_sites(2, 3) as system:
            txn = system.begin_transaction()
            result = system.transactional_query(
                txn, "bank", "SELECT acct, balance FROM accounts"
            )
            txn.commit()
            metrics = system.metrics
            assert metrics.counter("query.executed", strategy="cost") == 1
            assert metrics.counter("query.rows_fetched") == len(result.rows)
            summary = metrics.histogram_summary("query.sim_elapsed_s")
            assert summary["count"] == 1
            # Execution only: the branch openings before it are not in it.
            assert 0 < summary["max"] < result.elapsed_s
            # The request window counts it once, through its latency.
            assert system.obs.window.count(
                "query.latency_s", federation="bank"
            ) == 1

    def test_disabled_observability_records_nothing(self):
        system = build_two_site_join(20, 20, query_timeout=None)
        system.obs.enabled = False
        system.tracer.enabled = False
        system.metrics.enabled = False
        result = system.query("synth", JOIN_SQL)
        assert len(result.rows) >= 0
        assert len(system.tracer.roots) == 0
        assert system.metrics.counter_total("query.executed") == 0

    def test_observability_false_at_construction(self):
        system = MyriadSystem(observability=False)
        assert not system.obs.enabled
        assert system.obs.span("x") is NULL_SPAN
        assert system.network.obs is system.obs

    def test_report_renders_metrics_and_traces(self):
        system = build_two_site_join(20, 20)
        system.query("synth", JOIN_SQL)
        report = system.observability_report()
        assert "== metrics ==" in report
        assert "== traces (most recent last) ==" in report
        assert "query.execute" in report
        assert "site.rows_shipped" in report

    def test_dropped_messages_are_counted(self):
        system = build_two_site_join(20, 20)
        faults = system.inject_faults(seed=3)
        faults.drop_next(1, purpose="query")
        # The executor retries the dropped fetch, so the query succeeds —
        # but the loss is still counted.
        system.query("synth", JOIN_SQL)
        assert system.metrics.counter_total("net.dropped") == 1
        assert system.metrics.counter_total("query.fetch_retries") == 1

    def test_deadlock_monitor_sweep_metrics(self):
        from repro.txn.deadlock import GlobalDeadlockMonitor

        system = build_bank_sites(2, 4)
        monitor = GlobalDeadlockMonitor(system.gateways)
        assert monitor.obs is system.obs
        monitor.check_once()
        assert system.metrics.counter("deadlock.sweeps") == 1
        assert system.metrics.counter_total("deadlock.victims") == 0


# ---------------------------------------------------------------------------
# Disabled handle: explicit markers, never silently-empty output
# ---------------------------------------------------------------------------


class TestDisabledMarkers:
    def test_report_returns_explicit_marker(self):
        system = build_two_site_join(10, 10, observability=False)
        system.query("synth", JOIN_SQL)
        report = system.observability_report()
        assert report == DISABLED_REPORT
        assert "observability disabled" in report

    def test_prometheus_export_marks_disabled(self):
        from repro.obs.export import DISABLED_MARKER, metrics_to_prometheus

        assert metrics_to_prometheus(DISABLED.metrics) == DISABLED_MARKER
        assert "disabled" in DISABLED_MARKER

    def test_json_export_marks_disabled(self):
        import json

        from repro.obs.export import metrics_to_json

        assert json.loads(metrics_to_json(DISABLED.metrics)) == {
            "disabled": True
        }

    def test_chrome_trace_marks_disabled(self):
        from repro.obs.export import spans_to_chrome_trace

        for clock in ("wall", "sim"):
            trace = spans_to_chrome_trace(DISABLED.tracer, clock=clock)
            assert trace["traceEvents"] == []
            assert trace["otherData"]["disabled"] is True

    def test_dump_debug_bundle_raises_clear_error(self, tmp_path):
        from repro.errors import MyriadError

        system = build_two_site_join(10, 10, observability=False)
        with pytest.raises(MyriadError, match="observability is disabled"):
            system.dump_debug_bundle(tmp_path / "bundle")
        assert not (tmp_path / "bundle" / "MANIFEST.json").exists()


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE
# ---------------------------------------------------------------------------


class TestExplainAnalyze:
    def test_cost_plan_estimates_and_actuals(self):
        system = build_two_site_join(60, 60)
        result = system.query("synth", JOIN_SQL, optimizer="cost")
        text = result.explain_analyze()
        assert "EXPLAIN ANALYZE GlobalPlan[cost]" in text
        # the cost optimizer annotates a whole-plan estimate and per-fetch
        # estimates; execution fills the actuals
        assert "plan: estimated cost" in text
        assert "?" not in text.split("\n")[1]
        assert "est:    rows=" in text
        assert "actual: rows=" in text
        assert "(not executed)" not in text
        assert "residual:" in text
        assert f"result: {len(result.rows)} rows" in text

    def test_simple_plan_also_gets_estimates(self):
        system = build_two_site_join(60, 60)
        result = system.query("synth", JOIN_SQL, optimizer="simple")
        text = result.explain_analyze()
        assert "EXPLAIN ANALYZE GlobalPlan[simple]" in text
        # ship-all has no whole-plan cost estimate…
        assert "plan: estimated cost ?" in text
        # …but each fetch still carries est rows/bytes/time
        for line in text.split("\n"):
            if line.strip().startswith("est:"):
                assert "rows=?" not in line
                assert "bytes=?" not in line
                assert "time=?" not in line
        assert "actual: rows=" in text

    def test_actuals_match_trace_totals(self):
        system = build_two_site_join(40, 40)
        result = system.query("synth", JOIN_SQL, optimizer="simple")
        total_bytes = sum(a.bytes for a in result.fetch_actuals.values())
        total_msgs = sum(a.messages for a in result.fetch_actuals.values())
        assert total_bytes == result.trace.total_bytes
        assert total_msgs == result.trace.message_count
        fetched = sum(a.rows for a in result.fetch_actuals.values())
        assert fetched == result.fetched_rows

    def test_zero_fetch_fully_local_query(self):
        # A constant query localises to zero fetches: the report must not
        # fabricate fetch sections and the totals must degrade gracefully.
        system = build_two_site_join(10, 10)
        result = system.query("synth", "SELECT 1 + 2")
        assert result.rows == [(3,)]
        assert result.plan.fetches == []
        text = result.explain_analyze()
        assert "est:" not in text
        assert "actual:" not in text
        assert "0 messages, 0 bytes" in text
        assert "result: 1 rows (0 fetched from 0 fragments)" in text

    def test_retry_after_dropped_fetch_reports_full_actuals(self):
        # First attempt dies on a dropped fetch message; the retried query
        # must produce a complete report with no stale "(not executed)".
        system = build_two_site_join(20, 20)
        system.processor("synth").executor.fetch_retry_limit = 0
        system.inject_faults(seed=5).drop_next(1, purpose="query")
        with pytest.raises(Exception):
            system.query("synth", JOIN_SQL)
        result = system.query("synth", JOIN_SQL)
        text = result.explain_analyze()
        assert "(not executed)" not in text
        assert text.count("actual: rows=") == len(result.plan.fetches)
        fetched = sum(a.rows for a in result.fetch_actuals.values())
        assert fetched == result.fetched_rows

    def test_unannotated_estimates_render_as_question_marks(self):
        # A plan whose fetches carry no est_* annotations (and that never
        # executed) renders "?" estimates and "(not executed)" actuals.
        system = build_two_site_join(10, 10)
        plan = system.processor("synth").plan(JOIN_SQL, optimizer="cost")
        plan.estimated_cost_s = None
        for fetch in plan.fetches:
            fetch.est_rows = fetch.est_bytes = fetch.est_cost_s = None
        result = GlobalResult(
            columns=[], rows=[], plan=plan, trace=MessageTrace()
        )
        text = render_explain_analyze(result)
        assert "plan: estimated cost ?" in text
        assert text.count("est:    rows=? bytes=? time=?") == len(plan.fetches)
        assert text.count("actual: (not executed)") == len(plan.fetches)
        assert "result: 0 rows (0 fetched from" in text


# ---------------------------------------------------------------------------
# Fragment canonicalisation and the residual's keyed/keyless reads
# ---------------------------------------------------------------------------


def _residual(tables: dict, sql: str):
    """Run ``sql`` at a federation-site engine over ``tables``: fragments
    (read in place) or heap tables (in a catalog).  Returns the rows, the
    engine's report and the plan text."""
    catalog = Catalog("fed")
    fragments = {}
    for name, relation in tables.items():
        if isinstance(relation, Fragment):
            fragments[name] = relation
        else:
            table = catalog.create_table(relation.schema.rename(name))
            for _, row in relation.scan():
                table.insert(row)
    engine = LocalEngine(catalog)
    query = parse_statement(sql)
    rows = engine.execute_query(query, fragments=fragments).rows
    planner = LocalPlanner(catalog, fragments)
    return rows, engine.last_report, planner.plan_query(query).explain()


class TestRegisterFragmentDuplicates:
    def _executor_and_fetch(self):
        system = build_two_site_join(10, 10)
        executor = system.processor("synth").executor
        fetch = Fetch(
            index=0,
            site="s1",
            export="left_rel",
            binding="lhs",
            temp_name="__frag_lhs",
            columns=["k", "flt"],
        )
        return executor, fetch

    def _keyed_read(self, rows):
        executor, fetch = self._executor_and_fetch()
        fragment = executor._canonical_fragment(
            fetch, Fragment.from_rows(["k", "flt"], rows)
        )
        return fragment, _residual(
            {"__frag_lhs": fragment}, "SELECT k, flt FROM __frag_lhs WHERE k = 1"
        )

    def test_duplicate_pk_rows_fall_back_to_keyless(self):
        fragment, (rows, report, plan) = self._keyed_read(
            [(1, 0.5), (1, 0.6), (2, 0.7)]
        )
        assert len(fragment) == 3
        assert fragment.key_index() is None
        assert rows == [(1, 0.5), (1, 0.6)]
        assert report.rows_scanned == 3 and "KEY" not in plan

    def test_null_pk_rows_fall_back_to_keyless(self):
        fragment, (rows, report, plan) = self._keyed_read([(None, 0.5), (2, 0.7)])
        assert len(fragment) == 2
        assert fragment.key_index() is None
        assert rows == [] and report.rows_scanned == 2 and "KEY" not in plan

    def test_unique_pk_rows_keep_the_key(self):
        fragment, (rows, report, plan) = self._keyed_read([(1, 0.5), (2, 0.7)])
        assert len(fragment) == 2
        assert [k.lower() for k in fragment.key] == ["k"]
        assert fragment.key_index() is not None
        assert rows == [(1, 0.5)]
        assert report.rows_scanned == 1 and "KEY = (1,)" in plan


def _register_per_row(rows):
    """The per-row registration the canonical fragment replaced: pre-scan
    the raw keys for duplicates or NULLs, then ``Table.insert`` every row."""
    columns = [Column("k", INTEGER), Column("flt", FLOAT)]
    keys = [row[0] for row in rows]
    keyed = None not in keys and len(set(keys)) == len(keys)
    table = Table(TableSchema("__frag_lhs", columns, ["k"] if keyed else []))
    for row in rows:
        table.insert(row)
    return table


def _registration(register):
    """Rows, their Python types and the key the residual may probe by, or
    the error raised; plus what key-probing residual reads return."""
    try:
        relation = register()
    except Exception as error:
        return ("error", type(error), str(error))
    if isinstance(relation, Fragment):
        rows = relation.rows()
        key = list(relation.key) if relation.key_index() is not None else []
    else:
        rows = [row for _, row in relation.scan()]
        key = relation.schema.primary_key
    reads = [
        _residual({"__frag_lhs": relation}, f"SELECT * FROM __frag_lhs {where}")
        for where in ("WHERE k = 1", "WHERE k >= 1", "WHERE k < 2")
    ]
    return (
        rows,
        [tuple(map(type, row)) for row in rows],
        key,
        [(rows, report.rows_scanned) for rows, report, _ in reads],
    )


class TestRegisterFragmentBulk:
    """The canonical fragment against the per-row registration it replaced."""

    # Key values that collide in a set (1, 1.0, True; 0, False), a NULL
    # and a non-integral float; FLOAT values of every coercible type.
    KEYS = st.sampled_from([None, 0, False, 1, 1.0, True, 2, 2.0, 2.5, "3"])
    FLTS = st.sampled_from([None, 0.5, 1, True, "0.25", "x", Decimal("1.5")])

    def test_matches_per_row_registration(self):
        executor, fetch = TestRegisterFragmentDuplicates()._executor_and_fetch()

        @settings(max_examples=300, deadline=None)
        @given(st.lists(st.tuples(self.KEYS, self.FLTS), max_size=8))
        def check(rows):
            def canonical():
                return executor._canonical_fragment(
                    fetch, Fragment.from_rows(["k", "flt"], rows)
                )

            assert _registration(canonical) == _registration(
                lambda: _register_per_row(rows)
            )

        check()

    def test_canonical_fragment_takes_no_per_row_path(self, monkeypatch):
        executor, fetch = TestRegisterFragmentDuplicates()._executor_and_fetch()

        def refuse(*args, **kwargs):
            raise AssertionError("per-row path taken")

        for owner, name in (
            (Table, "insert"),
            (TableSchema, "validate_row"),
            (Column, "validate"),
            (Index, "insert"),
        ):
            monkeypatch.setattr(owner, name, refuse)
        shipped = Fragment.from_rows(
            ["k", "flt"], [(k, k / 1000) for k in range(1000)]
        )
        fragment = executor._canonical_fragment(fetch, shipped)
        assert fragment.key == ("k",)
        assert all(a is b for a, b in zip(fragment.columns, shipped.columns))
        rows, report, _ = _residual(
            {"__frag_lhs": fragment}, "SELECT * FROM __frag_lhs WHERE k = 7"
        )
        assert rows == [(7, 0.007)] and report.rows_scanned == 1

    def test_batch_residual_reads_fragments_in_place(self, monkeypatch):
        """A canonical 2,000-row fragment joined by a batch residual is
        never transposed, inserted or validated value by value."""
        executor, fetch = TestRegisterFragmentDuplicates()._executor_and_fetch()
        right = Fetch(
            index=1,
            site="s2",
            export="right_rel",
            binding="rhs",
            temp_name="__frag_rhs",
            columns=["k", "val"],
        )

        def refuse(*args, **kwargs):
            raise AssertionError("per-row path taken")

        for owner, name in (
            (Batch, "from_rows"),
            (Table, "insert"),
            (Column, "validate"),
        ):
            monkeypatch.setattr(owner, name, refuse)
        n = 2000
        fragments = {
            "__frag_lhs": executor._canonical_fragment(
                fetch,
                Fragment.from_rows(["k", "flt"], [(k, k / n) for k in range(n)]),
            ),
            "__frag_rhs": executor._canonical_fragment(
                right,
                Fragment.from_rows(
                    ["k", "val"], [(k, float(k)) for k in range(n)]
                ),
            ),
        }
        rows, report, plan = _residual(
            fragments,
            "SELECT l.k, r.val FROM __frag_lhs l JOIN __frag_rhs r "
            "ON l.k = r.k WHERE l.flt < 0.5",
        )
        assert report.strategy == "batch"
        assert report.rows_scanned == 2 * n
        assert rows == [(k, float(k)) for k in range(n // 2)]
        assert plan.count("FragmentScan") == 2
