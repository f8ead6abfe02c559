"""Windowed metrics, SLO burn-rate alerting, tail sampling, request ids.

The PR-8 telemetry layer end to end: the ring-of-buckets
:class:`~repro.obs.window.WindowedMetrics` on the simulated clock, the
bounded histogram reservoirs in :class:`~repro.obs.metrics.MetricsRegistry`,
multi-window burn-rate :class:`~repro.obs.slo.SLO` alerting with
``slo.burn`` events, tail-based trace sampling, and the request-id
correlation contract (one stable id across spans, events, message records,
EXPLAIN ANALYZE, and debug bundles).
"""

import json

import pytest

from repro.obs import SLO, BurnRateRule, MetricsRegistry, Observability
from repro.obs.export import (
    load_debug_bundle,
    metrics_to_prometheus,
    spans_to_chrome_trace,
    validate_prometheus_text,
)
from repro.obs.introspect import (
    federation_stats,
    introspection_snapshot,
    render_dashboard,
)
from repro.obs.window import WindowedMetrics
from repro.workloads import build_bank_sites, build_two_site_join

JOIN_SQL = (
    "SELECT lhs.k, rhs.val FROM lhs, rhs "
    "WHERE lhs.k = rhs.k AND lhs.flt < 0.5"
)


class ManualClock:
    """A settable simulated clock for window/SLO unit tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------------
# Windowed metrics
# ---------------------------------------------------------------------------


class TestWindowedMetrics:
    def test_counts_and_rate_inside_window(self):
        clock = ManualClock()
        window = WindowedMetrics(bucket_s=1.0, bucket_count=10, clock=clock)
        for _ in range(5):
            window.inc("query.requests", federation="bank")
        clock.now = 3.0
        window.inc("query.requests", federation="bank")
        assert window.count("query.requests", federation="bank") == 6
        assert window.rate("query.requests", federation="bank") == 6 / 10.0
        # A narrower read only sees the recent bucket.
        assert window.count(
            "query.requests", window_s=2.0, federation="bank"
        ) == 1

    def test_old_buckets_age_out(self):
        clock = ManualClock()
        window = WindowedMetrics(bucket_s=0.5, bucket_count=4, clock=clock)
        window.inc("q")
        clock.now = 10.0  # far past the 2s window
        assert window.count("q") == 0
        assert window.total("q") == 0.0
        assert window.summary("q") is None

    def test_summary_exact_aggregates(self):
        clock = ManualClock()
        window = WindowedMetrics(bucket_s=1.0, bucket_count=10, clock=clock)
        for value in (0.010, 0.020, 0.030, 0.040):
            window.observe("lat", value)
        summary = window.summary("lat")
        assert summary["count"] == 4.0
        assert summary["min"] == pytest.approx(0.010)
        assert summary["max"] == pytest.approx(0.040)
        assert summary["mean"] == pytest.approx(0.025)
        assert summary["p99"] == pytest.approx(0.040)

    def test_per_bucket_samples_are_bounded(self):
        clock = ManualClock()
        window = WindowedMetrics(
            bucket_s=1.0, bucket_count=4, samples_per_bucket=8, clock=clock
        )
        for index in range(10_000):
            window.observe("lat", float(index))
        summary = window.summary("lat")
        # Exact aggregates survive; retained samples stay capped.
        assert summary["count"] == 10_000.0
        assert summary["max"] == 9999.0
        (ring,) = window._series.values()
        assert all(len(bucket.samples) <= 8 for bucket in ring)

    def test_ring_is_bounded_over_time(self):
        clock = ManualClock()
        window = WindowedMetrics(bucket_s=1.0, bucket_count=5, clock=clock)
        for second in range(1000):
            clock.now = float(second)
            window.observe("lat", 1.0)
        (ring,) = window._series.values()
        assert len(ring) == 5

    def test_label_sets_sorted(self):
        window = WindowedMetrics(bucket_s=1.0, bucket_count=4)
        window.inc("site.requests", site="b1")
        window.inc("site.requests", site="b0")
        assert window.label_sets("site.requests") == [
            {"site": "b0"},
            {"site": "b1"},
        ]
        assert window.label_sets("nothing") == []

    def test_disabled_window_is_noop(self):
        window = WindowedMetrics(enabled=False)
        window.inc("q")
        window.observe("lat", 1.0)
        assert window.series_count() == 0
        assert window.count("q") == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            WindowedMetrics(bucket_s=0.0)
        with pytest.raises(ValueError):
            WindowedMetrics(bucket_count=0)


# ---------------------------------------------------------------------------
# Bounded histogram reservoirs
# ---------------------------------------------------------------------------


class TestHistogramReservoir:
    def test_exact_aggregates_with_bounded_samples(self):
        registry = MetricsRegistry(histogram_cap=64)
        for index in range(5000):
            registry.observe("lat", float(index))
        summary = registry.histogram_summary("lat")
        assert summary["count"] == 5000.0
        assert summary["min"] == 0.0
        assert summary["max"] == 4999.0
        assert summary["mean"] == pytest.approx(2499.5)
        hist = registry._histograms[("lat", ())]
        assert len(hist.samples) == 64
        # Reservoir percentiles approximate the true distribution.
        assert 3000.0 < summary["p95"] <= 4999.0

    def test_reservoir_is_deterministic(self):
        def fill():
            registry = MetricsRegistry(histogram_cap=32)
            for index in range(1000):
                registry.observe("lat", float(index), site="b0")
            return registry.histogram_summary("lat", site="b0")

        assert fill() == fill()

    def test_exact_below_cap(self):
        registry = MetricsRegistry(histogram_cap=512)
        for value in (3.0, 1.0, 2.0):
            registry.observe("lat", value)
        summary = registry.histogram_summary("lat")
        assert summary["p50"] == 2.0
        assert summary["p99"] == 3.0

    def test_histogram_series_consistent_snapshot(self):
        registry = MetricsRegistry()
        registry.observe("a", 1.0)
        registry.observe("b", 2.0, site="x")
        series = registry.histogram_series()
        assert [(name, labels) for name, labels, _ in series] == [
            ("a", {}),
            ("b", {"site": "x"}),
        ]
        assert series[0][2]["count"] == 1.0

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            MetricsRegistry(histogram_cap=0)


# ---------------------------------------------------------------------------
# SLOs and burn-rate alerting
# ---------------------------------------------------------------------------


def _obs_with_slo(**slo_kwargs):
    clock = ManualClock()
    obs = Observability()
    obs.bind_clock(clock)
    slo_kwargs.setdefault("objective", 0.9)
    slo_kwargs.setdefault("rules", (BurnRateRule(10.0, 2.0, 2.0),))
    slo = obs.add_slo("avail", **slo_kwargs)
    return obs, slo, clock


class TestSLO:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLO("bad", objective=1.5)
        with pytest.raises(ValueError):
            SLO("bad", kind="throughput")
        with pytest.raises(ValueError):
            SLO("bad", kind="latency")  # needs threshold_s
        with pytest.raises(ValueError):
            BurnRateRule(long_s=1.0, short_s=2.0, factor=1.0)
        with pytest.raises(ValueError):
            BurnRateRule(long_s=1.0, short_s=0.5, factor=0.0)
        obs = Observability()
        obs.add_slo("a")
        with pytest.raises(ValueError):
            obs.add_slo("a")

    def test_burn_alert_fires_and_clears(self):
        obs, slo, clock = _obs_with_slo()
        # 100% failures: burn = 1.0 / 0.1 = 10 >> factor 2 in both windows.
        for _ in range(5):
            obs.record_request(False, 0.01)
        assert slo.alert_active
        assert slo.fired == 1
        (event,) = [
            e for e in obs.events.snapshot() if e.type == "slo.burn"
        ]
        assert event.fields["state"] == "firing"
        assert event.fields["slo"] == "avail"
        assert event.fields["rule"] == "10s/2s"
        assert event.fields["burn_long"] >= 2.0
        assert obs.active_alerts()[0]["name"] == "avail"
        assert obs.metrics.gauge("slo.alert_active", slo="avail") == 1.0
        assert (
            obs.metrics.gauge("slo.burn_rate", slo="avail", window="10s")
            >= 2.0
        )
        # Recovery: the bad bucket ages past the long window, healthy
        # traffic resumes, and the alert clears with a second event.
        clock.now = 15.0
        obs.record_request(True, 0.01)
        assert not slo.alert_active
        assert slo.cleared == 1
        states = [
            e.fields["state"]
            for e in obs.events.snapshot()
            if e.type == "slo.burn"
        ]
        assert states == ["firing", "cleared"]
        assert obs.active_alerts() == []
        assert obs.metrics.gauge("slo.alert_active", slo="avail") == 0.0

    def test_short_window_recovery_suppresses_alert(self):
        obs, slo, clock = _obs_with_slo()
        # An old failure burst inside the long window but outside the
        # short one: the two-window rule must NOT fire.
        obs.record_request(False, 0.01)
        clock.now = 5.0
        for _ in range(20):
            obs.record_request(True, 0.01)
        assert not slo.alert_active

    def test_latency_slo_counts_slow_requests_as_bad(self):
        obs, slo, clock = _obs_with_slo(kind="latency", threshold_s=0.05)
        for _ in range(5):
            obs.record_request(True, 0.5)  # ok but slow -> burns budget
        assert slo.alert_active
        status = slo.status()
        assert status["kind"] == "latency"
        assert status["threshold_s"] == 0.05

    def test_status_is_read_only(self):
        obs, slo, clock = _obs_with_slo()
        for _ in range(3):
            obs.record_request(False, 0.01)
        events_before = len(obs.events)
        fired_before = slo.fired
        status = slo.status()
        assert status["alert_active"] is True
        assert len(obs.events) == events_before
        assert slo.fired == fired_before

    def test_evaluate_slos_clears_between_requests(self):
        obs, slo, clock = _obs_with_slo()
        for _ in range(3):
            obs.record_request(False, 0.01)
        assert slo.alert_active
        # No further traffic: a clock-driven evaluation pass still clears.
        clock.now = 50.0
        obs.evaluate_slos()
        assert not slo.alert_active


# ---------------------------------------------------------------------------
# Tail-based trace sampling
# ---------------------------------------------------------------------------


class TestTailSampling:
    def test_rate_zero_drops_healthy_keeps_interesting(self):
        obs = Observability(trace_sample_rate=0.0)
        for _ in range(3):
            with obs.span("healthy"):
                pass
        with obs.span("flagged") as span:
            span.tag(sample_keep="slow")
        try:
            with obs.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        names = [root.name for root in obs.tracer.roots]
        assert names == ["flagged", "boom"]
        assert obs.tracer.sampled_out == 3
        assert obs.metrics.counter("obs.spans_sampled_out") == 3.0
        assert "tail sampling at rate 0" in obs.tracer.render()

    def test_child_error_keeps_root(self):
        obs = Observability(trace_sample_rate=0.0)
        with obs.span("root"):
            try:
                with obs.span("child"):
                    raise ValueError("nested")
            except ValueError:
                pass
        assert [root.name for root in obs.tracer.roots] == ["root"]

    def test_fractional_rate_is_deterministic(self):
        obs = Observability(trace_sample_rate=0.5)
        for _ in range(10):
            with obs.span("healthy"):
                pass
        assert len(obs.tracer.roots) == 5
        assert obs.tracer.sampled_out == 5

    def test_default_rate_keeps_everything(self):
        obs = Observability()
        for _ in range(4):
            with obs.span("healthy"):
                pass
        assert len(obs.tracer.roots) == 4
        assert obs.tracer.sampled_out == 0

    def test_clear_resets_sampling_state(self):
        obs = Observability(trace_sample_rate=0.5)
        with obs.span("healthy"):
            pass
        obs.tracer.clear()
        assert obs.tracer.sampled_out == 0
        assert obs.tracer._sample_debt == 0.0

    def test_system_keeps_slow_queries_at_rate_zero(self):
        system = build_two_site_join(
            20, 20, trace_sample_rate=0.0, slow_query_threshold_s=None
        )
        system.query("synth", JOIN_SQL)  # healthy -> sampled out
        assert system.tracer.sampled_out >= 1
        assert not system.tracer.find("query.execute")
        system.slow_query_threshold_s = 0.0  # now everything is "slow"
        system.query("synth", JOIN_SQL)
        (span,) = system.tracer.find("query.execute")
        assert span.tags["sample_keep"] == "slow"


# ---------------------------------------------------------------------------
# Request-id correlation
# ---------------------------------------------------------------------------


class TestRequestIds:
    def test_query_carries_one_id_across_all_telemetry(self):
        system = build_two_site_join(20, 20, slow_query_threshold_s=0.0)
        result = system.query("synth", JOIN_SQL)
        rid = result.request_id
        assert rid and rid.startswith("req-")

        # Root span tagged with the id.
        (span,) = system.tracer.find("query.execute")
        assert span.tags["request"] == rid
        # EXPLAIN ANALYZE header carries it.
        assert f"request={rid}" in result.explain_analyze().splitlines()[0]
        # The slow-query event carries it.
        (slow,) = system.events.of_type("query.slow")
        assert slow.fields["request"] == rid
        # Every wire message of the fetches carries it.
        stamped = [
            record
            for record in result.trace.records
            if record.request_id == rid
        ]
        assert stamped
        assert all(
            record.request_id in (None, rid)
            for record in result.trace.records
        )

    def test_ids_are_unique_per_query(self):
        system = build_two_site_join(10, 10)
        first = system.query("synth", JOIN_SQL)
        second = system.query("synth", JOIN_SQL)
        assert first.request_id != second.request_id

    def test_caller_supplied_id_wins(self):
        system = build_two_site_join(10, 10)
        result = system.query("synth", JOIN_SQL, request_id="req-custom")
        assert result.request_id == "req-custom"

    def test_server_sessions_mint_ids(self):
        system = build_two_site_join(10, 10)
        server = system.create_server()
        with server.connect() as session:
            first = session.query("synth", JOIN_SQL)
            second = session.query("synth", JOIN_SQL)
        assert first.request_id != second.request_id
        assert first.request_id.startswith("req-")

    def test_transactional_query_carries_id(self):
        system = build_bank_sites(2, 4)
        txn = system.begin_transaction()
        result = system.transactional_query(
            txn, "bank", "SELECT SUM(balance) FROM accounts"
        )
        txn.commit()
        assert result.request_id.startswith("req-")

    def test_chrome_trace_children_inherit_request(self):
        system = build_two_site_join(20, 20)
        result = system.query("synth", JOIN_SQL)
        rid = result.request_id
        trace = spans_to_chrome_trace(system.tracer, clock="wall")
        execute_tree = [
            event
            for event in trace["traceEvents"]
            if event["ph"] == "X"
            and event["name"].startswith(("query.", "fetch"))
        ]
        assert execute_tree
        assert all(
            event["args"].get("request") == rid for event in execute_tree
        )

    def test_minted_even_when_disabled(self):
        system = build_two_site_join(10, 10, observability=False)
        result = system.query("synth", JOIN_SQL)
        assert result.request_id.startswith("req-")

    def test_slow_threshold_is_a_system_knob(self):
        system = build_two_site_join(
            10, 10, slow_query_threshold_s=None
        )
        assert system.slow_query_threshold_s is None
        system.query("synth", JOIN_SQL)
        assert not system.events.of_type("query.slow")
        system.slow_query_threshold_s = 0.0
        assert system.obs.slow_query_threshold_s == 0.0
        system.query("synth", JOIN_SQL)
        assert system.events.of_type("query.slow")


# ---------------------------------------------------------------------------
# Exporters, ops console, bundles
# ---------------------------------------------------------------------------


class TestOpsConsoleAndBundles:
    def _loaded_system(self):
        system = build_two_site_join(20, 20, slow_query_threshold_s=0.0)
        system.add_slo("availability", objective=0.99)
        system.add_slo(
            "latency", objective=0.95, kind="latency", threshold_s=1.0
        )
        system.query("synth", JOIN_SQL)
        system.query("synth", JOIN_SQL)
        return system

    def test_window_and_slo_gauges_survive_prometheus_validation(self):
        system = self._loaded_system()
        system.obs.publish_window_gauges()
        text = metrics_to_prometheus(system.metrics)
        assert validate_prometheus_text(text) == []
        assert 'window_qps{federation="synth"}' in text
        assert 'window_latency_p95_s{federation="synth"}' in text
        assert 'slo_burn_rate{slo="availability",window="60s"}' in text
        assert 'slo_alert_active{slo="availability"}' in text

    def test_federation_stats_gains_ops_sections(self):
        system = self._loaded_system()
        stats = federation_stats(system)
        windows = stats["windows"]
        assert windows["federations"]["synth"]["requests"] == 2
        assert windows["federations"]["synth"]["error_rate"] == 0.0
        assert set(windows["sites"]) == {"s1", "s2"}
        assert [slo["name"] for slo in stats["slos"]] == [
            "availability",
            "latency",
        ]
        assert stats["alerts"] == []
        assert stats["caches"]["plancache"]["misses"] >= 1.0
        mvcc = stats["sites"]["s1"]["mvcc"]
        assert mvcc["active_snapshots"] == 0
        assert mvcc["snapshot_horizon_age"] >= 0

    def test_dashboard_renders_ops_window(self):
        system = self._loaded_system()
        dashboard = render_dashboard(introspection_snapshot(system))
        assert "== ops window" in dashboard
        assert "federation synth: qps=" in dashboard
        assert "breaker=CLOSED" in dashboard
        assert "cache plancache:" in dashboard
        assert "mvcc s1:" in dashboard
        assert "slo availability [availability 99%]: ok" in dashboard

    def test_snapshot_scan_paths_are_counted(self):
        system = self._loaded_system()
        mvcc = federation_stats(system)["sites"]["s1"]["mvcc"]
        # Two fetches from s1, nothing written since: both read the heap.
        assert (mvcc["heap_scans"], mvcc["patched_scans"]) == (2, 0)
        writer = system.component("s1").connect()
        writer.begin()
        writer.execute("UPDATE left_t SET flt = flt WHERE k = 1")
        # A new statement, so the fetch ships rather than hits the cache.
        system.query("synth", "SELECT k FROM lhs WHERE flt < 0.25")
        writer.rollback()
        mvcc = federation_stats(system)["sites"]["s1"]["mvcc"]
        assert (mvcc["heap_scans"], mvcc["patched_scans"]) == (2, 1)
        dashboard = render_dashboard(introspection_snapshot(system))
        assert "mvcc s1: commit_ts=" in dashboard
        assert "scans=heap:2/patched:1" in dashboard

    def test_dashboard_tolerates_pre_ops_snapshots(self):
        # Bundles written before PR 8 have no windows/slos/caches keys.
        old = {"federation_stats": {"sites": {}, "network": {}}}
        dashboard = render_dashboard(old)
        assert "== ops window" not in dashboard
        assert "== federation ==" in dashboard

    def test_bundle_round_trips_request_correlation(self, tmp_path):
        system = self._loaded_system()
        result = system.query("synth", JOIN_SQL)
        rid = result.request_id
        path = system.dump_debug_bundle(tmp_path / "bundle")
        bundle = load_debug_bundle(path)
        assert bundle.validate() == []
        # The same id joins the reloaded spans and events.
        stamped_spans = [
            event
            for event in bundle.trace("wall")["traceEvents"]
            if event.get("args", {}).get("request") == rid
        ]
        assert stamped_spans
        slow_events = [
            e for e in bundle.events if e.fields.get("request") == rid
        ]
        assert slow_events
        # Bytes round-trip: reloaded events equal the live log.
        assert [e.to_json() for e in bundle.events] == [
            e.to_json() for e in system.events.snapshot()
        ]
        assert bundle.manifest["spans_sampled_out"] == 0
        assert bundle.config["trace_sample_rate"] == 1.0
        assert bundle.config["slos"] == ["availability", "latency"]

    def test_sampled_out_traces_never_reach_bundles(self, tmp_path):
        system = build_two_site_join(
            10, 10, trace_sample_rate=0.0, slow_query_threshold_s=None
        )
        result = system.query("synth", JOIN_SQL)
        rid = result.request_id
        bundle = load_debug_bundle(
            system.dump_debug_bundle(tmp_path / "bundle")
        )
        for clock in ("wall", "sim"):
            assert not [
                event
                for event in bundle.trace(clock)["traceEvents"]
                if event.get("args", {}).get("request") == rid
            ]
        assert bundle.manifest["spans_sampled_out"] >= 1

    def test_alert_fires_in_system_snapshot(self):
        clock = ManualClock()
        system = build_two_site_join(10, 10)
        system.obs.bind_clock(clock)  # decouple from the network clock
        system.add_slo(
            "availability",
            objective=0.99,
            rules=(BurnRateRule(10.0, 2.0, 2.0),),
        )
        for _ in range(5):
            system.obs.record_request(False, 0.01, federation="synth")
        stats = federation_stats(system)
        assert [alert["name"] for alert in stats["alerts"]] == [
            "availability"
        ]
        dashboard = render_dashboard(introspection_snapshot(system))
        assert "ALERT availability:" in dashboard
        assert "FIRING" in dashboard

    def test_snapshot_remains_json_serialisable(self):
        system = self._loaded_system()
        snapshot = introspection_snapshot(system)
        text = json.dumps(snapshot, sort_keys=True)
        assert json.loads(text) == json.loads(text)
