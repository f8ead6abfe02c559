"""Telemetry pipeline tests: event log, exporters, bundle, introspection, CLI.

Covers the export layer end to end: the structured :class:`EventLog`, the
Chrome-trace and Prometheus exporters with their schema validators, the
debug-bundle dump/reload round trip, the live introspection APIs
(``lock_table`` / ``wait_for_graph`` / ``transaction_states`` /
``federation_stats``), the ``repro.obs.report`` CLI, and the acceptance
scenario: a faulty E11-style run whose bundle carries every 2PC state
transition and deadlock victim decision and reloads byte-for-byte.
"""

import dataclasses
import json
import threading
import time

import pytest

from repro.config import Config
from repro.errors import MyriadError, TwoPhaseCommitError
from repro.obs import Event, EventLog, Observability, load_events_jsonl
from repro.obs.export import (
    BUNDLE_FORMAT,
    dump_debug_bundle,
    load_debug_bundle,
    metrics_to_json,
    metrics_to_prometheus,
    spans_to_chrome_trace,
    validate_chrome_trace,
    validate_prometheus_text,
)
from repro.obs.introspect import (
    federation_stats,
    introspection_snapshot,
    lock_table,
    render_dashboard,
    transaction_states,
    wait_for_graph,
)
from repro.obs.report import build_demo_system, main, selftest
from repro.txn import GlobalDeadlockMonitor
from repro.workloads import build_bank_sites, build_two_site_join

JOIN_SQL = (
    "SELECT lhs.k, rhs.val FROM lhs, rhs "
    "WHERE lhs.k = rhs.k AND lhs.flt < 0.5"
)


# ---------------------------------------------------------------------------
# Event log
# ---------------------------------------------------------------------------


class TestEventLog:
    def test_emit_assigns_monotone_sequence(self):
        log = EventLog()
        first = log.emit("a", x=1)
        second = log.emit("b")
        assert (first.seq, second.seq) == (0, 1)
        assert first.type == "a"
        assert first.fields == {"x": 1}
        assert first.wall_ts <= second.wall_ts

    def test_fields_are_coerced_json_safe(self):
        log = EventLog()

        class Opaque:
            def __str__(self):
                return "G7"

        event = log.emit(
            "t", txn=Opaque(), sites=("b0", "b1"), nested={"k": Opaque()}
        )
        # Everything must survive json.dumps without default= help.
        parsed = json.loads(event.to_json())
        assert parsed["txn"] == "G7"
        assert parsed["sites"] == ["b0", "b1"]
        assert parsed["nested"] == {"k": "G7"}

    def test_bounded_buffer_counts_evictions(self):
        log = EventLog(max_events=3)
        for index in range(5):
            log.emit("e", i=index)
        assert len(log) == 3
        assert log.dropped == 2
        # Oldest evicted: the survivors are the 3 most recent.
        assert [event.fields["i"] for event in log.snapshot()] == [2, 3, 4]
        # Sequence numbers keep counting across evictions.
        assert [event.seq for event in log.snapshot()] == [2, 3, 4]
        assert "5 recorded" not in log.render()
        assert "2 dropped" in log.render()

    def test_of_type_filters(self):
        log = EventLog()
        log.emit("2pc", state="BEGIN")
        log.emit("fault.drop")
        log.emit("2pc", state="COMMITTED")
        assert [e.fields["state"] for e in log.of_type("2pc")] == [
            "BEGIN",
            "COMMITTED",
        ]

    def test_disabled_log_is_noop(self):
        log = EventLog(enabled=False)
        assert log.emit("e") is None
        assert len(log) == 0
        assert log.to_jsonl() == ""
        assert "(no events recorded)" in log.render()

    def test_jsonl_round_trip(self):
        log = EventLog()
        log.emit("2pc", sim_s=0.25, txn="G1", state="BEGIN")
        log.emit("fault.drop", source="a", destination="b")
        reloaded = load_events_jsonl(log.to_jsonl())
        assert [e.to_json() for e in reloaded] == [
            e.to_json() for e in log.snapshot()
        ]
        assert reloaded[0].sim_s == 0.25
        assert reloaded[0].fields == {"txn": "G1", "state": "BEGIN"}
        assert reloaded[1].sim_s is None

    def test_clear_resets_everything_but_not_seq(self):
        log = EventLog(max_events=1)
        log.emit("a")
        log.emit("b")
        assert log.dropped == 1
        log.clear()
        assert len(log) == 0
        assert log.dropped == 0

    def test_concurrent_emits_keep_unique_sequences(self):
        log = EventLog()

        def worker():
            for _ in range(50):
                log.emit("tick")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        sequences = [event.seq for event in log.snapshot()]
        assert len(sequences) == 200
        assert len(set(sequences)) == 200


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------


class TestChromeTraceExport:
    def _system_with_query(self):
        system = build_two_site_join(30, 30)
        system.query("synth", JOIN_SQL)
        return system

    def test_wall_trace_schema_and_tracks(self):
        system = self._system_with_query()
        trace = spans_to_chrome_trace(system.tracer, clock="wall")
        assert validate_chrome_trace(trace) == []
        names = {
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "M"
        }
        # One named track per site plus the coordinator track.
        assert names == {"coordinator", "s1", "s2"}
        span_names = {
            event["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "X"
        }
        assert "query.execute" in span_names
        assert "execute.fetch" in span_names

    def test_fetch_spans_land_on_their_site_track(self):
        system = self._system_with_query()
        trace = spans_to_chrome_trace(system.tracer, clock="wall")
        tid_by_name = {
            event["args"]["name"]: event["tid"]
            for event in trace["traceEvents"]
            if event["ph"] == "M"
        }
        for event in trace["traceEvents"]:
            if event.get("name") == "execute.fetch":
                assert event["tid"] == tid_by_name[event["args"]["site"]]

    def test_sim_trace_monotone_and_scaled(self):
        system = self._system_with_query()
        trace = spans_to_chrome_trace(system.tracer, clock="sim")
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["clock"] == "sim"
        # Children never extend past their root on the simulated clock.
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        root_end = max(e["ts"] + e["dur"] for e in spans)
        for event in spans:
            assert event["ts"] + event["dur"] <= root_end + 1e-6

    def test_unknown_clock_rejected(self):
        with pytest.raises(ValueError, match="unknown trace clock"):
            spans_to_chrome_trace(Observability().tracer, clock="lamport")

    def test_validator_flags_broken_traces(self):
        assert validate_chrome_trace({"nope": 1}) != []
        missing_key = {"traceEvents": [{"ph": "X", "pid": 1, "tid": 0}]}
        assert any(
            "missing required key 'name'" in p
            for p in validate_chrome_trace(missing_key)
        )
        backwards = {
            "traceEvents": [
                {"name": "a", "ph": "X", "pid": 1, "tid": 0, "ts": 5.0, "dur": 1.0},
                {"name": "b", "ph": "X", "pid": 1, "tid": 0, "ts": 2.0, "dur": 1.0},
            ]
        }
        assert any("goes backwards" in p for p in validate_chrome_trace(backwards))
        negative = {
            "traceEvents": [
                {"name": "a", "ph": "X", "pid": 1, "tid": 0, "ts": -1, "dur": 0}
            ]
        }
        assert any("non-negative" in p for p in validate_chrome_trace(negative))

    def test_span_error_recorded_in_args(self):
        obs = Observability()
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("fetch died")
        trace = spans_to_chrome_trace(obs.tracer)
        (event,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert "fetch died" in event["args"]["error"]


# ---------------------------------------------------------------------------
# Prometheus export
# ---------------------------------------------------------------------------


class TestPrometheusExport:
    def test_counters_gauges_histograms_exposed(self):
        obs = Observability()
        obs.metrics.inc("net.messages", 3, purpose="query")
        obs.metrics.set_gauge("txn.active", 2)
        for value in (0.1, 0.2, 0.3):
            obs.metrics.observe("query.sim_elapsed_s", value)
        text = metrics_to_prometheus(obs.metrics)
        assert validate_prometheus_text(text) == []
        assert "# TYPE myriad_net_messages_total counter" in text
        assert 'myriad_net_messages_total{purpose="query"} 3.0' in text
        assert "# TYPE myriad_txn_active gauge" in text
        assert "myriad_txn_active 2.0" in text
        assert "# TYPE myriad_query_sim_elapsed_s summary" in text
        assert 'myriad_query_sim_elapsed_s{quantile="0.5"} 0.2' in text
        assert "myriad_query_sim_elapsed_s_count 3.0" in text
        # _sum = mean * count
        assert "myriad_query_sim_elapsed_s_sum" in text

    def test_label_values_escaped(self):
        obs = Observability()
        obs.metrics.inc("odd", site='say "hi"\nthere')
        text = metrics_to_prometheus(obs.metrics)
        assert validate_prometheus_text(text) == []
        assert '\\"hi\\"' in text
        assert "\\n" in text

    def test_empty_registry_still_valid(self):
        text = metrics_to_prometheus(Observability().metrics)
        assert "# no metrics recorded" in text
        assert validate_prometheus_text(text) == []

    def test_validator_flags_malformed_lines(self):
        assert validate_prometheus_text("this is not a sample\n") != []
        assert validate_prometheus_text("name{unclosed=\"x\" 1\n") != []
        assert validate_prometheus_text("ok_metric 1.5\n") == []

    def test_json_snapshot_is_stable(self):
        obs = Observability()
        obs.metrics.inc("b")
        obs.metrics.inc("a")
        first = metrics_to_json(obs.metrics)
        second = metrics_to_json(obs.metrics)
        assert first == second
        parsed = json.loads(first)
        assert list(parsed["counters"]) == ["a", "b"]


# ---------------------------------------------------------------------------
# Debug bundle
# ---------------------------------------------------------------------------


class TestDebugBundle:
    def test_dump_and_reload_round_trip(self, tmp_path):
        system = build_two_site_join(20, 20)
        system.obs.slow_query_threshold_s = 0.0
        system.query("synth", JOIN_SQL)
        path = system.dump_debug_bundle(tmp_path / "bundle")
        bundle = load_debug_bundle(path)

        assert bundle.manifest["format"] == BUNDLE_FORMAT
        assert bundle.report == system.observability_report()
        assert bundle.metrics == json.loads(
            json.dumps(system.metrics.snapshot())
        )
        assert [e.to_json() for e in bundle.events] == [
            e.to_json() for e in system.events.snapshot()
        ]
        assert bundle.validate() == []
        assert bundle.config["sites"] == {
            "s1": "PostgresDBMS",
            "s2": "OracleDBMS",
        }
        options = {
            field.name: getattr(system.config, field.name)
            for field in dataclasses.fields(Config)
        }
        # The bundle records the live threshold, which the test moved.
        options["slow_query_threshold_s"] = 0.0
        assert {name: bundle.config[name] for name in options} == options
        assert "federation_stats" in bundle.introspection
        for clock in ("wall", "sim"):
            assert validate_chrome_trace(bundle.trace(clock)) == []

    def test_manifest_counts_match_contents(self, tmp_path):
        system = build_two_site_join(10, 10)
        system.obs.slow_query_threshold_s = 0.0
        system.query("synth", JOIN_SQL)
        bundle = load_debug_bundle(system.dump_debug_bundle(tmp_path / "b"))
        assert bundle.manifest["events"] == len(bundle.events)
        assert bundle.manifest["span_roots"] == len(system.tracer.roots)
        assert bundle.manifest["spans_dropped"] == system.tracer.dropped
        for name in bundle.manifest["files"]:
            assert (bundle.path / name).exists()

    def test_load_rejects_non_bundle_directory(self, tmp_path):
        with pytest.raises(MyriadError, match="no MANIFEST.json"):
            load_debug_bundle(tmp_path)

    def test_load_rejects_unknown_format(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text(
            json.dumps({"format": "myriad-debug-bundle/99", "files": []})
        )
        with pytest.raises(MyriadError, match="unsupported bundle format"):
            load_debug_bundle(tmp_path)

    def test_load_rejects_missing_files(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text(
            json.dumps({"format": BUNDLE_FORMAT, "files": ["report.txt"]})
        )
        with pytest.raises(MyriadError, match="missing files"):
            load_debug_bundle(tmp_path)

    def test_dump_into_existing_directory_overwrites(self, tmp_path):
        system = build_two_site_join(10, 10)
        system.query("synth", JOIN_SQL)
        target = tmp_path / "bundle"
        system.dump_debug_bundle(target)
        system.query("synth", JOIN_SQL)
        system.dump_debug_bundle(target)
        bundle = load_debug_bundle(target)
        assert bundle.report == system.observability_report()


# ---------------------------------------------------------------------------
# Live introspection
# ---------------------------------------------------------------------------


class TestIntrospection:
    def test_lock_table_shows_global_holders(self):
        bank = build_bank_sites(2, 2)
        txn = bank.begin_transaction("G_LOCK")
        txn.execute("b0", "UPDATE account SET balance = 1 WHERE acct = 0")
        table = bank.lock_table()
        assert sorted(table) == ["b0", "b1"]
        (entry,) = table["b0"]
        assert entry["resource"] == "account"
        assert entry["holders"] == {"G_LOCK": "X"}
        assert entry["waiters"] == []
        txn.abort()
        assert bank.lock_table()["b0"] == []

    def test_wait_for_graph_reports_cycle_victim_and_dot(self):
        bank = build_bank_sites(2, 2, query_timeout=5.0)
        t1 = bank.begin_transaction("G_ONE")
        t2 = bank.begin_transaction("G_TWO")
        t1.execute("b0", "UPDATE account SET balance = 1 WHERE acct = 0")
        t2.execute("b1", "UPDATE account SET balance = 1 WHERE acct = 2")

        def cross(txn, site, acct):
            try:
                txn.execute(
                    site,
                    f"UPDATE account SET balance = 2 WHERE acct = {acct}",
                    timeout=1.5,
                )
            except Exception:
                pass

        threads = [
            threading.Thread(target=cross, args=(t1, "b1", 3)),
            threading.Thread(target=cross, args=(t2, "b0", 1)),
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        graph = bank.wait_for_graph()
        for thread in threads:
            thread.join()
        for txn in (t1, t2):
            try:
                txn.abort()
            except Exception:
                pass

        assert sorted(map(tuple, graph["edges"])) == [
            ("G_ONE", "G_TWO"),
            ("G_TWO", "G_ONE"),
        ]
        assert graph["cycles"] != []
        assert graph["victims"] == ["G_TWO"]
        dot = graph["dot"]
        assert dot.startswith("digraph wait_for {")
        assert '"G_ONE" -> "G_TWO";' in dot
        # The victim is double-circled, deadlocked nodes filled.
        assert 'fillcolor="#f4cccc"' in dot
        assert "peripheries=2" in dot

    def test_transaction_states_flags_in_doubt_branch(self):
        bank = build_bank_sites(2, 2)
        faults = bank.inject_faults(seed=5)
        faults.drop_next(count=10**6, destination="b1", purpose="commit")
        txn = bank.begin_transaction()
        txn.execute("b0", "UPDATE account SET balance = 1 WHERE acct = 0")
        txn.execute("b1", "UPDATE account SET balance = 1 WHERE acct = 2")
        txn.commit()

        (row,) = [
            r
            for r in bank.transaction_states()
            if r["branches"].get("b1") == "prepared"
        ]
        # The coordinator decided commit, b1 never heard: in doubt, divergent.
        assert row["coordinator"].startswith("decided:")
        assert row["pending_delivery"] == {"b1": "commit"}
        assert row["divergent"] is True

        faults.clear()
        bank.transactions.recover_in_doubt()
        assert all(not r["divergent"] for r in bank.transaction_states())

    def test_federation_stats_shape(self):
        system = build_two_site_join(10, 10)
        system.query("synth", JOIN_SQL)
        stats = system.federation_stats()
        assert set(stats["sites"]) == {"s1", "s2"}
        assert stats["sites"]["s1"]["dialect"] == "PostgresDBMS"
        assert stats["sites"]["s1"]["exports"] == ["left_rel"]
        assert stats["sites"]["s1"]["queries_executed"] >= 1
        assert stats["federations"]["synth"]["relations"]
        assert stats["network"]["messages"] > 0
        assert stats["transactions"]["active"] == 0

    def test_snapshot_is_json_serialisable(self):
        bank = build_bank_sites(2, 2)
        txn = bank.begin_transaction()
        txn.execute("b0", "UPDATE account SET balance = 1 WHERE acct = 0")
        snapshot = introspection_snapshot(bank)
        text = json.dumps(snapshot, sort_keys=True)
        assert json.loads(text) == json.loads(text)
        txn.abort()

    def test_dashboard_renders_all_sections(self):
        bank = build_bank_sites(2, 2)
        txn = bank.begin_transaction("G_DASH")
        txn.execute("b0", "UPDATE account SET balance = 1 WHERE acct = 0")
        dashboard = render_dashboard(introspection_snapshot(bank))
        assert "== federation ==" in dashboard
        assert "== lock table ==" in dashboard
        assert "b0.account: held[G_DASH:X]" in dashboard
        assert "== wait-for graph ==" in dashboard
        assert "(no waits)" in dashboard
        assert "== global transactions ==" in dashboard
        assert "G_DASH: coordinator=active" in dashboard
        txn.abort()

    def test_deadlock_monitor_emits_sweep_event(self):
        bank = build_bank_sites(2, 2)
        monitor = GlobalDeadlockMonitor(bank.gateways)
        monitor.detector.global_edges = lambda: [("G1", "G2"), ("G2", "G1")]
        monitor.check_once()
        (event,) = bank.events.of_type("deadlock.sweep")
        assert event.fields["cycles"] == [["G1", "G2"]]
        assert event.fields["victims"] == ["G2"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestReportCLI:
    def test_demo_dump_then_bundle_reproduces_report(self, tmp_path, capsys):
        assert main(["--demo", "--dump", str(tmp_path / "b")]) == 0
        live = capsys.readouterr().out
        assert "wrote debug bundle" in live
        assert "== federation ==" in live

        bundle = load_debug_bundle(tmp_path / "b")
        assert main(["--bundle", str(tmp_path / "b")]) == 0
        reloaded = capsys.readouterr().out
        # The recorded report comes back byte-for-byte, leading the output.
        assert reloaded.startswith(bundle.report)
        assert "== bundle ==" in reloaded
        assert BUNDLE_FORMAT in reloaded

    def test_selftest_passes(self):
        assert selftest() == 0

    def test_demo_event_log_covers_every_source(self):
        system = build_demo_system()
        types = {event.type for event in system.events.snapshot()}
        assert "2pc" in types
        assert "query.slow" in types
        assert "wal.park" in types
        assert "wal.drain" in types
        assert "fault.drop" in types

    def test_bundle_and_demo_flags_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["--demo", "--bundle", "x"])
        capsys.readouterr()


# ---------------------------------------------------------------------------
# Acceptance: an E11-style faulty run's bundle tells the whole story
# ---------------------------------------------------------------------------


class TestFaultyRunBundleAcceptance:
    def _faulty_run(self):
        """E11-style workload: commits, aborts, vote-NO, lost decision,
        a genuine cross-site deadlock resolved by the monitor, recovery."""
        bank = build_bank_sites(3, 4, query_timeout=5.0)
        bank.obs.slow_query_threshold_s = 0.0

        bank.query("bank", "SELECT COUNT(*) FROM accounts")

        # Committed transfer (full 2PC) and a client abort.
        txn = bank.begin_transaction()
        txn.execute("b0", "UPDATE account SET balance = balance - 1 WHERE acct = 0")
        txn.execute("b1", "UPDATE account SET balance = balance + 1 WHERE acct = 4")
        txn.commit()
        txn = bank.begin_transaction()
        txn.execute("b0", "UPDATE account SET balance = balance - 1 WHERE acct = 1")
        txn.abort()

        # Phase-1 failure: a participant votes NO.
        bank.gateways["b2"].fail_next_prepares = 1
        txn = bank.begin_transaction()
        txn.execute("b0", "UPDATE account SET balance = balance - 1 WHERE acct = 2")
        txn.execute("b2", "UPDATE account SET balance = balance + 1 WHERE acct = 8")
        with pytest.raises(TwoPhaseCommitError):
            txn.commit()

        # A genuine global deadlock, killed by the wait-for-graph monitor.
        monitor = GlobalDeadlockMonitor(bank.gateways)
        t1 = bank.begin_transaction("G_DL_A")
        t2 = bank.begin_transaction("G_DL_B")
        t1.execute("b0", "UPDATE account SET balance = 1 WHERE acct = 3")
        t2.execute("b1", "UPDATE account SET balance = 1 WHERE acct = 7")

        def cross(txn, site, acct):
            try:
                txn.execute(
                    site,
                    f"UPDATE account SET balance = 2 WHERE acct = {acct}",
                    timeout=3.0,
                )
            except Exception:
                pass

        threads = [
            threading.Thread(target=cross, args=(t1, "b1", 5)),
            threading.Thread(target=cross, args=(t2, "b0", 1)),
        ]
        for thread in threads:
            thread.start()
        deadline = time.time() + 3.0
        victims = []
        while not victims and time.time() < deadline:
            time.sleep(0.05)
            victims = monitor.check_once()
        for thread in threads:
            thread.join()
        for txn in (t1, t2):
            try:
                txn.abort()
            except Exception:
                pass
        assert victims, "monitor never caught the deadlock"

        # A commit decision the network loses: parked in doubt, recovered.
        faults = bank.inject_faults(seed=9)
        faults.drop_next(count=10**6, destination="b1", purpose="commit")
        txn = bank.begin_transaction()
        txn.execute("b0", "UPDATE account SET balance = balance - 2 WHERE acct = 0")
        txn.execute("b1", "UPDATE account SET balance = balance + 2 WHERE acct = 4")
        txn.commit()
        faults.clear()
        bank.transactions.recover_in_doubt()
        return bank, victims

    def test_bundle_captures_the_whole_run(self, tmp_path, capsys):
        bank, victims = self._faulty_run()
        path = bank.dump_debug_bundle(tmp_path / "postmortem")
        bundle = load_debug_bundle(path)

        # 1. The Perfetto trace is schema-valid (both clocks).
        assert bundle.validate() == []
        wall = bundle.trace("wall")
        tracks = {
            e["args"]["name"] for e in wall["traceEvents"] if e["ph"] == "M"
        }
        assert {"coordinator", "b0", "b1", "b2"} <= tracks

        # 2. The event log holds every 2PC state transition of the run...
        states = {
            e.fields["state"] for e in bundle.events if e.type == "2pc"
        }
        assert states >= {
            "BEGIN",
            "PREPARING",
            "PREPARED",
            "COMMITTED",
            "ABORTED",
            "IN-DOUBT",
            "RECOVERED",
        }
        # ...including per-participant transitions from the gateways.
        roles = {e.fields["role"] for e in bundle.events if e.type == "2pc"}
        assert roles == {"coordinator", "participant"}

        # 3. ...and the deadlock victim decision, cycles included.
        sweeps = [e for e in bundle.events if e.type == "deadlock.sweep"]
        assert sweeps
        logged_victims = {v for e in sweeps for v in e.fields["victims"]}
        assert {str(v) for v in victims} <= logged_victims
        assert any(e.fields["cycles"] for e in sweeps)

        # 4. The fault injector's interference is on the record too.
        assert any(e.type == "fault.drop" for e in bundle.events)
        assert any(e.type == "wal.park" for e in bundle.events)
        assert any(e.type == "wal.drain" for e in bundle.events)

        # 5. Reloading through the CLI reproduces the report byte-for-byte.
        assert bundle.report == bank.observability_report()
        assert main(["--bundle", str(path)]) == 0
        assert capsys.readouterr().out.startswith(bundle.report)
