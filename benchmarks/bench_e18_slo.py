"""E18 — Production telemetry: request ids, tail sampling, SLO burn alerts.

Claims validated:

1. **Correlation.** Under a 50+ concurrent-session storm, every query
   carries exactly one stable ``request_id``, joinable across its root
   span, its ``query.slow`` event, its wire-message records, and the
   ``EXPLAIN ANALYZE`` header.
2. **Tail sampling.** With ``trace_sample_rate < 1`` the tracer's memory
   stays bounded and healthy traces are shed — but **100 %** of slow and
   degraded traces are retained.
3. **Burn-rate alerting.** A fault window (crashed site → breaker trips →
   degraded reads) drives the availability SLO's burn-rate alert to fire
   within one evaluation window of the first breaker trip, and the alert
   clears after the site heals and traffic recovers.
4. **E12 guarantees still hold.** With windows + SLOs + sampling active,
   the simulated cost of a query is bit-identical to an
   ``observability=False`` system, and wall-clock overhead stays < 5 %.

Artifacts: ``results/e18_slo.txt`` (phase table with the CI markers
``request_ids=ok``, ``sampling=ok``, ``alerts=ok``, ``identical=yes``)
and ``results/e18_console.txt`` (the live ops console during the fault
and after recovery).
"""

import os
import threading
import time

from conftest import RESULTS_DIR, emit

from repro.net import Network
from repro.obs import BurnRateRule, Observability
from repro.obs.introspect import introspection_snapshot, render_dashboard
from repro.workloads import build_bank_sites

SESSIONS = int(os.environ.get("E18_SESSIONS", "60"))
QUERIES_PER_SESSION = int(os.environ.get("E18_OPS", "3"))
SITES = 3
ACCOUNTS_PER_SITE = 40
#: The overhead phase uses a bigger bank so each query does enough real
#: work for the per-query telemetry cost to amortize (the E12 protocol:
#: overhead is measured on a substantial workload, not a no-op query).
ACCOUNTS_OVERHEAD = 400
SAMPLE_RATE = 0.25
#: Short-windowed burn-rate rule sized for a benchmark-length run.
RULES = (BurnRateRule(long_s=8.0, short_s=1.0, factor=3.0),)

#: Full-scan query: ships every row, so it lands above the slow threshold.
HEAVY_SQL = "SELECT acct, balance FROM accounts WHERE balance >= 0"
#: Point lookup: one row shipped, always under the threshold.
CHEAP_SQL = "SELECT balance FROM accounts WHERE acct = 0"

#: Overhead pairs, alternating which system runs first (the E12 protocol).
BATCHES = 15
BATCH_QUERIES = 3


def _build(
    observability: bool = True,
    sample_rate: float = 1.0,
    slow_s: float | None = None,
    max_roots: int = 64,
    accounts: int = ACCOUNTS_PER_SITE,
):
    # Pre-build the observability handle so the tracer's root buffer and
    # sampling rate are explicit; the system adopts a network that already
    # carries one.  Fragment caching is off: a cached fragment ships zero
    # bytes, which would silently demote heavy queries below the slow
    # threshold mid-run.
    network = Network()
    network.obs = Observability(
        enabled=observability,
        max_roots=max_roots,
        slow_query_threshold_s=slow_s,
        trace_sample_rate=sample_rate,
    )
    return build_bank_sites(
        SITES,
        accounts,
        query_timeout=1.0,
        network=network,
        fragment_cache=False,
    )


def _calibrate_slow_threshold() -> float:
    """Midpoint between the cheap and heavy queries' simulated costs."""
    probe = _build()
    heavy = probe.query("bank", HEAVY_SQL).elapsed_s
    cheap = probe.query("bank", CHEAP_SQL).elapsed_s
    probe.close()
    assert cheap < heavy, "workload mix needs distinct latency classes"
    return (cheap + heavy) / 2.0


def _run_storm(system) -> dict:
    """SESSIONS concurrent sessions, mixed cheap/heavy statements."""
    server = system.create_server(max_sessions=SESSIONS + 4)
    lock = threading.Lock()
    collected: list[tuple[str, bool, str, bool]] = []
    errors: list[Exception] = []
    barrier = threading.Barrier(SESSIONS)

    def client(index: int):
        try:
            session = server.connect()
            barrier.wait()
            with session:
                for turn in range(QUERIES_PER_SESSION):
                    heavy = (index + turn) % 3 == 0
                    sql = HEAVY_SQL if heavy else CHEAP_SQL
                    result = session.query("bank", sql)
                    rid = result.request_id
                    header = result.explain_analyze().splitlines()[0]
                    stamped = any(
                        record.request_id == rid
                        for record in result.trace.records
                    )
                    with lock:
                        collected.append((rid, heavy, header, stamped))
        except Exception as error:  # pragma: no cover - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=client, args=(index,))
        for index in range(SESSIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    return {
        "results": collected,
        "peak_sessions": server.stats()["peak"],
    }


def _kept_request_ids(system) -> set:
    return {
        root.tags.get("request")
        for root in system.tracer.roots
        if root.tags.get("request")
    }


def _batch_seconds(system) -> float:
    start = time.perf_counter()
    for _ in range(BATCH_QUERIES):
        system.query("bank", HEAVY_SQL)
    return time.perf_counter() - start


def test_e18_slo(benchmark):
    slow_s = _calibrate_slow_threshold()

    system = _build(
        sample_rate=SAMPLE_RATE, slow_s=slow_s, max_roots=4096
    )
    slo = system.add_slo("availability", objective=0.95, rules=RULES)

    # ------------------------------------------------------------------
    # Phase 1: session storm — request-id correlation + tail sampling.
    # ------------------------------------------------------------------
    storm = _run_storm(system)
    results = storm["results"]
    ids = [rid for rid, _, _, _ in results]
    heavy_ids = {rid for rid, heavy, _, _ in results if heavy}

    assert len(results) == SESSIONS * QUERIES_PER_SESSION
    assert storm["peak_sessions"] >= SESSIONS
    ids_unique = len(set(ids)) == len(ids)
    explain_joinable = all(
        f"request={rid}" in header for rid, _, header, _ in results
    )
    wire_joinable = all(stamped for _, _, _, stamped in results)
    request_ids_ok = ids_unique and explain_joinable and wire_joinable

    kept = _kept_request_ids(system)
    slow_event_ids = {
        event.fields["request"]
        for event in system.events.of_type("query.slow")
    }
    # Every heavy query crossed the threshold, every slow trace was kept,
    # and healthy traces were actually shed by the 0.25 sampling rate.
    sampling_ok = (
        slow_event_ids == heavy_ids
        and heavy_ids <= kept
        and system.tracer.sampled_out > 0
        and len(system.tracer.roots) < len(results)
    )
    storm_sampled_out = system.tracer.sampled_out
    storm_qps = system.obs.window.rate("query.latency_s", federation="bank")

    # Telemetry memory stays bounded no matter the storm size.
    assert len(system.tracer.roots) <= 4096
    assert system.obs.window.series_count() < 64

    # ------------------------------------------------------------------
    # Phase 2: fault window — breaker trips must drive the burn alert.
    # ------------------------------------------------------------------
    system.network.advance(20.0)  # idle gap: storm ages out of the windows
    faults = system.inject_faults(seed=18)
    faults.crash_site("b2")
    degraded_ids = []
    for _ in range(6):
        result = system.query("bank", HEAVY_SQL, allow_partial=True)
        assert result.degraded and result.missing_sites == ["b2"]
        degraded_ids.append(result.request_id)

    trip_events = [
        e for e in system.events.of_type("health.trip")
        if e.fields["site"] == "b2"
    ]
    firing_events = [
        e for e in system.events.of_type("slo.burn")
        if e.fields["state"] == "firing"
    ]
    assert trip_events, "crashed site never tripped its breaker"
    assert firing_events, "fault window never fired the burn-rate alert"
    trip_sim = trip_events[0].sim_s
    fire_sim = firing_events[0].sim_s
    fired_within_window = 0.0 <= fire_sim - trip_sim <= RULES[0].long_s
    assert slo.alert_active
    assert [a["name"] for a in system.obs.active_alerts()] == [
        "availability"
    ]
    # Degraded traces are always retained, sampling notwithstanding.
    assert set(degraded_ids) <= _kept_request_ids(system)

    dashboard_fault = render_dashboard(introspection_snapshot(system))
    assert "ALERT availability:" in dashboard_fault
    assert "== ops window" in dashboard_fault

    # ------------------------------------------------------------------
    # Phase 3: recovery — the alert must clear once traffic is healthy.
    # ------------------------------------------------------------------
    faults.restart_site("b2")
    system.network.advance(20.0)  # breaker cooldown + bad buckets age out
    for _ in range(4):
        result = system.query("bank", CHEAP_SQL)
        assert not result.degraded
    cleared_events = [
        e for e in system.events.of_type("slo.burn")
        if e.fields["state"] == "cleared"
    ]
    alerts_ok = (
        fired_within_window
        and not slo.alert_active
        and system.obs.active_alerts() == []
        and bool(cleared_events)
        and cleared_events[0].sim_s > fire_sim
        and any(e.type == "health.close" for e in system.events.snapshot())
    )

    dashboard_recovered = render_dashboard(introspection_snapshot(system))
    assert "ALERT availability:" not in dashboard_recovered

    # ------------------------------------------------------------------
    # Phase 4: E12 guarantees — bit-identical sim cost, < 5 % overhead.
    # ------------------------------------------------------------------
    enabled = _build(
        sample_rate=SAMPLE_RATE, slow_s=slow_s, accounts=ACCOUNTS_OVERHEAD
    )
    enabled.add_slo("availability", objective=0.95, rules=RULES)
    disabled = _build(observability=False, accounts=ACCOUNTS_OVERHEAD)

    result_on = enabled.query("bank", HEAVY_SQL)
    result_off = disabled.query("bank", HEAVY_SQL)
    identical = (
        result_on.rows == result_off.rows
        and result_on.elapsed_s == result_off.elapsed_s
        and result_on.bytes_shipped == result_off.bytes_shipped
        and result_on.trace.message_count == result_off.trace.message_count
    )

    on_times, off_times = [], []
    for pair in range(BATCHES):
        if pair % 2:
            off_times.append(_batch_seconds(disabled))
            on_times.append(_batch_seconds(enabled))
        else:
            on_times.append(_batch_seconds(enabled))
            off_times.append(_batch_seconds(disabled))
    overhead = min(on_times) / min(off_times) - 1.0

    # ------------------------------------------------------------------
    # Report + artifacts
    # ------------------------------------------------------------------
    markers = (
        f"request_ids={'ok' if request_ids_ok else 'BROKEN'} "
        f"sampling={'ok' if sampling_ok else 'BROKEN'} "
        f"alerts={'ok' if alerts_ok else 'BROKEN'} "
        f"identical={'yes' if identical else 'NO'}"
    )
    emit(
        "E18_SLO",
        f"{SESSIONS} sessions x {QUERIES_PER_SESSION} statements, "
        f"sample_rate={SAMPLE_RATE}, fault window on b2 — {markers}",
        [
            "phase",
            "requests",
            "slow",
            "degraded",
            "sampled_out",
            "alert",
            "detail",
        ],
        [
            (
                "storm",
                len(results),
                len(slow_event_ids),
                0,
                storm_sampled_out,
                "-",
                f"qps={storm_qps:.2f} roots={len(system.tracer.roots)}",
            ),
            (
                "fault",
                len(degraded_ids),
                0,
                len(degraded_ids),
                0,
                "FIRING",
                f"trip@{trip_sim:.3f}s fire@{fire_sim:.3f}s",
            ),
            (
                "recovery",
                4,
                0,
                0,
                0,
                "cleared",
                f"clear@{cleared_events[0].sim_s:.3f}s",
            ),
            (
                "overhead",
                BATCHES * BATCH_QUERIES * 2,
                0,
                0,
                0,
                "-",
                f"wall_overhead={overhead * 100:.2f}%",
            ),
        ],
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    console = RESULTS_DIR / "e18_console.txt"
    console.write_text(
        "# E18 ops console — during the fault window\n\n"
        + dashboard_fault
        + "\n\n# E18 ops console — after recovery\n\n"
        + dashboard_recovered
        + "\n"
    )
    print(f"\nwrote {console}", flush=True)

    assert request_ids_ok
    assert sampling_ok
    assert alerts_ok
    assert identical
    assert overhead < 0.05, (
        f"telemetry overhead {overhead:.1%} exceeds the 5% budget"
    )

    disabled.close()
    with enabled:
        benchmark(lambda: enabled.query("bank", HEAVY_SQL))
