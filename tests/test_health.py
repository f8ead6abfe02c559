"""Self-healing federation tests: per-site circuit breakers, degraded
partial reads, and breaker-aware retry in the query/transaction paths."""

import pytest

from repro.errors import CircuitOpenError, MessageDropped, NetworkError
from repro.health import BreakerState, HealthTracker, health_of
from repro.net import FaultInjector, Network
from repro.obs import Observability
from repro.workloads import build_bank_sites, total_balance


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracker(clock):
    return HealthTracker(threshold=3, cooldown_s=0.25, clock=clock)


class TestHealthTracker:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            HealthTracker(threshold=0)

    def test_closed_until_consecutive_threshold(self, tracker):
        tracker.record_failure("s", reason="drop")
        tracker.record_failure("s", reason="drop")
        assert tracker.state("s") is BreakerState.CLOSED
        assert tracker.allow("s")
        tracker.record_failure("s", reason="drop")
        assert tracker.state("s") is BreakerState.OPEN
        assert not tracker.allow("s")
        assert tracker.is_blocked("s")

    def test_success_resets_the_failure_streak(self, tracker):
        tracker.record_failure("s")
        tracker.record_failure("s")
        tracker.record_success("s")
        tracker.record_failure("s")
        tracker.record_failure("s")
        assert tracker.state("s") is BreakerState.CLOSED

    def test_sites_are_independent(self, tracker):
        for _ in range(3):
            tracker.record_failure("dead")
        assert tracker.state("dead") is BreakerState.OPEN
        assert tracker.state("fine") is BreakerState.CLOSED
        assert tracker.allow("fine")

    def test_cooldown_admits_a_half_open_probe(self, tracker, clock):
        for _ in range(3):
            tracker.record_failure("s")
        assert not tracker.allow("s")
        clock.now += 0.25
        assert tracker.allow("s")  # this caller is the probe
        assert tracker.state("s") is BreakerState.HALF_OPEN
        assert tracker.snapshot()["s"]["probes"] == 1

    def test_probe_success_closes_the_breaker(self, tracker, clock):
        for _ in range(3):
            tracker.record_failure("s")
        clock.now += 0.25
        assert tracker.allow("s")
        tracker.record_success("s")
        assert tracker.state("s") is BreakerState.CLOSED
        assert not tracker.is_blocked("s")

    def test_probe_failure_reopens_and_restarts_cooldown(self, tracker, clock):
        for _ in range(3):
            tracker.record_failure("s")
        clock.now += 0.25
        assert tracker.allow("s")
        tracker.record_failure("s", reason="still dead")
        assert tracker.state("s") is BreakerState.OPEN
        assert not tracker.allow("s")  # fresh cooldown from the re-trip
        clock.now += 0.25
        assert tracker.allow("s")

    def test_is_blocked_never_starts_a_probe(self, tracker, clock):
        for _ in range(3):
            tracker.record_failure("s")
        clock.now += 0.25
        assert not tracker.is_blocked("s")  # cooldown elapsed
        assert tracker.state("s") is BreakerState.OPEN  # ...but no probe yet

    def test_snapshot_includes_all_closed_defaults(self, tracker):
        tracker.record_failure("s")
        snap = tracker.snapshot(sites=["s", "quiet"])
        assert snap["s"]["failures"] == 1
        assert snap["quiet"]["state"] == "closed"
        assert snap["quiet"]["failures"] == 0

    def test_transitions_emit_events_and_metrics(self, clock):
        obs = Observability()
        tracker = HealthTracker(threshold=2, cooldown_s=0.1, clock=clock, obs=obs)
        tracker.record_failure("s", reason="drop")
        tracker.record_failure("s", reason="drop")
        clock.now += 0.1
        tracker.allow("s")
        tracker.record_success("s")
        assert [e.fields["site"] for e in obs.events.of_type("health.trip")] == ["s"]
        assert len(obs.events.of_type("health.probe")) == 1
        assert len(obs.events.of_type("health.close")) == 1
        assert obs.metrics.counter("health.trip", site="s") == 1
        (trip,) = obs.events.of_type("health.trip")
        assert trip.fields["reason"] == "drop"


class TestSingleFlightProbe:
    def test_burst_after_cooldown_admits_exactly_one_probe(self, tracker, clock):
        for _ in range(3):
            tracker.record_failure("s")
        clock.now += 0.25
        # a concurrent burst arrives right as the cooldown elapses
        admitted = [tracker.allow("s") for _ in range(8)]
        assert admitted == [True] + [False] * 7
        assert tracker.snapshot()["s"]["probes"] == 1
        assert tracker.snapshot()["s"]["probe_inflight"] is True

    def test_threaded_burst_admits_exactly_one_probe(self, tracker, clock):
        import threading

        for _ in range(3):
            tracker.record_failure("s")
        clock.now += 0.25
        results = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            results.append(tracker.allow("s"))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results.count(True) == 1

    def test_blocked_while_probe_pending_reopens_after_outcome(
        self, tracker, clock
    ):
        for _ in range(3):
            tracker.record_failure("s")
        clock.now += 0.25
        assert tracker.allow("s")
        assert tracker.is_blocked("s")  # everyone else waits on the probe
        tracker.record_success("s")
        assert not tracker.is_blocked("s")
        assert tracker.allow("s")  # breaker closed again

    def test_vanished_probe_is_replaced_after_a_cooldown(self, tracker, clock):
        # A probe whose caller resolves without ever sending would pin the
        # breaker HALF_OPEN forever; after a cooldown the slot goes stale
        # and the next caller takes over as the replacement probe.
        for _ in range(3):
            tracker.record_failure("s")
        clock.now += 0.25
        assert tracker.allow("s")
        assert not tracker.allow("s")
        clock.now += 0.25
        assert not tracker.is_blocked("s")  # the slot went stale
        assert tracker.allow("s")  # replacement probe admitted
        assert tracker.snapshot()["s"]["probes"] == 2


class TestNetworkIntegration:
    def _network(self):
        net = Network(faults=FaultInjector(seed=1))
        for site in ("federation", "a", "b"):
            net.add_site(site)
        net.health = HealthTracker(clock=lambda: net.now_s)
        return net

    def test_outcomes_blame_the_site_not_the_hub(self):
        net = self._network()
        net.faults.crash_site("a")
        for _ in range(3):
            with pytest.raises(MessageDropped):
                net.send("federation", "a", 10, "query")
        # hub→site and site→hub losses both blame the non-hub endpoint
        with pytest.raises(MessageDropped):
            net.send("a", "federation", 10, "result")
        assert net.health.state("a") is BreakerState.OPEN
        assert "federation" not in net.health.snapshot()
        assert net.health.state("b") is BreakerState.CLOSED

    def test_delivery_records_success_and_closes(self):
        net = self._network()
        net.faults.crash_site("a")
        for _ in range(3):
            with pytest.raises(MessageDropped):
                net.send("federation", "a", 10, "query")
        net.faults.restart_site("a")
        net.advance(net.health.cooldown_s)
        assert net.health.allow("a")  # half-open probe
        net.send("federation", "a", 10, "query")
        assert net.health.state("a") is BreakerState.CLOSED

    def test_simulated_clock_advances_on_traffic_and_drops(self):
        net = self._network()
        assert net.now_s == 0.0
        cost = net.send("federation", "a", 100, "query")
        assert net.now_s == pytest.approx(cost)
        net.faults.crash_site("a")
        with pytest.raises(MessageDropped):
            net.send("federation", "a", 100, "query")
        # a drop still burns the link latency before the loss is noticed
        assert net.now_s > cost

    def test_advance_rejects_negative(self):
        net = self._network()
        with pytest.raises(NetworkError):
            net.advance(-1.0)

    def test_health_of_helper(self):
        net = self._network()
        assert health_of(net) is net.health
        assert health_of(object()) is None


@pytest.fixture
def bank():
    system = build_bank_sites(3, 4, query_timeout=1.0)
    system.inject_faults(seed=5)
    return system


def _trip(system, site):
    """Fail enough sends to trip ``site``'s breaker."""
    system.network.faults.crash_site(site)
    while system.health.state(site) is not BreakerState.OPEN:
        with pytest.raises(MessageDropped):
            system.network.send("federation", site, 10, "query")


class TestGatewayCircuit:
    def test_open_breaker_fails_fast_with_circuit_error(self, bank):
        _trip(bank, "b1")
        with pytest.raises(CircuitOpenError) as exc:
            bank.query("bank", "SELECT SUM(balance) FROM accounts")
        assert exc.value.site == "b1"
        assert bank.obs.metrics.counter("gateway.circuit_open", site="b1") >= 1

    def test_circuit_error_is_a_network_error(self):
        # so existing NetworkError handling (transaction aborts, partial
        # reads) treats a refused site exactly like an unreachable one
        assert issubclass(CircuitOpenError, NetworkError)

    def test_open_breaker_does_not_gate_recovery(self, bank):
        """recover_in_doubt must keep probing an OPEN site: its delivery
        attempts are the probes that eventually re-close the breaker."""
        txn = bank.begin_transaction()
        txn.execute("b0", "UPDATE account SET balance = balance - 10 WHERE acct = 0")
        txn.execute("b1", "UPDATE account SET balance = balance + 10 WHERE acct = 4")
        faults = bank.network.faults
        faults.drop_next(10**6, destination="b1", purpose="commit")
        txn.commit()
        assert bank.transactions.decisions_parked == 1
        _trip(bank, "b1")
        faults.clear()
        actions = bank.transactions.recover_in_doubt()
        assert (txn.global_id, "b1", "commit") in actions
        # the successful delivery doubled as the probe
        assert bank.health.state("b1") is BreakerState.CLOSED


class TestDegradedReads:
    def test_partial_query_skips_dead_site(self, bank):
        bank.network.faults.crash_site("b1")
        result = bank.query(
            "bank", "SELECT SUM(balance) FROM accounts", allow_partial=True
        )
        assert result.degraded
        assert result.missing_sites == ["b1"]
        assert float(result.scalar()) == 8000.0  # b0 + b2 only
        assert bank.obs.metrics.counter("query.degraded") == 1
        (event,) = bank.events.of_type("query.degraded")
        assert event.fields["sites"] == ["b1"]

    def test_full_result_is_not_degraded(self, bank):
        result = bank.query(
            "bank", "SELECT SUM(balance) FROM accounts", allow_partial=True
        )
        assert not result.degraded
        assert result.missing_sites == []
        assert float(result.scalar()) == 12000.0

    def test_strict_query_still_raises(self, bank):
        bank.network.faults.crash_site("b1")
        with pytest.raises(MessageDropped):
            bank.query("bank", "SELECT SUM(balance) FROM accounts")

    def test_open_breaker_is_skipped_without_burning_messages(self, bank):
        _trip(bank, "b1")
        before = bank.network.dropped_messages
        result = bank.query(
            "bank", "SELECT SUM(balance) FROM accounts", allow_partial=True
        )
        assert result.degraded and result.missing_sites == ["b1"]
        # known-open breaker → no send was even attempted at b1
        assert bank.network.dropped_messages == before

    def test_explain_analyze_renders_degraded_fetches(self, bank):
        bank.network.faults.crash_site("b1")
        result = bank.query(
            "bank", "SELECT SUM(balance) FROM accounts", allow_partial=True
        )
        text = result.explain_analyze()
        assert "DEGRADED: partial result, missing sites: b1" in text
        assert "skipped: site 'b1' unreachable" in text

    def test_federation_stats_surface_health(self, bank):
        _trip(bank, "b1")
        stats = bank.federation_stats()
        assert stats["health"]["b1"]["state"] == "open"
        assert stats["health"]["b1"]["trips"] == 1
        assert stats["health"]["b0"]["state"] == "closed"

    def test_self_healing_end_to_end(self, bank):
        """The acceptance demo: crash → trip → degraded reads → restart →
        half-open probe → breaker closes → full reads again."""
        faults = bank.network.faults
        faults.crash_site("b1")
        with pytest.raises(MessageDropped):
            bank.query("bank", "SELECT SUM(balance) FROM accounts")
        assert bank.health.state("b1") is BreakerState.OPEN
        degraded = bank.query(
            "bank", "SELECT SUM(balance) FROM accounts", allow_partial=True
        )
        assert degraded.degraded and degraded.missing_sites == ["b1"]

        faults.restart_site("b1")
        bank.network.advance(bank.health.cooldown_s)
        healed = bank.query(
            "bank", "SELECT SUM(balance) FROM accounts", allow_partial=True
        )
        assert not healed.degraded
        assert float(healed.scalar()) == 12000.0
        assert bank.health.state("b1") is BreakerState.CLOSED
        types = [e.type for e in bank.events.snapshot()]
        assert "health.trip" in types
        assert "health.probe" in types
        assert "health.close" in types

    def test_transactional_partial_read(self, bank):
        bank.network.faults.crash_site("b2")
        txn = bank.begin_transaction()
        result = bank.transactional_query(
            txn,
            "bank",
            "SELECT SUM(balance) FROM accounts",
            allow_partial=True,
        )
        assert result.degraded and result.missing_sites == ["b2"]
        assert float(result.scalar()) == 8000.0
        txn.commit()


class TestTransientRetry:
    def test_single_drop_is_absorbed_by_fetch_retry(self, bank):
        bank.network.faults.drop_next(1, purpose="query")
        result = bank.query("bank", "SELECT SUM(balance) FROM accounts")
        assert float(result.scalar()) == 12000.0
        assert not result.degraded
        assert bank.obs.metrics.counter_total("query.fetch_retries") == 1

    def test_retry_backoff_advances_the_simulated_clock(self, bank):
        bank.network.faults.drop_next(1, purpose="query")
        before = bank.network.now_s
        bank.query("bank", "SELECT SUM(balance) FROM accounts")
        executor = bank.processor("bank").executor
        assert bank.network.now_s - before >= executor.fetch_retry_backoff_s

    def test_branch_open_retry_in_global_txn(self, bank):
        bank.network.faults.drop_next(1, purpose="begin")
        txn = bank.begin_transaction()
        result = bank.transactional_query(
            txn, "bank", "SELECT SUM(balance) FROM accounts"
        )
        assert float(result.scalar()) == 12000.0
        assert bank.obs.metrics.counter("txn.branch_retries") >= 1
        txn.commit()
