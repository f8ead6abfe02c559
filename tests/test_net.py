"""Simulated-network tests: accounting, link profiles, parallel sections."""

import pytest

from repro.errors import NetworkError
from repro.net import (
    LinkProfile,
    MessageTrace,
    Network,
    estimate_rows_bytes,
    estimate_value_bytes,
)


class TestLinkProfile:
    def test_cost_formula(self):
        link = LinkProfile(latency_s=0.01, bandwidth_bytes_per_s=1000.0)
        assert link.cost(0) == pytest.approx(0.01)
        assert link.cost(1000) == pytest.approx(1.01)

    def test_default_profile_is_10base_t(self):
        link = LinkProfile()
        # 1.25 MB/s, 2ms latency
        assert link.cost(1_250_000) == pytest.approx(1.002)


class TestNetwork:
    def test_send_accounts_messages_and_bytes(self):
        net = Network()
        net.add_site("a")
        net.add_site("b")
        trace = MessageTrace()
        cost = net.send("a", "b", 100, "query", trace)
        assert cost > 0
        assert net.total_messages == 1
        assert net.total_bytes == 100
        assert trace.message_count == 1
        assert trace.total_bytes == 100
        assert trace.elapsed_s == pytest.approx(cost)

    def test_local_send_is_free(self):
        net = Network()
        net.add_site("a")
        assert net.send("a", "a", 1000, "query") == 0.0
        assert net.total_messages == 0

    def test_unknown_site_rejected(self):
        net = Network()
        net.add_site("a")
        with pytest.raises(NetworkError):
            net.send("a", "nope", 1, "query")
        with pytest.raises(NetworkError):
            net.send("nope", "a", 1, "query")

    def test_per_link_override(self):
        net = Network()
        net.add_site("a")
        net.add_site("b")
        slow = LinkProfile(latency_s=1.0, bandwidth_bytes_per_s=10.0)
        net.set_link("a", "b", slow)
        assert net.send("a", "b", 10, "query") == pytest.approx(2.0)
        # reverse direction keeps the default
        assert net.send("b", "a", 10, "query") < 0.1

    def test_set_link_requires_sites(self):
        net = Network()
        net.add_site("a")
        with pytest.raises(NetworkError):
            net.set_link("a", "missing", LinkProfile())


class TestMessageTrace:
    def test_sequential_accumulation(self):
        trace = MessageTrace()
        trace.add_compute(1.0)
        trace.add_compute(2.0)
        assert trace.elapsed_s == pytest.approx(3.0)

    def test_parallel_takes_max(self):
        trace = MessageTrace()
        trace.begin_parallel()
        with trace.branch("x"):
            trace.add_compute(1.0)
        with trace.branch("y"):
            trace.add_compute(5.0)
        trace.end_parallel()
        assert trace.elapsed_s == pytest.approx(5.0)

    def test_parallel_then_sequential(self):
        trace = MessageTrace()
        trace.begin_parallel()
        with trace.branch("x"):
            trace.add_compute(2.0)
        trace.end_parallel()
        trace.add_compute(1.0)
        assert trace.elapsed_s == pytest.approx(3.0)

    def test_nested_parallel(self):
        trace = MessageTrace()
        trace.begin_parallel()
        with trace.branch("outer1"):
            trace.add_compute(1.0)
            trace.begin_parallel()
            with trace.branch("inner1"):
                trace.add_compute(4.0)
            with trace.branch("inner2"):
                trace.add_compute(2.0)
            trace.end_parallel()
        with trace.branch("outer2"):
            trace.add_compute(3.0)
        trace.end_parallel()
        assert trace.elapsed_s == pytest.approx(5.0)

    def test_empty_parallel_costs_nothing(self):
        trace = MessageTrace()
        trace.begin_parallel()
        trace.end_parallel()
        assert trace.elapsed_s == 0.0

    def test_bytes_by_purpose(self):
        net = Network()
        net.add_site("a")
        net.add_site("b")
        trace = MessageTrace()
        net.send("a", "b", 10, "query", trace)
        net.send("b", "a", 90, "result", trace)
        assert trace.bytes_by_purpose() == {"query": 10, "result": 90}


class TestSizing:
    def test_value_bytes(self):
        assert estimate_value_bytes(None) == 1
        assert estimate_value_bytes(True) == 1
        assert estimate_value_bytes(5) == 8
        assert estimate_value_bytes(5.0) == 8
        assert estimate_value_bytes("abc") == 7

    def test_rows_bytes_includes_framing(self):
        assert estimate_rows_bytes([(1,), (2,)]) == 2 * (8 + 8)

    def test_empty_rows(self):
        assert estimate_rows_bytes([]) == 0


class TestTraceMisuse:
    """The cost-attribution contract of MessageTrace parallel sections."""

    def test_branch_without_open_section_raises(self):
        trace = MessageTrace()
        with pytest.raises(NetworkError):
            trace.branch("x")

    def test_end_parallel_without_begin_raises(self):
        trace = MessageTrace()
        with pytest.raises(NetworkError):
            trace.end_parallel()

    def test_branch_after_section_closed_raises(self):
        trace = MessageTrace()
        trace.begin_parallel()
        trace.end_parallel()
        with pytest.raises(NetworkError):
            trace.branch("late")

    def test_balanced_property(self):
        trace = MessageTrace()
        assert trace.balanced
        trace.begin_parallel()
        assert not trace.balanced
        with trace.branch("x"):
            assert not trace.balanced
        trace.end_parallel()
        assert trace.balanced

    def test_branch_elapsed_reads_open_section(self):
        trace = MessageTrace()
        trace.begin_parallel()
        with trace.branch("x"):
            trace.add_compute(2.0)
        assert trace.branch_elapsed("x") == pytest.approx(2.0)
        assert trace.branch_elapsed("never-ran") == 0.0
        trace.end_parallel()
        with pytest.raises(NetworkError):
            trace.branch_elapsed("x")

    def test_cost_outside_branch_accrues_sequentially(self):
        # documented fallback: coordinator-side work inside a section but
        # outside any branch goes straight to elapsed_s
        trace = MessageTrace()
        trace.begin_parallel()
        trace.add_compute(1.0)
        with trace.branch("x"):
            trace.add_compute(5.0)
        trace.end_parallel()
        assert trace.elapsed_s == pytest.approx(1.0 + 5.0)


class TestNestedParallelWithMessages:
    def test_message_costs_roll_up_like_compute(self):
        net = Network()
        for site in ("fed", "a", "b"):
            net.add_site(site)
        slow = LinkProfile(latency_s=1.0, bandwidth_bytes_per_s=1e9)
        fast = LinkProfile(latency_s=0.25, bandwidth_bytes_per_s=1e9)
        net.set_link("fed", "a", slow)
        net.set_link("fed", "b", fast)

        trace = MessageTrace()
        trace.begin_parallel()
        with trace.branch("a"):
            net.send("fed", "a", 10, "query", trace)  # ~1.0s
        with trace.branch("b"):
            net.send("fed", "b", 10, "query", trace)  # ~0.25s
            trace.begin_parallel()
            with trace.branch("b-inner1"):
                net.send("fed", "b", 10, "query", trace)  # ~0.25s
            with trace.branch("b-inner2"):
                net.send("fed", "b", 10, "query", trace)  # ~0.25s
            trace.end_parallel()
        trace.end_parallel()
        # max(a=1.0, b=0.25 + max(0.25, 0.25)) = 1.0
        assert trace.elapsed_s == pytest.approx(1.0, rel=1e-6)
        assert trace.message_count == 4
        assert trace.balanced


class TestExecutorTraceBalance:
    """Regression: a fetch failure must not corrupt a caller-owned trace.

    GlobalExecutor.execute opened a parallel section per stage but never
    closed it when _run_fetch raised (dropped message, gateway timeout), so
    a trace reused across statements — every global transaction's — silently
    attributed all later costs to a dead branch.
    """

    def _failing_system(self):
        from repro.workloads import build_two_site_join

        system = build_two_site_join(10, 10)
        system.inject_faults(seed=1).drop_next(1, purpose="query")
        # These tests need the fetch to fail *hard*: disable the
        # executor's transient-loss retry so one drop kills the query.
        system.processor("synth").executor.fetch_retry_limit = 0
        return system

    def test_trace_stays_balanced_when_fetch_raises(self):
        from repro.errors import MessageDropped

        system = self._failing_system()
        trace = MessageTrace()
        processor = system.processor("synth")
        with pytest.raises(MessageDropped):
            processor.execute(
                "SELECT k, flt FROM lhs", trace=trace, optimizer="simple"
            )
        assert trace.balanced

    def test_later_costs_land_in_elapsed_after_failure(self):
        from repro.errors import MessageDropped

        system = self._failing_system()
        trace = MessageTrace()
        processor = system.processor("synth")
        with pytest.raises(MessageDropped):
            processor.execute(
                "SELECT k, flt FROM lhs", trace=trace, optimizer="simple"
            )
        before = trace.elapsed_s
        trace.add_compute(1.0)  # e.g. the transaction's next statement
        assert trace.elapsed_s == pytest.approx(before + 1.0)

    def test_same_trace_usable_for_a_retry(self):
        from repro.errors import MessageDropped

        system = self._failing_system()
        trace = MessageTrace()
        processor = system.processor("synth")
        with pytest.raises(MessageDropped):
            processor.execute(
                "SELECT k, flt FROM lhs", trace=trace, optimizer="simple"
            )
        result = processor.execute(
            "SELECT k, flt FROM lhs", trace=trace, optimizer="simple"
        )
        assert len(result.rows) == 10
        assert trace.balanced

    def test_first_failure_stops_the_stage(self):
        """A fetch that fails for good raises at once: the later fetches
        of its stage send nothing, and nothing is left open."""
        from repro.errors import MessageDropped
        from repro.workloads import build_partitioned_sites

        sql = "SELECT k, grp, val FROM measurements WHERE grp < 4"
        with build_partitioned_sites(
            4, 30, seed=11, fragment_cache=False
        ) as system:
            processor = system.processor("synth")
            plan = processor.execute(sql).plan
            sites = [fetch.site for fetch in plan.fetches]
            assert len(set(sites)) == 4 and not any(
                fetch.semijoin for fetch in plan.fetches
            )
            faults = system.inject_faults(seed=1)
            faults.drop_next(
                processor.executor.fetch_retry_limit + 1,
                destination=sites[1],
                purpose="query",
            )
            trace = MessageTrace()
            with pytest.raises(MessageDropped) as raised:
                processor.execute(sql, trace=trace)
            assert raised.value.destination == sites[1]
            assert repr(sites[1]) in str(raised.value)
            assert {drop.destination for drop in faults.dropped} == {sites[1]}
            touched = {
                site
                for record in trace.records
                for site in (record.source, record.destination)
            }
            assert sites[0] in touched
            assert touched.isdisjoint(sites[1:])
            assert trace.balanced
            assert all(not locks for locks in system.lock_table().values())
            for site in sites:
                manager = system.component(site).transactions
                assert manager.active_transactions() == []
                assert manager.active_snapshots() == 0
