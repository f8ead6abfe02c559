"""Performance-layer tests: replay determinism, thread-safety, and
sorted index postings.

The contract under test: a query's fetches run on its own thread, so
replaying the same queries against a freshly built federation reproduces
every simulated figure (cost, bytes, messages, the network clock) exactly,
however the interpreter schedules threads.  Shared structures (metrics,
span trees, network counters) must stay exact under concurrent queries
from many client threads.
"""

import sys
import threading

from repro.storage.index import HashIndex, OrderedIndex
from repro.workloads import build_partitioned_sites, build_two_site_join

QUERIES = [
    "SELECT k, grp, val FROM measurements WHERE grp < 4",
    "SELECT grp, COUNT(*), SUM(val) FROM measurements GROUP BY grp "
    "ORDER BY grp",
    "SELECT site, MAX(val) FROM measurements GROUP BY site ORDER BY site",
    "SELECT COUNT(*) FROM measurements",
]


def _build():
    return build_partitioned_sites(4, 30, seed=11, fragment_cache=False)


def _trace_nothing(frame, event, arg):
    """A no-op line tracer: it only slows the interpreter down."""
    return _trace_nothing


class TestReplayDeterminism:
    """The same queries on the same federation give the same figures."""

    REPLAYS = 20

    def test_replays_reproduce_the_clock_and_the_accounting(self):
        clocks = set()
        outcomes = set()
        old_trace = sys.gettrace()
        old_interval = sys.getswitchinterval()
        # A tracer and a tiny switch interval shake up thread scheduling:
        # anything that adds to the simulated clock in completion order
        # shows up as a last-bit difference.
        sys.setswitchinterval(1e-6)
        sys.settrace(_trace_nothing)
        try:
            for _ in range(self.REPLAYS):
                with _build() as system:
                    results = [system.query("synth", sql) for sql in QUERIES]
                    clocks.add(system.network.now_s)
                outcomes.add(
                    tuple(
                        (
                            tuple(result.rows),
                            result.elapsed_s,
                            result.bytes_shipped,
                            result.trace.message_count,
                        )
                        for result in results
                    )
                )
        finally:
            sys.settrace(old_trace)
            sys.setswitchinterval(old_interval)
        assert len(clocks) == 1, sorted(clocks)
        assert len(outcomes) == 1

    def test_semijoin_stages_replay_identically(self):
        """A second stage fed by the first's keys replays exactly too."""
        sql = (
            "SELECT l.k, l.pad, r.val, r.pad FROM lhs l JOIN rhs r "
            "ON l.k = r.k WHERE l.flt < 0.1"
        )
        replays = set()
        for _ in range(3):
            with build_two_site_join(
                60,
                120,
                match_fraction=0.25,
                payload_width=200,
                fragment_cache=False,
            ) as system:
                result = system.query("synth", sql)
                assert any(fetch.semijoin for fetch in result.plan.fetches)
                replays.add(
                    (
                        tuple(result.rows),
                        result.elapsed_s,
                        result.bytes_shipped,
                        result.trace.message_count,
                        system.network.now_s,
                    )
                )
        assert len(replays) == 1

    def test_trace_balanced_after_fan_out(self):
        with _build() as system:
            result = system.query("synth", QUERIES[0])
            assert len(result.plan.fetches) == 4
            assert result.trace.balanced

    def test_fan_out_starts_no_thread(self):
        before = set(threading.enumerate())
        with _build() as system:
            result = system.query("synth", QUERIES[0])
            during = set(threading.enumerate())
        assert len({fetch.site for fetch in result.plan.fetches}) == 4
        assert during <= before  # no thread started
        assert not any(t.name.startswith("myriad-fetch") for t in during)


def _walk(span, seen):
    assert id(span) not in seen, "span appears twice in one tree"
    seen.add(id(span))
    for child in span.children:
        assert child.parent is span, "child points at the wrong parent"
        _walk(child, seen)


class TestConcurrentQueries:
    """N threads × M queries against ONE system: exact shared accounting."""

    THREADS = 6
    PER_THREAD = 8

    def test_counters_and_spans_survive_storm(self):
        with build_partitioned_sites(4, 20, seed=3) as system:
            expected = {
                sql: system.query("synth", sql).rows for sql in QUERIES
            }
            system.metrics.reset()
            errors = []

            def storm(thread_index):
                try:
                    for i in range(self.PER_THREAD):
                        sql = QUERIES[(thread_index + i) % len(QUERIES)]
                        result = system.query("synth", sql)
                        assert result.rows == expected[sql]
                        assert result.trace.balanced
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [
                threading.Thread(target=storm, args=(t,))
                for t in range(self.THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors

            total = self.THREADS * self.PER_THREAD
            metrics = system.metrics
            assert metrics.counter_total("query.executed") == total
            # Every query over `measurements` fans out to exactly 4 fetches;
            # each one either hits or misses the fragment cache — nothing
            # lost, nothing double-counted.
            assert (
                metrics.counter_total("fragcache.hit")
                + metrics.counter_total("fragcache.miss")
                == total * 4
            )
            assert (
                metrics.counter_total("plancache.hit")
                + metrics.counter_total("plancache.miss")
                == total
            )

            # No span tree corrupted: parent/child links are consistent and
            # every fetch span landed under a stage of its own tree.
            for root in list(system.tracer.roots):
                _walk(root, set())
                if root.name != "query.execute":
                    continue
                stages = root.find("execute.stage")
                for fetch_span in root.find("execute.fetch"):
                    assert fetch_span.parent in stages


class TestSortedPostings:
    """Index postings stay sorted at insert; scans never re-sort."""

    def test_sorted_rids_ascending(self):
        index = HashIndex("i", "t", ["k"])
        for rid in (42, 7, 19, 3, 26):
            index.insert((1,), rid)
        assert index.sorted_rids((1,)) == (3, 7, 19, 26, 42)
        assert index.sorted_rids((9,)) == ()
        assert index.lookup((1,)) == {3, 7, 19, 26, 42}

    def test_duplicate_insert_ignored(self):
        index = HashIndex("i", "t", ["k"])
        index.insert((1,), 5)
        index.insert((1,), 5)
        assert index.sorted_rids((1,)) == (5,)
        assert len(index) == 1

    def test_delete_keeps_order(self):
        index = HashIndex("i", "t", ["k"])
        for rid in (8, 2, 6, 4):
            index.insert((1,), rid)
        index.delete((1,), 6)
        index.delete((1,), 99)  # absent: no-op
        assert index.sorted_rids((1,)) == (2, 4, 8)

    def test_range_scan_sorted(self):
        index = OrderedIndex("i", "t", ["k"])
        for key in (3, 1, 2):
            for rid in (30 + key, 10 + key, 20 + key):
                index.insert((key,), rid)
        got = list(index.range_scan_sorted((1,), (2,)))
        assert got == [
            ((1,), (11, 21, 31)),
            ((2,), (12, 22, 32)),
        ]
        # set-returning API unchanged
        assert dict(index.range_scan((1,), (1,))) == {(1,): {11, 21, 31}}
