"""Plan-cache and fragment-cache tests: hits, invalidation, edge cases.

The invalidation contract under test:

- committed DML through any gateway path (1PC, 2PC) bumps the written
  export's data version → the next read misses and fetches fresh rows
- DML inside an *aborted* global transaction must NOT invalidate
- degraded (``allow_partial``) fragments are never cached
- reads inside a global transaction bypass the fragment cache entirely
- redefining an integrated relation or an export flushes compiled plans
- statistics (and so compiled plans) expire only when a write commits
- cached plans are shared, read-only objects; fragment-cache hits are
  served on the calling thread, and every fetch probes the cache once
"""

import copy
import threading

import pytest

from repro.cache import FragmentCache, LRUCache, PlanCache
from repro.cache.fragments import CachedFragment
from repro.gateway import LOCAL_ROW_COST_S
from repro.storage import Fragment
from repro.myriad import MyriadSystem
from repro.workloads import build_bank_sites


@pytest.fixture
def bank():
    with build_bank_sites(3, 4, query_timeout=1.0) as system:
        yield system


BALANCES = "SELECT acct, balance FROM accounts"


def _hits(system):
    return system.metrics.counter_total("fragcache.hit")


def _autocommit_write(system, site):
    """Commit a write to every row of ``site``, outside any transaction."""
    system.gateway(site).execute_update(
        "UPDATE account SET balance = balance + 1", None
    )


def _stats_versions(system):
    return {
        site: system.gateway(site).stats_version for site in ("b0", "b1", "b2")
    }


class TestFragmentCacheHits:
    def test_repeat_read_costs_zero_messages(self, bank):
        first = bank.query("bank", BALANCES)
        messages_after_first = bank.network.total_messages
        second = bank.query("bank", BALANCES)
        assert bank.network.total_messages == messages_after_first
        assert second.rows == first.rows
        assert _hits(bank) == 3  # one per site
        assert second.trace.message_count == 0
        assert second.bytes_shipped == 0

    def test_explain_analyze_marks_cached_fetches(self, bank):
        bank.query("bank", BALANCES)
        second = bank.query("bank", BALANCES)
        analyzed = second.explain_analyze()
        assert "cached" in analyzed
        assert all(actual.cached for actual in second.fetch_actuals.values())

    def test_hits_hand_over_the_stored_rows_unchanged(self, bank, monkeypatch):
        stored, served = [], []
        store, materialize = FragmentCache.store, CachedFragment.materialize

        def spy_store(self, *args, **kwargs):
            stored.append(args[5])  # the fragment
            return store(self, *args, **kwargs)

        def spy_materialize(self):
            fragment = materialize(self)
            served.append(fragment)
            return fragment

        monkeypatch.setattr(FragmentCache, "store", spy_store)
        monkeypatch.setattr(CachedFragment, "materialize", spy_materialize)
        first = bank.query("bank", BALANCES)
        snapshots = [fragment.rows() for fragment in stored]
        second = bank.query("bank", BALANCES)
        assert second.rows == first.rows
        assert len(served) == len(stored) == 3
        assert all(any(s is r for r in stored) for s in served)
        assert [fragment.rows() for fragment in stored] == snapshots

    def test_distinct_fragments_cached_separately(self, bank):
        bank.query("bank", BALANCES)
        bank.query("bank", "SELECT acct FROM accounts WHERE balance > 0")
        assert _hits(bank) == 0
        assert len(bank.processor("bank").fragment_cache) == 6


class TestFragmentCacheInvalidation:
    def test_committed_dml_invalidates(self, bank):
        stale = bank.query(
            "bank", "SELECT balance FROM accounts WHERE acct = 0"
        ).scalar()
        txn = bank.begin_transaction()
        txn.execute(
            "b0", "UPDATE account SET balance = 777 WHERE acct = 0"
        )
        txn.commit()
        fresh = bank.query(
            "bank", "SELECT balance FROM accounts WHERE acct = 0"
        ).scalar()
        assert stale == 1000.0
        assert fresh == 777.0

    def test_two_phase_commit_invalidates_every_branch(self, bank):
        bank.query("bank", BALANCES)
        txn = bank.begin_transaction()
        txn.execute(
            "b0", "UPDATE account SET balance = balance - 5 WHERE acct = 0"
        )
        txn.execute(
            "b1", "UPDATE account SET balance = balance + 5 WHERE acct = 4"
        )
        txn.commit()
        result = bank.query("bank", BALANCES)
        row = {acct: bal for acct, bal in result.rows}
        assert row[0] == 995.0
        assert row[4] == 1005.0
        # b2 was untouched: its fragment may still be served from cache
        assert _hits(bank) == 1

    def test_aborted_txn_does_not_invalidate(self, bank):
        bank.query("bank", BALANCES)
        txn = bank.begin_transaction()
        txn.execute(
            "b0", "UPDATE account SET balance = 0 WHERE acct = 0"
        )
        txn.abort()
        second = bank.query("bank", BALANCES)
        # nothing committed → every fragment still valid → all hits
        assert _hits(bank) == 3
        assert second.trace.message_count == 0
        assert {bal for _, bal in second.rows} == {1000.0}

    def test_reads_inside_global_txn_bypass_cache(self, bank):
        bank.query("bank", BALANCES)  # populate
        txn = bank.begin_transaction()
        result = bank.transactional_query(txn, "bank", BALANCES)
        txn.commit()
        assert _hits(bank) == 0
        assert result.trace.message_count > 0

    def test_degraded_fragments_never_cached(self, bank):
        faults = bank.inject_faults()
        faults.crash_site("b2")
        degraded = bank.query("bank", BALANCES, allow_partial=True)
        assert degraded.degraded and degraded.missing_sites == ["b2"]
        faults.restart_site("b2")
        # let b2's circuit-breaker cooldown elapse so the probe is admitted
        bank.network.advance(1.0)
        healed = bank.query("bank", BALANCES)
        assert not healed.degraded
        assert len(healed.rows) == 12  # b2's rows are back, not the empty
        assert _hits(bank) <= 2  # b2's fragment was never served from cache

    def test_export_schema_change_invalidates_site(self, bank):
        bank.query("bank", BALANCES)
        gateway = bank.gateway("b0")
        gateway.dbms.execute("CREATE TABLE aux (id INTEGER PRIMARY KEY)")
        gateway.export_table("aux", "aux")
        refreshed = bank.query("bank", BALANCES)
        assert len(refreshed.rows) == 12
        # b0's export epoch bumped → its fragment refetched; the other
        # sites' fragments are untouched and still hit
        assert bank.metrics.counter("fragcache.hit", site="b0") == 0
        assert bank.metrics.counter("fragcache.hit", site="b1") == 1


class TestInlineCacheHits:
    """Hits are served on the calling thread; only misses are shipped."""

    def test_fully_cached_query_sends_nothing(self, bank):
        bank.query("bank", BALANCES)
        messages = bank.network.total_messages
        cached = bank.query("bank", BALANCES)
        assert all(actual.cached for actual in cached.fetch_actuals.values())
        assert cached.trace.message_count == 0
        assert bank.network.total_messages == messages
        root = bank.tracer.find("query.execute")[-1]
        assert root.find("execute.fetch") == []

    def test_each_fetch_probes_the_cache_once(self, bank):
        fetches = 0
        for sql in (
            BALANCES,
            BALANCES,
            "SELECT acct FROM accounts WHERE balance > 0",
            BALANCES,
        ):
            fetches += len(bank.query("bank", sql).plan.fetches)
        _autocommit_write(bank, "b1")
        fetches += len(bank.query("bank", BALANCES).plan.fetches)
        stats = bank.processor("bank").fragment_cache.stats
        assert stats["hits"] + stats["misses"] == fetches == 15
        assert stats["stale_drops"] == 1

    def test_fetch_spans_only_for_misses(self, bank):
        bank.query("bank", BALANCES)
        _autocommit_write(bank, "b0")
        bank.query("bank", BALANCES)
        root = bank.tracer.find("query.execute")[-1]
        spans = root.find("execute.fetch")
        assert [span.tags["site"] for span in spans] == ["b0"]

    def test_explain_analyze_marks_only_hits_cached(self, bank):
        bank.query("bank", BALANCES)
        _autocommit_write(bank, "b0")
        result = bank.query("bank", BALANCES)
        actual_lines = [
            line.strip()
            for line in result.explain_analyze().splitlines()
            if line.strip().startswith("actual:")
        ]
        assert len(actual_lines) == 3
        assert sum(line.endswith(" cached") for line in actual_lines) == 2
        by_site = {
            fetch.site: result.fetch_actuals[fetch.index]
            for fetch in result.plan.fetches
        }
        assert not by_site["b0"].cached and by_site["b0"].messages > 0
        assert by_site["b1"].cached and by_site["b2"].cached

    @pytest.mark.parametrize("stale", [("b0",), ("b0", "b2")])
    def test_misses_match_sequential_accounting(self, stale):
        """Each miss costs what the same fetch costs with no cache, and the
        stage costs its slowest miss."""
        runs = {}
        for fragment_cache in (True, False):
            with build_bank_sites(
                3, 4, fragment_cache=fragment_cache
            ) as system:
                system.query("bank", BALANCES)
                for site in stale:
                    _autocommit_write(system, site)
                runs[fragment_cache] = system.query("bank", BALANCES)
        cached, uncached = runs[True], runs[False]
        assert sorted(cached.rows) == sorted(uncached.rows)
        misses = {
            index: actual
            for index, actual in cached.fetch_actuals.items()
            if not actual.cached
        }
        assert len(misses) == len(stale)
        for index, actual in misses.items():
            expected = uncached.fetch_actuals[index]
            for measure in ("rows", "bytes", "messages", "sim_s"):
                assert getattr(actual, measure) == getattr(expected, measure)
        residual_s = cached.residual.rows_scanned * LOCAL_ROW_COST_S
        assert cached.elapsed_s == (
            max(actual.sim_s for actual in misses.values()) + residual_s
        )
        assert cached.bytes_shipped == sum(a.bytes for a in misses.values())
        assert cached.trace.message_count == sum(
            a.messages for a in misses.values()
        )


class TestStatsVersionMovesOnCommitOnly:
    """Only a resolved write expires plans, as for fragment versions."""

    def test_abort_moves_nothing_and_the_plan_still_hits(self, bank):
        bank.query("bank", BALANCES)
        before = _stats_versions(bank)
        txn = bank.begin_transaction()
        txn.execute("b0", "UPDATE account SET balance = 0 WHERE acct = 0")
        assert _stats_versions(bank) == before  # open branch: nothing yet
        txn.abort()
        assert _stats_versions(bank) == before
        bank.query("bank", BALANCES)
        assert bank.metrics.counter_total("plancache.hit") == 1
        assert bank.metrics.counter_total("plancache.miss") == 1

    def test_commit_bumps_once_per_written_site(self, bank):
        before = _stats_versions(bank)
        txn = bank.begin_transaction()
        txn.execute("b0", "UPDATE account SET balance = 1 WHERE acct = 0")
        txn.execute("b0", "UPDATE account SET balance = 2 WHERE acct = 1")
        txn.execute("b1", "UPDATE account SET balance = 3 WHERE acct = 4")
        assert _stats_versions(bank) == before
        txn.commit()
        after = _stats_versions(bank)
        assert {site: after[site] - before[site] for site in after} == {
            "b0": 1,
            "b1": 1,
            "b2": 0,
        }

    def test_federated_dml_commit_bumps_once(self, bank):
        bank.federation("bank").define_relation(
            "accounts_b0", "SELECT acct, balance FROM b0.account"
        )
        before = _stats_versions(bank)
        with bank.create_server().connect() as session:
            session.execute("bank", "BEGIN")
            session.execute(
                "bank", "UPDATE accounts_b0 SET balance = 5 WHERE acct = 0"
            )
            assert _stats_versions(bank) == before
            session.execute("bank", "COMMIT")
        assert _stats_versions(bank)["b0"] == before["b0"] + 1

    def test_autocommit_dml_bumps_once(self, bank):
        before = _stats_versions(bank)
        _autocommit_write(bank, "b2")
        after = _stats_versions(bank)
        assert after["b2"] == before["b2"] + 1
        assert after["b0"] == before["b0"] and after["b1"] == before["b1"]


class TestPlanCache:
    def test_hit_and_miss_metrics(self, bank):
        metrics = bank.metrics
        bank.query("bank", BALANCES)
        assert metrics.counter_total("plancache.miss") == 1
        assert metrics.counter_total("plancache.hit") == 0
        bank.query("bank", BALANCES)
        assert metrics.counter_total("plancache.hit") == 1

    def test_optimizer_variants_cached_separately(self, bank):
        processor = bank.processor("bank")
        plan_a = processor.plan(BALANCES, "cost")
        plan_b = processor.plan(BALANCES, "cost-nosemijoin")
        assert plan_a is not plan_b
        assert bank.metrics.counter_total("plancache.miss") == 2

    def test_hits_share_one_plan(self, bank):
        processor = bank.processor("bank")
        first = processor.plan(BALANCES)
        assert processor.plan(BALANCES) is first
        assert processor.plan(BALANCES) is first
        assert bank.metrics.counter_total("plancache.hit") == 2

    def test_thread_storm_leaves_shared_plan_unchanged(self, bank):
        sql = (
            "SELECT acct, balance FROM accounts WHERE balance > 0 "
            "ORDER BY acct"
        )
        processor = bank.processor("bank")
        plan = processor.plan(sql)
        snapshot = copy.deepcopy(plan)
        expected = bank.query("bank", sql).rows
        start = threading.Barrier(6)
        answers: list[list] = [[] for _ in range(6)]

        def client(index: int) -> None:
            start.wait()
            for _ in range(20):
                result = bank.query("bank", sql)
                result.explain_analyze()
                answers[index].append(result.rows)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(rows == expected for got in answers for rows in got)
        assert sum(map(len, answers)) == 120
        assert processor.plan(sql) is plan
        assert plan == snapshot
        assert plan.describe() == snapshot.describe()

    def test_schema_redefinition_flushes(self, bank):
        bank.query("bank", BALANCES)
        fed = bank.federation("bank")
        relation = fed.get_relation("accounts")
        fed.drop_relation("accounts")
        fed.add_relation(relation)
        bank.query("bank", BALANCES)
        # second planning missed: the schema version moved the cache key
        assert bank.metrics.counter_total("plancache.miss") == 2
        assert bank.metrics.counter_total("plancache.hit") == 0

    def test_committed_dml_flushes(self, bank):
        bank.query("bank", BALANCES)
        txn = bank.begin_transaction()
        txn.execute(
            "b0", "UPDATE account SET balance = 1 WHERE acct = 0"
        )
        txn.commit()
        bank.query("bank", BALANCES)
        # stats version moved → plans recompile against fresh statistics
        assert bank.metrics.counter_total("plancache.miss") == 2

    def test_stats_refresh_flushes(self, bank):
        # regression companion to the gateway stats_version fix: an
        # explicit statistics refresh must expire compiled plans
        bank.query("bank", BALANCES)
        bank.gateway("b0").export_stats("account", refresh=True)
        bank.query("bank", BALANCES)
        assert bank.metrics.counter_total("plancache.miss") == 2
        assert bank.metrics.counter_total("plancache.hit") == 0

    def test_runtime_stats_version_moves_the_key(self):
        with build_bank_sites(2, 2, adaptive_feedback=True) as system:
            processor = system.processor("bank")
            key_before = processor._plan_cache_key(BALANCES, "cost")
            system.query("bank", BALANCES)
            # first execution learned fresh entries → version bumped →
            # plans compiled against the old estimates expire by key
            key_after = processor._plan_cache_key(BALANCES, "cost")
            assert processor.runtime_stats.version > 0
            assert key_before != key_after

    def test_adaptive_feedback_converges_to_cache_hits(self):
        with build_bank_sites(
            2, 2, adaptive_feedback=True, fragment_cache=False
        ) as system:
            system.query("bank", BALANCES)  # miss: cold cache
            system.query("bank", BALANCES)  # miss: version moved after run 1
            assert system.metrics.counter_total("plancache.miss") == 2
            # run 2 re-observed identical actuals: no drift, no bump — the
            # learned estimates converged and caching resumes
            system.query("bank", BALANCES)
            assert system.metrics.counter_total("plancache.hit") == 1

    def test_disabled_by_knob(self):
        with build_bank_sites(2, 2) as system:
            pass  # default system: cache on
        system = MyriadSystem(plan_cache_size=0, fragment_cache=False)
        gateway = system.add_postgres("s")
        gateway.dbms.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        gateway.export_table("t", "t")
        fed = system.create_federation("f")
        fed.define_relation("rel", "SELECT id FROM s.t")
        with system:
            processor = system.processor("f")
            assert processor.plan_cache is None
            assert processor.fragment_cache is None
            system.query("f", "SELECT id FROM rel")
            assert system.metrics.counter_total("plancache.miss") == 0
            assert system.metrics.counter_total("fragcache.miss") == 0


class TestCachePrimitives:
    def test_lru_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats["evictions"] == 1

    def test_fragment_cache_rejects_racing_store(self):
        cache = FragmentCache()
        cache.store(
            "s", "e", "SELECT 1", (0, 1), (0, 2), Fragment.from_rows(["c"], [(1,)])
        )
        assert cache.lookup("s", "e", "SELECT 1", (0, 2)) is None
        assert len(cache) == 0

    def test_fragment_cache_stale_entry_dropped_on_sight(self):
        cache = FragmentCache()
        cache.store(
            "s", "e", "SELECT 1", (0, 1), (0, 1), Fragment.from_rows(["c"], [(1,)])
        )
        assert cache.lookup("s", "e", "SELECT 1", (0, 1)) is not None
        assert cache.lookup("s", "e", "SELECT 1", (0, 2)) is None
        assert cache.stats["stale_drops"] == 1
        assert len(cache) == 0

    def test_key_differs_by_sql_and_codec(self):
        key = FragmentCache.key
        assert key("s", "e", "SELECT 1") != key("s", "e", "SELECT 2")
        assert key("s", "e", "SELECT 1") != key(
            "s", "e", "SELECT 1", "dictrle"
        )
        assert key("s", "E", "SELECT 1") == key("s", "e", "SELECT 1")

    def test_plan_cache_bounded(self):
        cache = PlanCache(capacity=2)
        for i in range(5):
            cache.put(("q", i), {"plan": i})
        assert len(cache) == 2
