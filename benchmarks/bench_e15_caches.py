"""E15 — Federation performance layer: the fragment and plan caches.

Claims validated:

1. **Fragment cache.** Re-running a read-only query serves every fragment
   from the federation-site cache: zero new network messages.  Committed
   DML through a gateway invalidates exactly the written export, and the
   next read fetches fresh rows.
2. **Plan cache.** Repeated planning of the same SQL hits the compiled
   plan LRU, skipping parse → expand → optimize.
"""

from conftest import emit

from repro.workloads import build_bank_sites


def test_e15_caches(benchmark):
    with build_bank_sites(4, 50, query_timeout=5.0) as bank:
        sql = "SELECT acct, balance FROM accounts"

        cold = bank.query("bank", sql)
        messages_cold = cold.trace.message_count
        network_after_cold = bank.network.total_messages

        warm = bank.query("bank", sql)
        messages_warm = warm.trace.message_count
        assert warm.rows == cold.rows
        # Claim 1: every fragment served from cache → zero new messages.
        assert messages_warm == 0
        assert bank.network.total_messages == network_after_cold
        hits = bank.metrics.counter_total("fragcache.hit")
        assert hits == 4

        # Committed DML invalidates: the next read is fresh.
        txn = bank.begin_transaction()
        txn.execute(
            "b0", "UPDATE account SET balance = 42 WHERE acct = 0"
        )
        txn.commit()
        fresh = bank.query("bank", sql)
        assert fresh.trace.message_count > 0  # b0 refetched
        assert dict(fresh.rows)[0] == 42.0

        # Claim 2: the warm rerun hit the plan cache; the post-DML rerun
        # correctly missed (committed writes move the statistics version,
        # which is part of the plan-cache key).
        plan_hits = bank.metrics.counter_total("plancache.hit")
        plan_misses = bank.metrics.counter_total("plancache.miss")
        assert plan_hits == 1 and plan_misses == 2

        emit(
            "E15_CACHES",
            "fragment + plan cache effect (4-site bank, repeated scan)",
            ["phase", "trace_msgs", "fragcache_hits", "plancache_hits"],
            [
                ("cold", messages_cold, 0, 0),
                ("warm", messages_warm, int(hits), int(plan_hits)),
                (
                    "after-DML",
                    fresh.trace.message_count,
                    int(bank.metrics.counter_total("fragcache.hit")),
                    int(bank.metrics.counter_total("plancache.hit")),
                ),
            ],
        )

        benchmark(lambda: bank.query("bank", sql))
