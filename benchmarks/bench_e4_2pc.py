"""E4 — Two-phase commit: serializable execution, cost scaling with sites.

Claims validated (paper §2): 2PC over the locals' 2PL yields serializable
global execution (money-conservation invariant under a transfer mix) and
the commit protocol's message/latency cost grows linearly with the number
of participant sites.
"""

from conftest import emit

from repro.workloads import build_bank_sites, total_balance

SITE_COUNTS = [1, 2, 4, 8]


def run_transfer(system, site_count):
    """One global transaction touching every site; returns (msgs, sim_s)."""
    txn = system.begin_transaction()
    for index in range(site_count):
        txn.execute(
            f"b{index}",
            f"UPDATE account SET balance = balance + 0 WHERE acct = "
            f"{index * 4}",
        )
    before_msgs = txn.trace.message_count
    before_elapsed = txn.trace.elapsed_s
    txn.commit()
    return (
        txn.trace.message_count - before_msgs,
        txn.trace.elapsed_s - before_elapsed,
    )


def test_e4_commit_cost_scaling(benchmark):
    rows = []
    for site_count in SITE_COUNTS:
        system = build_bank_sites(site_count, 4, query_timeout=2.0)
        msgs, sim_s = run_transfer(system, site_count)
        protocol = "1-phase" if site_count == 1 else "2PC"
        rows.append((site_count, protocol, msgs, sim_s * 1000))
    emit(
        "E4a",
        "commit cost vs participant count (messages + simulated ms)",
        ["sites", "protocol", "commit_msgs", "commit_ms"],
        rows,
    )
    # Shape: 2 messages per participant and phase; linear growth.
    assert rows[0][2] == 2  # single site: commit+ack only
    for (sites, _, msgs, _) in rows[1:]:
        assert msgs == 4 * sites  # prepare+vote+commit+ack per site
    latencies = [row[3] for row in rows]
    assert latencies == sorted(latencies)

    system = build_bank_sites(4, 4, query_timeout=2.0)
    benchmark(run_transfer, system, 4)


def test_e4_serializability_invariant(benchmark):
    """A mixed transfer workload conserves total balance exactly."""
    import random

    system = build_bank_sites(4, 8, query_timeout=2.0)
    initial = total_balance(system)
    rng = random.Random(41)

    def run_mix():
        """Three rounds of 15 random transfers; returns how many committed."""
        committed = 0
        for _ in range(3 * 15):
            source = rng.randrange(4)
            target = (source + 1 + rng.randrange(3)) % 4
            amount = rng.randint(1, 20)
            txn = system.begin_transaction()
            txn.execute(
                f"b{source}",
                f"UPDATE account SET balance = balance - {amount} "
                f"WHERE acct = {source * 8 + rng.randrange(8)}",
            )
            txn.execute(
                f"b{target}",
                f"UPDATE account SET balance = balance + {amount} "
                f"WHERE acct = {target * 8 + rng.randrange(8)}",
            )
            txn.commit()
            committed += 1
        return committed

    # One pedantic round runs the mix exactly once with the benchmark
    # enabled or disabled, so the table reads the same in both modes.
    committed = benchmark.pedantic(run_mix, rounds=1, iterations=1)
    assert total_balance(system) == initial

    rows = [
        ("transfers committed", committed),
        ("aborts", system.transactions.aborts),
        ("balance drift", total_balance(system) - initial),
    ]
    emit("E4b", "serializability invariant", ["metric", "value"], rows)


def test_e4_abort_cost(benchmark):
    """Global aborts are cheaper than commits (no voting round)."""
    system = build_bank_sites(4, 4, query_timeout=2.0)

    def abort_txn():
        txn = system.begin_transaction()
        for index in range(4):
            txn.execute(
                f"b{index}",
                f"UPDATE account SET balance = 0 WHERE acct = {index * 4}",
            )
        before = txn.trace.message_count
        txn.abort()
        return txn.trace.message_count - before

    abort_msgs = abort_txn()
    commit_msgs, _ = run_transfer(system, 4)
    assert abort_msgs < commit_msgs
    benchmark(abort_txn)
