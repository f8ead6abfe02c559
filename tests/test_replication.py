"""Replication layer tests: replica groups, elections, log replication,
deterministic failover, follower reads, and the leader-kill chaos module."""

import pytest

from repro.chaos import (
    enumerate_replication_points,
    run_replica_crash,
)
from repro.errors import MessageDropped
from repro.replication import ReplicatedGateway
from repro.workloads import (
    build_bank_sites,
    build_two_site_join,
    total_balance,
)

ACCOUNTS = 4


def build_replicated(replicas=3, **kwargs):
    kwargs.setdefault("replication_factor", replicas)
    system = build_bank_sites(3, ACCOUNTS, query_timeout=1.0, **kwargs)
    system.inject_faults(seed=0)
    return system


def rows_at(replica):
    result = replica.gateway.dbms.execute(
        "SELECT acct, balance FROM account ORDER BY acct"
    )
    return tuple(result.rows)


def write(system, site, sql):
    """Autocommit DML straight at one logical site's gateway."""
    return system.gateways[site].execute_update(sql, None)


def transfer(system, amount=25.0):
    txn = system.begin_transaction()
    txn.execute(
        "b0",
        f"UPDATE account SET balance = balance - {amount} WHERE acct = 0",
    )
    txn.execute(
        "b1",
        "UPDATE account SET balance = balance + "
        f"{amount} WHERE acct = {ACCOUNTS}",
    )
    txn.commit()


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


class TestReplicatedBuild:
    def test_each_site_becomes_a_group_of_n(self):
        system = build_replicated(3)
        assert set(system.replica_groups) == {"b0", "b1", "b2"}
        for site, group in system.replica_groups.items():
            assert len(group.replicas) == 3
            assert [r.site for r in group.replicas] == [
                f"{site}#0", f"{site}#1", f"{site}#2"
            ]
            assert group.leader.site == f"{site}#0"
            assert isinstance(system.gateways[site], ReplicatedGateway)
        system.close()

    def test_replicas_start_with_identical_seed_data(self):
        system = build_replicated(3)
        for group in system.replica_groups.values():
            contents = {rows_at(r) for r in group.replicas}
            assert len(contents) == 1
        system.close()

    def test_factor_one_builds_no_replica_machinery(self):
        system = build_bank_sites(3, ACCOUNTS, replication_factor=1)
        assert system.replica_groups == {}
        assert not isinstance(system.gateways["b0"], ReplicatedGateway)
        system.close()

    def test_factor_one_is_bit_identical_to_the_default_build(self):
        def run(**kwargs):
            system = build_two_site_join(60, 60, seed=7, **kwargs)
            result = system.query(
                "synth",
                "SELECT COUNT(*) FROM lhs, rhs WHERE lhs.k = rhs.k",
            )
            totals = (
                result.scalar(),
                system.network.total_messages,
                system.network.total_bytes,
                system.network.now_s,
            )
            system.close()
            return totals

        assert run() == run(replication_factor=1)


# ---------------------------------------------------------------------------
# Log replication
# ---------------------------------------------------------------------------


class TestLogReplication:
    def test_autocommit_write_reaches_every_replica(self):
        system = build_replicated(3)
        write(system, "b0", "UPDATE account SET balance = balance + 7 WHERE acct = 0")
        group = system.replica_groups["b0"]
        assert group.leader.commit_index == 1
        assert all(r.applied_index == 1 for r in group.replicas)
        assert len({rows_at(r) for r in group.replicas}) == 1
        assert rows_at(group.replicas[1])[0] == (0, 1007.0)
        system.close()

    def test_two_pc_commit_is_replicated_as_prepare_then_commit(self):
        system = build_replicated(3)
        transfer(system, 25.0)
        for site in ("b0", "b1"):
            group = system.replica_groups[site]
            kinds = [e.kind for e in group.leader.log]
            assert kinds == ["prepare", "commit"]
            assert group.leader.commit_index == 2
            assert all(r.applied_index == 2 for r in group.replicas)
            assert len({rows_at(r) for r in group.replicas}) == 1
            assert not group.leader.pending_prepares
        assert total_balance(system) == 3 * ACCOUNTS * 1000.0
        system.close()

    def test_aborted_branch_leaves_replicas_untouched(self):
        system = build_replicated(3)
        system.gateways["b1"].fail_next_prepares = 1
        with pytest.raises(Exception):
            transfer(system, 25.0)
        for group in system.replica_groups.values():
            assert len({rows_at(r) for r in group.replicas}) == 1
            assert rows_at(group.replicas[0])[0][1] == 1000.0
            assert not group.leader.pending_prepares
        system.close()


# ---------------------------------------------------------------------------
# Elections and failover
# ---------------------------------------------------------------------------


class TestFailover:
    def test_leader_kill_elects_and_write_succeeds(self):
        system = build_replicated(3)
        group = system.replica_groups["b0"]
        system.network.faults.crash_site("b0#0")
        write(system, "b0", "UPDATE account SET balance = balance + 3 WHERE acct = 0")
        assert group.leader.site != "b0#0"
        assert group.term == 2
        assert group.failovers == 1
        assert group.last_failover_s > 0.0
        assert group.elections[2] == group.leader.site
        # the write is applied at the surviving majority
        live = [r for r in group.replicas if r.site != "b0#0"]
        assert all(rows_at(r)[0] == (0, 1003.0) for r in live)
        system.close()

    def test_election_is_seed_deterministic(self):
        def winner():
            system = build_replicated(3)
            system.network.faults.crash_site("b0#0")
            write(system, "b0", "UPDATE account SET balance = balance + 1 WHERE acct = 0")
            group = system.replica_groups["b0"]
            out = (group.leader.site, group.term, group.last_failover_s)
            system.close()
            return out

        assert winner() == winner()

    def test_healed_ex_leader_converges_via_catch_up(self):
        system = build_replicated(3)
        group = system.replica_groups["b0"]
        faults = system.network.faults
        faults.crash_site("b0#0")
        write(system, "b0", "UPDATE account SET balance = balance + 9 WHERE acct = 0")
        faults.heal()
        group.catch_up()
        assert len({rows_at(r) for r in group.replicas}) == 1
        assert group.violations == []
        system.close()

    def test_breaker_open_leader_triggers_election(self):
        system = build_replicated(3)
        group = system.replica_groups["b0"]
        health = system.network.health
        for _ in range(health.threshold):
            health.record_failure("b0#0", reason="probe")
        assert health.is_blocked("b0#0")
        result = system.query("bank", "SELECT SUM(balance) FROM accounts")
        assert float(result.scalar()) == 3 * ACCOUNTS * 1000.0
        assert group.leader.site != "b0#0"
        system.close()

    def test_majority_dead_group_is_unavailable(self):
        system = build_replicated(3)
        faults = system.network.faults
        faults.crash_site("b0#0")
        faults.crash_site("b0#1")
        with pytest.raises(MessageDropped):
            write(system, "b0", "UPDATE account SET balance = balance + 1 WHERE acct = 0")
        assert system.replica_groups["b0"].violations == []
        system.close()

    def test_single_leader_per_term_across_repeated_failovers(self):
        system = build_replicated(3)
        group = system.replica_groups["b0"]
        faults = system.network.faults
        for _ in range(3):
            faults.crash_site(group.leader.site)
            write(system, "b0", "UPDATE account SET balance = balance + 1 WHERE acct = 0")
            faults.heal()
            group.catch_up()
        assert group.violations == []
        assert len(group.elections) == len(set(group.elections))
        assert len({rows_at(r) for r in group.replicas}) == 1
        system.close()


# ---------------------------------------------------------------------------
# Failover during 2PC
# ---------------------------------------------------------------------------


class TestFailoverDuring2PC:
    def test_leader_kill_mid_prepare_keeps_the_group_vote_consistent(self):
        system = build_replicated(3)
        group = system.replica_groups["b0"]
        faults = system.network.faults
        killed = []

        def hook(point, **context):
            if point == "mid_append:prepare" and not killed:
                killed.append(group.leader.site)
                faults.crash_site(group.leader.site)

        group.chaos_hook = hook
        try:
            transfer(system, 25.0)
        finally:
            group.chaos_hook = None
        assert killed == ["b0#0"]
        assert group.leader.site != "b0#0"
        # the adopted branch committed on the new leader's replica set
        live = [r for r in group.replicas if r.site != "b0#0"]
        assert all(rows_at(r)[0] == (0, 975.0) for r in live)
        faults.heal()
        group.catch_up()
        assert len({rows_at(r) for r in group.replicas}) == 1
        assert group.violations == []
        system.close()

    def test_decision_survives_leader_kill_before_commit_append(self):
        system = build_replicated(3)
        group = system.replica_groups["b0"]
        faults = system.network.faults

        def hook(point, **context):
            if point == "before_append:commit":
                group.chaos_hook = None
                faults.crash_site(group.leader.site)

        group.chaos_hook = hook
        transfer(system, 10.0)
        faults.heal()
        for g in system.replica_groups.values():
            g.catch_up()
        assert total_balance(system) == 3 * ACCOUNTS * 1000.0
        live_rows = {rows_at(r) for r in group.replicas}
        assert len(live_rows) == 1
        assert rows_at(group.replicas[0])[0] == (0, 990.0)
        system.close()


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


class TestPartitions:
    def test_election_under_asymmetric_partition(self):
        # Followers cannot reach the leader (acks are lost) but the
        # leader's appends still arrive: the healthy follower majority
        # elects among itself and the write lands there.
        system = build_replicated(3)
        group = system.replica_groups["b0"]
        faults = system.network.faults
        faults.partition_oneway(["b0#1", "b0#2"], ["b0#0"])
        write(system, "b0", "UPDATE account SET balance = balance + 5 WHERE acct = 0")
        assert group.leader.site in ("b0#1", "b0#2")
        assert group.violations == []
        followers = [r for r in group.replicas if r.site != "b0#0"]
        assert all(rows_at(r)[0] == (0, 1005.0) for r in followers)
        faults.heal()
        group.catch_up()
        assert len({rows_at(r) for r in group.replicas}) == 1
        system.close()

    def test_three_way_partition_heals_and_converges(self):
        system = build_replicated(3)
        group = system.replica_groups["b0"]
        faults = system.network.faults
        sites = [r.site for r in group.replicas]
        for i, a in enumerate(sites):
            for b in sites[i + 1 :]:
                faults.partition([a], [b])
        with pytest.raises(MessageDropped):
            write(system, "b0", "UPDATE account SET balance = balance + 1 WHERE acct = 0")
        faults.heal()
        group.catch_up()
        assert group.violations == []
        # Raft's unknown-outcome semantics: the failed write was already
        # in the leader's log, so the heal commits it everywhere — the
        # client saw an error, but the write is not lost.
        assert len({rows_at(r) for r in group.replicas}) == 1
        assert rows_at(group.replicas[0])[0] == (0, 1001.0)
        # the group is writable again after the heal
        write(system, "b0", "UPDATE account SET balance = balance + 2 WHERE acct = 0")
        group.catch_up()
        assert all(rows_at(r)[0] == (0, 1003.0) for r in group.replicas)
        system.close()


# ---------------------------------------------------------------------------
# Follower reads
# ---------------------------------------------------------------------------


class TestFollowerReads:
    def test_snapshot_reads_are_served_by_followers(self):
        system = build_replicated(3, follower_reads=True)
        result = system.query("bank", "SELECT SUM(balance) FROM accounts")
        assert float(result.scalar()) == 3 * ACCOUNTS * 1000.0
        served = sum(
            g.follower_reads for g in system.replica_groups.values()
        )
        assert served == 3  # one fragment per site, all follower-served
        system.close()

    def test_disabled_follower_reads_go_to_the_leader(self):
        system = build_replicated(3, follower_reads=False)
        system.query("bank", "SELECT SUM(balance) FROM accounts")
        assert all(
            g.follower_reads == 0 for g in system.replica_groups.values()
        )
        system.close()

    def test_reads_alternate_over_eligible_followers(self):
        system = build_replicated(3, follower_reads=True)
        gateway = system.gateways["b0"]
        first = gateway.router.pick_follower(0)
        second = gateway.router.pick_follower(0)
        assert {first.site, second.site} == {"b0#1", "b0#2"}
        system.close()

    def test_staleness_bound_excludes_lagging_followers(self):
        system = build_replicated(3, follower_reads=True)
        group = system.replica_groups["b0"]
        router = system.gateways["b0"].router
        # A follower crashed through a write lags by one entry.
        system.network.faults.crash_site("b0#2")
        write(system, "b0", "UPDATE account SET balance = balance + 1 WHERE acct = 0")
        system.network.faults.heal()
        laggard = group.replicas[2]
        assert laggard.lag() == 0  # its own view is consistent...
        assert group.leader.commit_index - laggard.applied_index == 1
        for _ in range(4):
            assert router.pick_follower(0).site == "b0#1"
        # a relaxed bound re-admits it; so does convergence
        assert {
            router.pick_follower(1).site for _ in range(4)
        } == {"b0#1", "b0#2"}
        group.catch_up()
        assert {
            router.pick_follower(0).site for _ in range(4)
        } == {"b0#1", "b0#2"}
        system.close()

    def test_reads_fall_back_to_the_leader_when_all_followers_lag(self):
        system = build_replicated(3, follower_reads=True)
        group = system.replica_groups["b0"]
        router = system.gateways["b0"].router
        for replica in group.replicas:
            if replica is not group.leader:
                replica.applied_index = -1  # force both out of bound
        assert router.pick_follower(0) is None
        result = system.query("bank", "SELECT SUM(balance) FROM accounts")
        assert float(result.scalar()) == 3 * ACCOUNTS * 1000.0
        assert group.follower_reads == 0
        system.close()

    def test_staleness_gauge_tracks_follower_lag(self):
        system = build_replicated(3, follower_reads=True)
        write(system, "b0", "UPDATE account SET balance = balance + 1 WHERE acct = 0")
        stats = system.replica_groups["b0"].stats()
        assert stats["staleness"] == {"b0#1": 0, "b0#2": 0}
        system.close()


# ---------------------------------------------------------------------------
# Chaos module
# ---------------------------------------------------------------------------


class TestReplicationChaos:
    def test_enumerated_points_cover_the_replication_protocol(self):
        points = enumerate_replication_points()
        for kind in ("prepare", "commit"):
            assert f"before_append:{kind}" in points
            assert f"mid_append:{kind}" in points
            assert f"after_append:{kind}" in points
            assert f"before_commit_advance:{kind}" in points
        assert "before_decision:commit" in points
        assert points[-1] == "mid_election"

    @pytest.mark.parametrize(
        "point",
        ["mid_append:prepare", "before_decision:commit", "mid_election"],
    )
    def test_leader_kill_run_holds_the_invariants(self, point):
        run = run_replica_crash(point, seed=0)
        assert run.ok, run.violations
        if point == "mid_election":
            assert run.quorum_lost
            assert run.app_outcome == "unavailable"
        else:
            assert run.failovers >= 1
            assert run.app_outcome in ("committed", "aborted")
