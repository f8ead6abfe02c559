"""Tests for the MyriadSystem facade and remaining workload generators."""

import dataclasses

import pytest

from repro.errors import FederationError
from repro.myriad import MyriadSystem
from repro.sql import ORACLE_DIALECT, parse_statement, to_sql
from repro.workloads import build_partitioned_sites, build_two_site_join


class TestFacade:
    def test_add_components(self):
        system = MyriadSystem()
        system.add_oracle("o1")
        system.add_postgres("p1")
        assert system.site_names() == ["o1", "p1"]
        assert system.component("o1").dialect.name == "oracle"
        assert system.gateway("p1").site == "p1"

    def test_duplicate_site_rejected(self):
        system = MyriadSystem()
        system.add_oracle("x")
        with pytest.raises(FederationError):
            system.add_postgres("x")

    def test_unknown_lookups(self):
        system = MyriadSystem()
        with pytest.raises(FederationError):
            system.component("ghost")
        with pytest.raises(FederationError):
            system.gateway("ghost")
        with pytest.raises(FederationError):
            system.federation("ghost")

    def test_federation_lifecycle(self):
        system = MyriadSystem()
        system.create_federation("f1")
        system.create_federation("f2")
        assert system.federation_names() == ["f1", "f2"]
        with pytest.raises(FederationError):
            system.create_federation("F1")  # case-insensitive clash
        system.drop_federation("f1")
        assert system.federation_names() == ["f2"]

    def test_gateways_shared_with_late_components(self):
        """Components added after a federation are still visible to it."""
        system = MyriadSystem()
        fed = system.create_federation("f")
        late = system.add_postgres("late")
        late.dbms.execute("CREATE TABLE t (a INTEGER)")
        late.dbms.execute("INSERT INTO t VALUES (7)")
        late.export_table("t", "t")
        fed.define_relation("r", "SELECT a FROM late.t")
        assert system.query("f", "SELECT a FROM r").rows == [(7,)]

    def test_processor_cached(self):
        system = MyriadSystem()
        system.create_federation("f")
        assert system.processor("f") is system.processor("f")

    def test_default_optimizer_setting(self):
        system = MyriadSystem()
        gateway = system.add_postgres("s")
        gateway.dbms.execute("CREATE TABLE t (a INTEGER)")
        gateway.export_table("t", "t")
        fed = system.create_federation("f")
        fed.define_relation("r", "SELECT a FROM s.t")
        processor = system.processor("f")
        assert processor.plan("SELECT a FROM r").strategy == "cost"
        plan = processor.plan("SELECT a FROM r", optimizer="simple")
        assert plan.strategy == "simple"
        result = system.query("f", "SELECT a FROM r", optimizer="simple")
        assert result.plan.strategy == "simple"

    def test_unknown_optimizer_raises_federation_error(self):
        system = MyriadSystem()
        gateway = system.add_postgres("s")
        gateway.dbms.execute("CREATE TABLE t (a INTEGER)")
        gateway.export_table("t", "t")
        system.create_federation("f").define_relation(
            "r", "SELECT a FROM s.t"
        )
        for call in (
            lambda: system.query("f", "SELECT a FROM r", optimizer="nonsense"),
            lambda: system.explain("f", "SELECT a FROM r", "nonsense"),
        ):
            with pytest.raises(FederationError, match="'nonsense'.*simple"):
                call()


class TestConfig:
    def test_unknown_option_is_a_type_error(self):
        for removed in ("retry_jitter", "default_optimizer", "nonsense"):
            with pytest.raises(TypeError, match=removed):
                MyriadSystem(**{removed: 1})

    @pytest.mark.parametrize(
        "option, value",
        [
            ("replication_factor", 0),
            ("replication_factor", -3),
            ("fragment_cache", -1),
            ("fragment_cache", 1.5),
            ("plan_cache_size", -1),
            ("trace_sample_rate", 2.0),
        ],
    )
    def test_bad_value_is_rejected_at_construction(self, option, value):
        with pytest.raises(ValueError, match=option):
            MyriadSystem(**{option: value})

    def test_config_is_frozen_and_reaches_every_layer(self):
        system = MyriadSystem(
            query_timeout=2.0, fragment_cache=7, wire_compression=True
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            system.config.fragment_cache = False
        system.create_federation("f")
        executor = system.processor("f").executor
        assert executor.fragment_cache.stats["capacity"] == 7
        assert executor.wire_compression is True
        assert system.transactions.query_timeout == 2.0


class TestWorkloadGenerators:
    def test_two_site_join_determinism(self):
        one = build_two_site_join(50, 50, seed=9)
        two = build_two_site_join(50, 50, seed=9)
        q = "SELECT k FROM lhs ORDER BY k"
        assert one.query("synth", q).rows == two.query("synth", q).rows

    def test_two_site_join_match_fraction(self):
        system = build_two_site_join(100, 400, match_fraction=0.25, seed=4)
        matches = system.query(
            "synth",
            "SELECT COUNT(*) FROM lhs l JOIN rhs r ON l.k = r.k",
        ).scalar()
        # binomial around 100; generous bounds
        assert 50 < matches < 160

    def test_partitioned_sites_shape(self):
        system = build_partitioned_sites(3, 20, seed=2)
        assert len(system.site_names()) == 3
        total = system.query(
            "synth", "SELECT COUNT(*) FROM measurements"
        ).scalar()
        assert total == 60
        # keys globally unique across partitions
        distinct = system.query(
            "synth", "SELECT COUNT(DISTINCT k) FROM measurements"
        ).scalar()
        assert distinct == 60

    def test_partitioned_alternates_dialects(self):
        system = build_partitioned_sites(2, 5)
        assert system.component("p0").dialect.name == "postgres"
        assert system.component("p1").dialect.name == "oracle"


class TestOracleTopN:
    def test_order_by_limit_wraps_in_derived_table(self):
        stmt = parse_statement("SELECT a FROM t ORDER BY a DESC LIMIT 3")
        text = to_sql(stmt, ORACLE_DIALECT)
        assert "ROWNUM <= 3" in text
        assert text.index("ORDER BY") < text.index("ROWNUM")
        assert "__topn" in text

    def test_plain_limit_stays_inline(self):
        stmt = parse_statement("SELECT a FROM t WHERE a > 1 LIMIT 3")
        text = to_sql(stmt, ORACLE_DIALECT)
        assert "__topn" not in text
        assert "ROWNUM <= 3" in text

    def test_topn_through_oracle_dbms(self):
        from repro.localdb import OracleDBMS

        oracle = OracleDBMS("o")
        oracle.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        for i in range(10):
            oracle.execute(f"INSERT INTO t VALUES ({i})")
        stmt = parse_statement("SELECT a FROM t ORDER BY a DESC LIMIT 3")
        text = to_sql(stmt, ORACLE_DIALECT)
        result = oracle.execute(text)
        assert result.rows == [(9,), (8,), (7,)]


class TestLifecycle:
    """MyriadSystem.close() / context-manager support: no leaked threads,
    no unflushed WAL tails."""

    def _bank(self):
        from repro.workloads import build_bank_sites

        return build_bank_sites(2, 2, query_timeout=1.0)

    def test_close_flushes_every_wal(self):
        system = self._bank()
        gtm_wal = system.transactions.wal
        # leave an unflushed tail on the coordinator and a participant log
        from repro.concurrency.wal import LogRecordType

        gtm_wal.append(LogRecordType.COORD_COMMIT, "G_TAIL", flush=False)
        assert gtm_wal.flushed_lsn < gtm_wal._next_lsn - 1
        system.close()
        assert gtm_wal.flushed_lsn == gtm_wal._next_lsn - 1
        for dbms in system.components.values():
            wal = dbms.transactions.wal
            assert wal.flushed_lsn == wal._next_lsn - 1

    def test_close_stops_deadlock_monitor_thread(self):
        system = self._bank()
        monitor = system.start_deadlock_monitor(interval_s=0.01)
        assert system.deadlock_monitor is monitor
        thread = monitor._thread
        assert thread is not None and thread.is_alive()
        system.close()
        assert system.deadlock_monitor is None
        assert monitor._thread is None  # stop() joined and discarded it
        assert not thread.is_alive()

    def test_start_deadlock_monitor_is_cached(self):
        system = self._bank()
        first = system.start_deadlock_monitor(interval_s=0.01)
        assert system.start_deadlock_monitor() is first
        system.close()

    def test_close_is_idempotent(self):
        system = self._bank()
        system.start_deadlock_monitor(interval_s=0.01)
        system.close()
        system.close()  # second close must be a no-op, not an error
        assert system.deadlock_monitor is None

    def test_context_manager_closes_on_exit(self):
        with self._bank() as system:
            system.start_deadlock_monitor(interval_s=0.01)
            thread = system.deadlock_monitor._thread
            assert float(system.query("bank", "SELECT SUM(balance) FROM accounts").scalar()) == 4000.0
        assert system.deadlock_monitor is None
        assert not thread.is_alive()

    def test_context_manager_closes_on_error(self):
        with pytest.raises(RuntimeError):
            with self._bank() as system:
                system.start_deadlock_monitor(interval_s=0.01)
                thread = system.deadlock_monitor._thread
                raise RuntimeError("boom")
        assert not thread.is_alive()
