"""Synthetic workload generators for the benchmark suite.

Everything is seeded and deterministic.  The builders return a configured
:class:`~repro.myriad.MyriadSystem` plus whatever handles the experiment
needs.
"""

from __future__ import annotations

import random

from repro.myriad import MyriadSystem
from repro.schema import union_merge


def _load_site(gateway, ddl: str, insert_sql: str, rows: list) -> None:
    """Create a table and load rows at a site — on *every* replica.

    With ``replication_factor > 1`` the gateway fronts a replica group;
    seed data (like DDL) must exist identically at each replica, so the
    builders generate the row list once (one RNG draw order, bit-identical
    to the unreplicated build) and load it everywhere.
    """
    dbmses = getattr(gateway, "replica_dbmses", None) or [gateway.dbms]
    for dbms in dbmses:
        dbms.execute(ddl)
        session = dbms.connect()
        session.begin()
        for row in rows:
            session.execute(insert_sql, list(row))
        session.commit()


def build_two_site_join(
    left_rows: int,
    right_rows: int,
    match_fraction: float = 0.5,
    selectivity: float = 1.0,
    payload_width: int = 32,
    seed: int = 7,
    query_timeout: float | None = 5.0,
    observability: bool = True,
    **system_kwargs,
) -> MyriadSystem:
    """Two sites, one relation each, joinable on ``k``.

    - ``match_fraction``: fraction of right rows whose key matches some left
      key (controls semijoin benefit)
    - ``selectivity``: fraction of left rows passing ``flt < cutoff`` where
      the benchmark query filters ``WHERE l.flt < {selectivity}`` (column
      ``flt`` is uniform in [0,1))
    - ``payload_width``: width of the ``pad`` column (bytes shipped per row)

    Exports: site ``s1`` exports ``left_rel(k, flt, pad)``; site ``s2``
    exports ``right_rel(k, val, pad)``.
    """
    rng = random.Random(seed)
    system = MyriadSystem(
        query_timeout=query_timeout,
        observability=observability,
        **system_kwargs,
    )
    s1 = system.add_postgres("s1")
    s2 = system.add_oracle("s2")

    pad = "x" * payload_width
    left = [(key, rng.random(), pad) for key in range(left_rows)]

    matchable = max(int(left_rows), 1)
    right = []
    for rid in range(right_rows):
        if rng.random() < match_fraction:
            key = rng.randrange(matchable)  # matches a left key
        else:
            key = matchable + rng.randrange(max(right_rows, 1))  # misses
        right.append((rid, key, rng.random(), pad))

    _load_site(
        s1,
        "CREATE TABLE left_t (k INTEGER PRIMARY KEY, flt FLOAT, pad VARCHAR(%d))"
        % max(payload_width, 1),
        "INSERT INTO left_t VALUES (?, ?, ?)",
        left,
    )
    _load_site(
        s2,
        "CREATE TABLE right_t (rid INTEGER PRIMARY KEY, k INTEGER, "
        "val FLOAT, pad VARCHAR2(%d))" % max(payload_width, 1),
        "INSERT INTO right_t VALUES (?, ?, ?, ?)",
        right,
    )

    s1.export_table("left_t", "left_rel", ["k", "flt", "pad"])
    s2.export_table("right_t", "right_rel", ["rid", "k", "val", "pad"])

    fed = system.create_federation("synth")
    fed.define_relation(
        "lhs", "SELECT k, flt, pad FROM s1.left_rel"
    )
    fed.define_relation(
        "rhs", "SELECT rid, k, val, pad FROM s2.right_rel"
    )
    return system


def build_partitioned_sites(
    site_count: int,
    rows_per_site: int,
    payload_width: int = 24,
    seed: int = 11,
    query_timeout: float | None = 5.0,
    observability: bool = True,
    **system_kwargs,
) -> MyriadSystem:
    """One relation horizontally partitioned across N sites.

    Each site ``p<i>`` exports ``part(k, grp, val, pad)``; the federation
    integrates them as ``measurements`` (a union with a site tag).
    Alternating sites are Oracle- and Postgres-dialect, so scale-out tests
    also cross dialects.  ``observability=False`` builds the system with
    tracing/metrics off — the baseline of the E12 overhead benchmark.
    Extra keyword arguments (``network``, ``fragment_cache``, ...) pass
    straight to :class:`MyriadSystem`.
    """
    rng = random.Random(seed)
    system = MyriadSystem(
        query_timeout=query_timeout,
        observability=observability,
        **system_kwargs,
    )
    pad = "x" * payload_width

    sources = []
    for index in range(site_count):
        site = f"p{index}"
        if index % 2 == 0:
            gateway = system.add_postgres(site)
            pad_type = f"VARCHAR({max(payload_width, 1)})"
        else:
            gateway = system.add_oracle(site)
            pad_type = f"VARCHAR2({max(payload_width, 1)})"
        base = index * rows_per_site
        rows = [
            (base + offset, rng.randrange(16), rng.random(), pad)
            for offset in range(rows_per_site)
        ]
        _load_site(
            gateway,
            f"CREATE TABLE part_t (k INTEGER PRIMARY KEY, grp INTEGER, "
            f"val FLOAT, pad {pad_type})",
            "INSERT INTO part_t VALUES (?, ?, ?, ?)",
            rows,
        )
        gateway.export_table("part_t", "part", ["k", "grp", "val", "pad"])
        sources.append((site, "part", ["k", "grp", "val", "pad"]))

    fed = system.create_federation("synth")
    fed.add_relation(
        union_merge("measurements", sources, source_tag_column="site")
    )
    return system


def build_bank_sites(
    site_count: int,
    accounts_per_site: int,
    initial_balance: float = 1000.0,
    query_timeout: float | None = 0.5,
    **system_kwargs,
) -> MyriadSystem:
    """Bank accounts spread over N sites, for transaction experiments.

    Site ``b<i>`` holds table ``account(acct INTEGER PRIMARY KEY,
    balance FLOAT)``.  Used by the 2PC-overhead and deadlock benchmarks:
    transfers between sites become multi-site global transactions.
    Extra keyword arguments (``mvcc_reads``, ``fragment_cache``, ...)
    pass straight to :class:`MyriadSystem` — the E16 serving benchmark
    uses ``mvcc_reads=False`` for its 2PL-read baseline.
    """
    system = MyriadSystem(query_timeout=query_timeout, **system_kwargs)
    for index in range(site_count):
        site = f"b{index}"
        gateway = (
            system.add_postgres(site)
            if index % 2 == 0
            else system.add_oracle(site)
        )
        _load_site(
            gateway,
            "CREATE TABLE account (acct INTEGER PRIMARY KEY, balance FLOAT)",
            "INSERT INTO account VALUES (?, ?)",
            [
                (index * accounts_per_site + acct, initial_balance)
                for acct in range(accounts_per_site)
            ],
        )
        gateway.export_table("account", "account", ["acct", "balance"])

    fed = system.create_federation("bank")
    fed.add_relation(
        union_merge(
            "accounts",
            [
                (f"b{i}", "account", ["acct", "balance"])
                for i in range(site_count)
            ],
            source_tag_column="site",
        )
    )
    return system


def total_balance(system: MyriadSystem) -> float:
    """Federation-wide balance invariant used by the transaction tests."""
    result = system.query("bank", "SELECT SUM(balance) FROM accounts")
    return float(result.scalar())
