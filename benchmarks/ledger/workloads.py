"""The six ledger workloads: federation, seeded op stream, answer oracle.

Each workload builds its federation with the repo's own builders (data
seeds stay theirs), pulls the components' base rows once to compute the
expected answers in plain Python, and then yields an endless stream of
:class:`Op` values drawn from ``--seed``.  The program under test only
ever sees ``Op.statements``.

Streams are *stratified*: every cycle of a stream covers its literal
range evenly (a shuffled permutation of keys, cut positions dealt one per
stratum, every site pair once), so two seeds cost the same work per cycle
and differ only in literals.  That is what keeps the run-to-run spread of
a seeded benchmark below its own bounds.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass

from repro.workloads import build_bank_sites, build_two_site_join

BANK_SITES = 4
ACCOUNTS_PER_SITE = 500
ACCOUNTS = BANK_SITES * ACCOUNTS_PER_SITE


@dataclass(frozen=True, slots=True)
class Op:
    """One benchmark operation: what is sent and what must come back."""

    kind: str  # "read" | "agg" | "join" | "xfer"
    statements: tuple[str, ...]
    #: Reads: the exact rows (small answers) or ``(row_count, checksum)``.
    #: Transfers: ``(debit_acct, credit_acct)`` for the harness ledger.
    expect: object
    #: ``transfer_2pc`` only: the site each statement is sent to.
    sites: tuple[str, ...] = ()

    def text(self) -> str:
        """The op as the program sees it (for stream-identity checks)."""
        if self.sites:
            return "; ".join(
                f"{site}: {sql}"
                for site, sql in zip(self.sites, self.statements)
            )
        return "; ".join(self.statements)


def digest(rows: list[tuple]) -> tuple[int, float]:
    """Order-independent ``(row_count, checksum)`` of a result.

    Numbers contribute their value and strings their length; ``fsum``
    rounds once, so row order does not change the checksum.
    """
    return len(rows), math.fsum(
        len(cell) if isinstance(cell, str) else cell
        for row in rows
        for cell in row
    )


def _matches(actual: tuple[int, float], expected: tuple[int, float]) -> bool:
    return actual[0] == expected[0] and math.isclose(
        actual[1], expected[1], rel_tol=1e-9, abs_tol=1e-6
    )


class Workload:
    """Base: one federation, one or more closed-loop clients."""

    name = ""
    federation = "bank"
    clients = 1
    #: Untimed ops per client before measurement (caches fill, lazy
    #: statistics and the fetch pool come up); part of ``setup_s``.
    warmup_ops = 0
    #: The simulated metrics are taken over exactly this many leading
    #: timed ops, so they repeat bit for bit however long the run lasts.
    sim_ops = 0
    #: ``--smoke`` op count (about 2 % of a full run at the seed commit).
    smoke_ops = 0
    #: The ``FederationServer`` ops go through, if the workload uses one.
    server = None

    def __init__(self, seed: int):
        self.seed = seed
        self.system = None

    # -- set-up ----------------------------------------------------------

    def build(self):
        """Build the federation (timed as part of ``setup_s``)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Pull base rows and compute the oracle (untimed)."""
        raise NotImplementedError

    def stream(self, client: int):
        """Endless seeded op stream of one client."""
        raise NotImplementedError

    def connect(self, client: int):
        """The callable a client sends ops through."""
        return self.execute

    # -- the op ----------------------------------------------------------

    def execute(self, op: Op):
        """Send one op through the public entry point (this is timed)."""
        return self.system.query(self.federation, op.statements[0])

    def check(self, client: int, op: Op, result) -> bool:
        """Compare the answer with the oracle (untimed)."""
        if isinstance(op.expect, tuple):
            return _matches(digest(result.rows), op.expect)
        return sorted(result.rows) == op.expect

    def sim_s(self, result) -> float:
        """Simulated seconds the op cost."""
        return result.elapsed_s

    def finish(self) -> bool:
        """End-of-run invariants (transfer workloads override)."""
        return True


# ---------------------------------------------------------------------------
# Bank workloads
# ---------------------------------------------------------------------------


def _site_of(acct: int) -> int:
    return acct // ACCOUNTS_PER_SITE


class _Bank(Workload):
    def build(self):
        system = build_bank_sites(
            BANK_SITES, ACCOUNTS_PER_SITE, query_timeout=5.0
        )
        # The builder gives every account the same balance, which no
        # oracle can tell apart; a local-autonomy write makes them unique.
        for index in range(BANK_SITES):
            system.component(f"b{index}").execute(
                "UPDATE account SET balance = balance + acct"
            )
        return system

    def base_rows(self) -> dict[int, float]:
        balances: dict[int, float] = {}
        for index in range(BANK_SITES):
            result = self.system.component(f"b{index}").execute(
                "SELECT acct, balance FROM account"
            )
            balances.update(result.rows)
        return balances

    def prepare(self) -> None:
        self.balances = self.base_rows()

    def point_read(self, acct: int) -> Op:
        return Op(
            "read",
            (f"SELECT balance FROM accounts WHERE acct = {acct}",),
            [(self.balances[acct],)],
        )


class PointLookup(_Bank):
    name = "point_lookup"
    warmup_ops = 80
    sim_ops = 600
    smoke_ops = 30

    def stream(self, client: int):
        keys = list(range(ACCOUNTS))
        random.Random(self.seed).shuffle(keys)
        return map(self.point_read, itertools.cycle(keys))


class HotRead(_Bank):
    name = "hot_read"
    warmup_ops = 32
    sim_ops = 4000
    smoke_ops = 200

    def stream(self, client: int):
        rng = random.Random(self.seed)
        balances = self.balances
        ops = [
            self.point_read(site * ACCOUNTS_PER_SITE + offset)
            for site in range(BANK_SITES)
            for offset in rng.sample(range(ACCOUNTS_PER_SITE), 3)
        ]
        total = math.fsum(balances.values())
        ops += [
            Op("agg", ("SELECT SUM(balance) FROM accounts",), (1, total)),
            Op("agg", ("SELECT COUNT(*) FROM accounts",), [(len(balances),)]),
            Op(
                "agg",
                ("SELECT MAX(balance) FROM accounts",),
                [(max(balances.values()),)],
            ),
            Op(
                "agg",
                ("SELECT site, COUNT(*) FROM accounts GROUP BY site",),
                [(f"b{i}", ACCOUNTS_PER_SITE) for i in range(BANK_SITES)],
            ),
        ]
        return itertools.cycle(ops)


class _Transfers(_Bank):
    """Shared ledger of committed deltas and the end-of-run audit."""

    def prepare(self) -> None:
        super().prepare()
        self.deltas = [dict() for _ in range(self.clients)]

    def transfer_pairs(self, rng: random.Random, accounts: list[list[int]]):
        """Endless (debit, credit) account pairs on two distinct sites.

        Each cycle uses every site pair once, so the lock and message
        pattern per cycle does not depend on the seed.
        """
        pairs = list(itertools.combinations(range(BANK_SITES), 2))
        for cycle in itertools.count():
            rng.shuffle(pairs)
            for position, (low, high) in enumerate(pairs):
                accts = rng.choice(accounts[low]), rng.choice(accounts[high])
                # Direction alternates by position, not by seed: a seed
                # changes literals, never the statement shapes.
                yield accts if (cycle + position) % 2 else accts[::-1]

    @staticmethod
    def transfer(debit: int, credit: int, relation: str, routed: bool) -> Op:
        """Move 1 from ``debit`` to ``credit``, lower site first.

        One lock order on every client means no global deadlock.
        ``relation`` may name the site (``accounts_b{site}``); ``routed``
        ops carry the site each statement is sent to.
        """
        accts = sorted((debit, credit))
        sign = {debit: "-", credit: "+"}
        return Op(
            "xfer",
            tuple(
                f"UPDATE {relation.format(site=_site_of(acct))} SET balance "
                f"= balance {sign[acct]} 1 WHERE acct = {acct}"
                for acct in accts
            ),
            (debit, credit),
            tuple(f"b{_site_of(acct)}" for acct in accts) if routed else (),
        )

    def check(self, client: int, op: Op, result) -> bool:
        """A transfer returns ``(txn, row counts)``; reads go to the oracle."""
        if op.kind != "xfer":
            return super().check(client, op, result)
        debit, credit = op.expect
        deltas = self.deltas[client]
        deltas[debit] = deltas.get(debit, 0) - 1
        deltas[credit] = deltas.get(credit, 0) + 1
        return result[1] == [1, 1]

    def sim_s(self, result) -> float:
        if isinstance(result, tuple):
            return result[0].trace.elapsed_s
        return result.elapsed_s

    def finish(self) -> bool:
        expected = dict(self.balances)
        for deltas in self.deltas:
            for acct, delta in deltas.items():
                expected[acct] += delta
        total = self.system.query(
            self.federation, "SELECT SUM(balance) FROM accounts"
        ).scalar()
        return self.base_rows() == expected and math.isclose(
            total, math.fsum(self.balances.values())
        )


class Transfer2PC(_Transfers):
    name = "transfer_2pc"
    warmup_ops = 100
    sim_ops = 1500
    smoke_ops = 80

    def stream(self, client: int):
        rng = random.Random(self.seed)
        sites = [
            list(range(i * ACCOUNTS_PER_SITE, (i + 1) * ACCOUNTS_PER_SITE))
            for i in range(BANK_SITES)
        ]
        for debit, credit in self.transfer_pairs(rng, sites):
            yield self.transfer(debit, credit, "account", routed=True)

    def execute(self, op: Op):
        txn = self.system.begin_transaction()
        counts = [
            txn.execute(site, sql)
            for site, sql in zip(op.sites, op.statements)
        ]
        txn.commit()
        return txn, counts


class MixedSessions(_Transfers):
    name = "mixed_sessions"
    clients = 2
    warmup_ops = 40
    sim_ops = 0  # two threads interleave: no exactly repeating prefix
    smoke_ops = 20
    HOT_KEYS_PER_SITE = 16
    #: One cycle: 70 % reads, 10 % SUM, 20 % transfers, in a fixed order
    #: (the second client starts half a cycle in, so the two never run
    #: in lockstep).
    MIX = "read read xfer read read agg read xfer read read".split()

    def build(self):
        system = super().build()
        federation = system.federation(self.federation)
        for index in range(BANK_SITES):
            federation.define_relation(
                f"accounts_b{index}",
                f"SELECT acct, balance FROM b{index}.account",
            )
        self.server = system.create_server()
        return system

    def prepare(self) -> None:
        super().prepare()
        rng = random.Random(self.seed)
        # Reads and transfers use disjoint accounts, so every read has an
        # exact expected answer while commits still invalidate its plans
        # and fragments (versions are per table, not per row).
        self.hot: list[int] = []
        self.cold: list[list[int]] = []
        for site in range(BANK_SITES):
            offsets = list(range(ACCOUNTS_PER_SITE))
            rng.shuffle(offsets)
            base = site * ACCOUNTS_PER_SITE
            self.hot += [
                base + o for o in offsets[: self.HOT_KEYS_PER_SITE]
            ]
            self.cold.append(
                [base + o for o in offsets[self.HOT_KEYS_PER_SITE :]]
            )

    def stream(self, client: int):
        rng = random.Random(f"{self.seed}/{client}")
        pairs = self.transfer_pairs(rng, self.cold)
        total = Op("agg", ("SELECT SUM(balance) FROM accounts",), None)
        half = len(self.MIX) // 2 * client
        while True:
            for kind in self.MIX[half:] + self.MIX[:half]:
                if kind == "read":
                    yield self.point_read(rng.choice(self.hot))
                elif kind == "agg":
                    yield total
                else:
                    yield self.transfer(
                        *next(pairs), "accounts_b{site}", routed=False
                    )

    def connect(self, client: int):
        session = self.server.connect()
        federation = self.federation

        def execute(op: Op):
            if op.kind != "xfer":
                return session.execute(federation, op.statements[0])
            # begin() instead of "BEGIN" hands back the transaction, whose
            # message trace carries the simulated cost of the transfer.
            txn = session.begin()
            counts = [
                session.execute(federation, sql) for sql in op.statements
            ]
            session.execute(federation, "COMMIT")
            return txn, counts

        return execute

    def check(self, client: int, op: Op, result) -> bool:
        if op.kind == "agg":
            # Sites of one statement may be read at different commit
            # points (documented cross-site snapshot caveat): mid-run the
            # total only has to come back as one number.
            return len(result.rows) == 1 and isinstance(
                result.rows[0][0], float
            )
        return super().check(client, op, result)


# ---------------------------------------------------------------------------
# Two-site join workloads
# ---------------------------------------------------------------------------


class _Join(Workload):
    federation = "synth"
    rows = 0
    match_fraction = 1.0
    payload_width = 0
    select_list = ""
    x_range = (0.0, 1.0)
    strata = 20
    warmup_ops = 8

    def build(self):
        return build_two_site_join(
            self.rows,
            self.rows,
            match_fraction=self.match_fraction,
            payload_width=self.payload_width,
        )

    def prepare(self) -> None:
        """Dict join in plain Python, indexed by the left filter column.

        The answer to ``flt < x`` is then a prefix of the left rows sorted
        by ``flt``: a bisect and two prefix sums per op.
        """
        left = self.system.component("s1").execute(
            "SELECT k, flt, pad FROM left_t"
        ).rows
        right = self.system.component("s2").execute(
            "SELECT k, val, pad FROM right_t"
        ).rows
        by_key: dict[int, list[tuple]] = {}
        for k, val, pad in right:
            by_key.setdefault(k, []).append((val, pad))
        self.flts: list[float] = []
        self.row_counts = [0]
        self.checksums = [0.0]
        for k, flt, pad in sorted(left, key=lambda row: row[1]):
            joined = [
                self.project(k, pad, val, rpad)
                for val, rpad in by_key.get(k, ())
            ]
            count, checksum = digest(joined)
            self.flts.append(flt)
            self.row_counts.append(self.row_counts[-1] + count)
            self.checksums.append(self.checksums[-1] + checksum)

    def project(self, k, pad, val, rpad) -> tuple:
        raise NotImplementedError

    def stream(self, client: int):
        """``x`` by cut position: how many left rows pass ``flt < x``.

        The cuts inside ``x_range`` are dealt out without replacement, one
        per stratum per round, so every round of ``strata`` ops covers the
        range evenly and no key list repeats within a pass.  Drawing ``x``
        itself would repeat cuts (800 rows leave ~200 of them in range),
        and a repeated cut is a repeated ``IN (...)`` list: a fragment-cache
        hit that skips the very stage ``semijoin_join`` exists to measure.
        """
        rng = random.Random(self.seed)
        flts = self.flts
        low, high = (bisect.bisect_left(flts, x) for x in self.x_range)
        edges = [
            low + (high - low) * i // self.strata
            for i in range(self.strata + 1)
        ]
        while True:
            strata = [list(range(a, b)) for a, b in zip(edges, edges[1:])]
            for cuts in strata:
                rng.shuffle(cuts)
            for turn in range(min(map(len, strata))):
                rng.shuffle(strata)
                for cuts in strata:
                    cut = cuts[turn]
                    literal = f"{rng.uniform(flts[cut - 1], flts[cut]):.6f}"
                    # The oracle answers for the literal as printed.
                    cut = bisect.bisect_left(flts, float(literal))
                    yield Op(
                        "join",
                        (
                            f"SELECT {self.select_list} FROM lhs l JOIN rhs r "
                            f"ON l.k = r.k WHERE l.flt < {literal}",
                        ),
                        (self.row_counts[cut], self.checksums[cut]),
                    )


class JoinShip(_Join):
    name = "join_ship"
    rows = 2000
    match_fraction = 1.0
    payload_width = 32
    select_list = "l.k, r.val"
    x_range = (0.5, 0.9)
    sim_ops = 100
    smoke_ops = 6

    def project(self, k, pad, val, rpad):
        return (k, val)


class SemijoinJoin(_Join):
    name = "semijoin_join"
    rows = 800
    match_fraction = 0.25
    payload_width = 200
    select_list = "l.k, l.pad, r.val, r.pad"
    x_range = (0.05, 0.30)
    sim_ops = 80
    smoke_ops = 6

    def project(self, k, pad, val, rpad):
        return (k, pad, val, rpad)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        PointLookup,
        HotRead,
        JoinShip,
        SemijoinJoin,
        Transfer2PC,
        MixedSessions,
    )
}
