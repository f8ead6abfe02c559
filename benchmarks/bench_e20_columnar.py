"""E20 — Columnar engine + dict/RLE wire compression.

Claims validated (results carry markers CI greps for):

1. **Identical results.** Every query shape returns the same row multiset
   run row-at-a-time and batch-at-a-time on the same planned tree, and
   federated results are identical with and without wire compression
   (``identical=yes``).
2. **Batch speedup.** Batch-at-a-time execution is at least **2×**
   faster wall-clock than row-at-a-time on scan / filter / join /
   aggregate microbenchmarks (``speedup=yes``).  This is why the engine
   runs statements over large inputs as batches on its own.
3. **Wire win.** Dict/RLE encoding of shipped fragments cuts simulated
   bytes-on-wire by at least **30%** on the synthetic bank workload, with
   results and message counts unchanged (``wire_win=yes``).
4. **Determinism.** With ``wire_compression`` off, simulated accounting
   is bit-identical to the default system.
"""

import random
import time

from conftest import emit

from repro.engine import LocalEngine
from repro.engine import operators as ops
from repro.engine.columnar import run_vectorized
from repro.sql import parse_query
from repro.storage import Catalog
from repro.workloads import build_bank_sites

ROWS = 30_000
TARGET_SPEEDUP = 2.0
TARGET_WIRE_DROP = 0.30

SCAN_SQL = "SELECT grp, val FROM fact"
FILTER_SQL = "SELECT id, val FROM fact WHERE val < 0.2 AND grp > 5"
JOIN_SQL = (
    "SELECT d.label, f.val FROM fact f JOIN dim d ON f.grp = d.gid "
    "WHERE f.val < 0.5"
)
AGG_SQL = (
    "SELECT grp, COUNT(*), SUM(val), AVG(val), MIN(val), MAX(val) "
    "FROM fact GROUP BY grp"
)

BANK_SCAN = "SELECT acct, balance FROM accounts WHERE balance >= 0"


def build_engine() -> LocalEngine:
    engine = LocalEngine(Catalog("e20"))
    engine.execute(
        "CREATE TABLE fact (id INTEGER PRIMARY KEY, grp INTEGER, "
        "val FLOAT, pad VARCHAR(16))"
    )
    engine.execute(
        "CREATE TABLE dim (gid INTEGER PRIMARY KEY, label VARCHAR(12))"
    )
    rng = random.Random(20)
    fact = engine.catalog.get_table("fact")
    for i in range(ROWS):
        fact.insert((i, rng.randrange(64), rng.random(), "x" * 16))
    dim = engine.catalog.get_table("dim")
    for g in range(64):
        dim.insert((g, f"G{g}"))
    return engine


def _timed(engine, sql, batch, repeats=5):
    """Best-of wall clock to plan and run ``sql`` on one strategy."""
    query = parse_query(sql)
    best = float("inf")
    rows = None
    for _ in range(repeats):
        start = time.perf_counter()
        plan = engine.planner.plan_query(query)
        ctx = ops.ExecContext()
        rows = run_vectorized(plan, ctx) if batch else list(plan.rows(ctx))
        best = min(best, time.perf_counter() - start)
    return best, rows


def test_e20_vectorized_speedup(benchmark):
    """Per-operator wall clock, row vs batch, on one 30k-row table."""
    engine = build_engine()
    table_rows = []
    all_identical = True
    all_fast = True
    for label, sql in [
        ("seq scan", SCAN_SQL),
        ("filter", FILTER_SQL),
        ("hash join", JOIN_SQL),
        ("aggregate", AGG_SQL),
    ]:
        row_s, row_rows = _timed(engine, sql, batch=False)
        vec_s, vec_rows = _timed(engine, sql, batch=True)
        identical = sorted(row_rows, key=repr) == sorted(vec_rows, key=repr)
        speedup = row_s / vec_s
        all_identical &= identical
        all_fast &= speedup >= TARGET_SPEEDUP
        table_rows.append(
            (label, row_s * 1000, vec_s * 1000, speedup,
             "yes" if identical else "NO")
        )
    table_rows.append(
        ("identical=%s" % ("yes" if all_identical else "NO"),
         "", "", "", ""))
    table_rows.append(
        ("speedup=%s" % ("yes" if all_fast else "NO"), "", "", "", ""))
    emit(
        "E20a",
        f"batch-at-a-time vs row-at-a-time ({ROWS}-row table)",
        ["operator", "row ms", "vec ms", "speedup", "identical"],
        table_rows,
    )
    assert all_identical
    assert all_fast
    # The engine's own size rule runs this 30k-row aggregate as a batch.
    benchmark(lambda: engine.execute(AGG_SQL))


def test_e20_wire_compression(benchmark):
    """Bytes-on-wire with and without the fragment codec (bank workload)."""

    def run(**knobs):
        system = build_bank_sites(4, 300, **knobs)
        with system:
            result = system.query("bank", BANK_SCAN)
            return (
                sorted(result.rows),
                result.bytes_shipped,
                result.trace.message_count,
                result.elapsed_s,
            )

    base_rows, base_bytes, base_msgs, base_sim = run()
    comp_rows, comp_bytes, comp_msgs, comp_sim = run(wire_compression=True)
    off_rows, off_bytes, off_msgs, off_sim = run(wire_compression=False)

    identical = base_rows == comp_rows and base_msgs == comp_msgs
    drop = 1 - comp_bytes / base_bytes
    bit_identical = (off_rows, off_bytes, off_msgs, off_sim) == (
        base_rows, base_bytes, base_msgs, base_sim
    )
    emit(
        "E20b",
        "wire compression on the bank workload (4 sites x 300 accounts)",
        ["config", "bytes", "messages", "sim ms"],
        [
            ("raw", base_bytes, base_msgs, base_sim * 1000),
            ("dict/rle", comp_bytes, comp_msgs, comp_sim * 1000),
            (f"drop {drop * 100:.1f}%", "", "", ""),
            ("identical=%s" % ("yes" if identical else "NO"), "", "", ""),
            ("wire_win=%s"
             % ("yes" if drop >= TARGET_WIRE_DROP else "NO"), "", "", ""),
            ("knobs_off_bit_identical=%s"
             % ("yes" if bit_identical else "NO"), "", "", ""),
        ],
    )
    assert identical
    assert drop >= TARGET_WIRE_DROP
    assert bit_identical

    system = build_bank_sites(4, 300, wire_compression=True)
    with system:
        benchmark(lambda: system.query("bank", BANK_SCAN))
