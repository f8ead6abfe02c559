"""Columnar engine + wire codec tests (experiment E20).

Three layers:

1. **Engine differential** — randomized queries over randomized tables run
   row-at-a-time and batch-at-a-time on the same planned tree must produce
   identical row multisets *and* identical ``rows_scanned`` accounting
   (the row path is the reference); the engine's size rule picks the
   expected path on either side of its threshold.
2. **Codec properties** — dict/RLE encoding round-trips exactly (NULLs,
   empty fragments, mixed ``True``/``1``/``1.0`` columns) and never
   charges more than the raw rowset.
3. **System** — batch fetches and residuals keep simulated accounting
   bit-identical; ``wire_compression=True`` leaves results identical
   while cutting bytes-on-wire, and composes with the fragment cache.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import LocalEngine
from repro.engine import operators as ops
from repro.engine.columnar import run_vectorized
from repro.engine.planner import BATCH_MIN_ROWS
from repro.net.codec import decode_fragment, encode_fragment
from repro.net.sim import estimate_rows_bytes
from repro.storage import Fragment
from repro.sql import parse_query
from repro.storage import Catalog
from repro.workloads import build_bank_sites


# ---------------------------------------------------------------------------
# Engine differential
# ---------------------------------------------------------------------------


def _build_random_engine(seed: int) -> LocalEngine:
    rng = random.Random(seed)
    catalog = Catalog(f"diff{seed}")
    engine = LocalEngine(catalog)
    engine.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, val FLOAT, "
        "tag VARCHAR(8))"
    )
    engine.execute(
        "CREATE TABLE d (grp INTEGER PRIMARY KEY, label VARCHAR(8))"
    )
    tags = ["aa", "bb", "cc", None]
    for i in range(rng.randrange(50, 300)):
        engine.execute(
            "INSERT INTO t VALUES (?, ?, ?, ?)",
            [
                i,
                rng.randrange(12) if rng.random() > 0.1 else None,
                round(rng.uniform(-50, 50), 3) if rng.random() > 0.1 else None,
                rng.choice(tags),
            ],
        )
    for g in range(12):
        if rng.random() > 0.2:
            engine.execute(
                "INSERT INTO d VALUES (?, ?)", [g, rng.choice(tags[:3])]
            )
    return engine


QUERIES = [
    "SELECT * FROM t",
    "SELECT id, val * 2 FROM t WHERE grp > 3 AND val < 20",
    "SELECT tag, COUNT(*), SUM(val), AVG(val), MIN(id), MAX(id) "
    "FROM t GROUP BY tag",
    "SELECT grp, COUNT(DISTINCT tag) FROM t GROUP BY grp HAVING COUNT(*) > 2",
    "SELECT t.id, d.label FROM t JOIN d ON t.grp = d.grp WHERE t.val > 0",
    "SELECT t.id, d.label FROM t LEFT JOIN d ON t.grp = d.grp",
    "SELECT d.grp, COUNT(t.id) FROM d LEFT JOIN t ON t.grp = d.grp "
    "GROUP BY d.grp",
    "SELECT CASE WHEN val > 0 THEN 'pos' ELSE 'neg' END, COUNT(*) "
    "FROM t GROUP BY CASE WHEN val > 0 THEN 'pos' ELSE 'neg' END",
    "SELECT DISTINCT grp FROM t WHERE tag IN ('aa', 'bb')",
    "SELECT id FROM t WHERE tag LIKE 'a%' OR val BETWEEN -5 AND 5",
    "SELECT grp, val FROM t ORDER BY val DESC, id LIMIT 7",
    "SELECT UPPER(tag), ABS(val) FROM t WHERE tag IS NOT NULL",
    "SELECT id FROM t WHERE grp IN (SELECT grp FROM d WHERE label = 'aa')",
    "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM d WHERE d.grp = t.grp)",
]


def _run_both(engine: LocalEngine, sql: str):
    """Run one planned tree both ways: ((rows, scanned) by row, by batch).

    The row run goes first: translating to batches rewires the tree's
    row-only operators onto batch children."""
    plan = engine.planner.plan_query(parse_query(sql))
    runs = []
    for batch in (False, True):
        ctx = ops.ExecContext(env=engine._make_env(engine.mutator))
        rows = run_vectorized(plan, ctx) if batch else list(plan.rows(ctx))
        runs.append((rows, ctx.rows_scanned + ctx.env.rows_scanned))
    return runs


@pytest.mark.parametrize("seed", range(5))
def test_differential_row_vs_vectorized(seed):
    engine = _build_random_engine(seed)
    for sql in QUERIES:
        (row_rows, row_scanned), (vec_rows, vec_scanned) = _run_both(
            engine, sql
        )
        assert sorted(row_rows, key=repr) == sorted(vec_rows, key=repr), sql
        assert row_scanned == vec_scanned, sql


def test_vectorized_preserves_order_sensitive_results():
    engine = _build_random_engine(99)
    sql = "SELECT id, val FROM t WHERE val IS NOT NULL ORDER BY val, id"
    (row_rows, _), (vec_rows, _) = _run_both(engine, sql)
    assert vec_rows == row_rows


def _sized_engine() -> LocalEngine:
    """``small`` one row under the batch threshold, ``big`` well over it."""
    engine = LocalEngine(Catalog("sized"))
    sizes = {"small": BATCH_MIN_ROWS - 1, "big": 4 * BATCH_MIN_ROWS}
    for name, count in sizes.items():
        engine.execute(
            f"CREATE TABLE {name} (id INTEGER PRIMARY KEY, grp INTEGER)"
        )
        for i in range(count):
            engine.execute(f"INSERT INTO {name} VALUES ({i}, {i % 5})")
    return engine


@pytest.mark.parametrize(
    "sql, strategy",
    [
        ("SELECT id FROM small WHERE grp > 1", "row"),
        ("SELECT id FROM big WHERE grp > 1", "batch"),
        ("SELECT grp, COUNT(*) FROM big GROUP BY grp", "batch"),
        ("SELECT s.id FROM small s JOIN big b ON s.grp = b.grp", "batch"),
        # The row path stops scanning at the limit; a batch would not.
        ("SELECT id FROM big LIMIT 3", "row"),
        ("SELECT id FROM big WHERE grp = 2 LIMIT 3", "row"),
        # A sort reads its whole input first, so a limit above it saves
        # no scan and the batch path stays.
        ("SELECT id FROM big ORDER BY id DESC LIMIT 3", "batch"),
        ("SELECT grp FROM big WHERE id = 7", "row"),  # PK probe: one row
        ("SELECT id FROM small WHERE grp IN (SELECT grp FROM big)", "row"),
    ],
)
def test_engine_picks_path_by_input_size(sql, strategy):
    engine = _sized_engine()
    result = engine.execute(sql)
    report = engine.last_report
    assert report.strategy == strategy
    (row_rows, row_scanned), _ = _run_both(engine, sql)
    assert result.rows == row_rows
    assert report.rows_scanned == row_scanned


def test_bare_limit_stops_scanning_early():
    engine = _sized_engine()
    engine.execute("SELECT id FROM big LIMIT 3")
    # The row Limit pulls one row past the limit before it stops.
    assert engine.last_report.rows_scanned == 4


# ---------------------------------------------------------------------------
# Codec properties
# ---------------------------------------------------------------------------

_value = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
)


def _encode(columns, rows):
    return encode_fragment(Fragment.from_rows(columns, rows))


def _decode(encoded):
    return decode_fragment(encoded).rows()


@given(
    rows=st.lists(
        st.tuples(_value, _value, _value), min_size=0, max_size=120
    )
)
@settings(max_examples=60, deadline=None)
def test_codec_round_trip_and_wire_bound(rows):
    columns = ["a", "b", "c"]
    fragment = _encode(columns, rows)
    decoded = _decode(fragment)
    assert len(decoded) == len(rows)
    for got, want in zip(decoded, rows):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert type(g) is type(w) and g == w
    # Compressed accounting may never exceed the raw path's.
    assert fragment.wire_bytes <= fragment.raw_bytes
    assert fragment.raw_bytes == estimate_rows_bytes(rows)


def test_codec_empty_fragment():
    fragment = _encode(["a"], [])
    assert fragment.codec == "raw"
    assert _decode(fragment) == []


def test_codec_no_columns():
    rows = [(), (), ()]
    fragment = _encode([], rows)
    assert _decode(fragment) == rows


def test_codec_single_value_dictionary():
    rows = [("constant",)] * 500
    fragment = _encode(["s"], rows)
    assert _decode(fragment) == rows
    # A constant column collapses to one stored value either way.
    assert fragment.wire_bytes < fragment.raw_bytes / 10


def test_codec_nulls_round_trip():
    rows = [(None, 1), (None, None), (None, 2)] * 40
    fragment = _encode(["a", "b"], rows)
    assert _decode(fragment) == rows
    assert fragment.wire_bytes < fragment.raw_bytes


def test_codec_incompressible_falls_back_to_raw():
    rng = random.Random(4)
    rows = [
        ("".join(chr(rng.randrange(33, 127)) for _ in range(24)),)
        for _ in range(300)
    ]
    fragment = _encode(["s"], rows)
    assert fragment.codec == "raw"
    assert fragment.wire_bytes == fragment.raw_bytes
    assert _decode(fragment) == rows


def test_codec_true_one_type_strict():
    # True == 1 == 1.0 in Python; the codec must not collapse them.
    rows = [(True,), (1,), (1.0,), (True,), (1,)] * 30
    fragment = _encode(["x"], rows)
    decoded = _decode(fragment)
    for got, want in zip(decoded, rows):
        assert type(got[0]) is type(want[0])


# ---------------------------------------------------------------------------
# System
# ---------------------------------------------------------------------------

_SCAN = "SELECT acct, balance FROM accounts WHERE balance >= 0"
_AGG = "SELECT COUNT(*), SUM(balance) FROM accounts"
_POINT = "SELECT balance FROM accounts WHERE acct = 130"


def _run_bank(**knobs):
    system = build_bank_sites(3, 120, **knobs)
    with system:
        scan = system.query("bank", _SCAN)
        agg = system.query("bank", _AGG)
        return {
            "scan_rows": sorted(scan.rows),
            "agg_rows": agg.rows,
            "scan_bytes": scan.bytes_shipped,
            "scan_sim": scan.elapsed_s,
            "messages": scan.trace.message_count,
        }


def test_knobs_off_bit_identical():
    default = _run_bank()
    explicit = _run_bank(wire_compression=False)
    assert default == explicit


def test_engine_picks_path_and_keeps_accounting():
    """Whole-table fetches and their residual run as batches, a PK point
    fetch by rows, and the simulated accounting is the same as when every
    statement ran by rows (values recorded from the row-only engine)."""
    system = build_bank_sites(3, 120)
    with system:
        scan = system.query("bank", _SCAN)
        point = system.query("bank", _POINT)
    assert len(scan.rows) == 360
    assert {a.strategy for a in scan.fetch_actuals.values()} == {"batch"}
    assert sorted(a.scanned for a in scan.fetch_actuals.values()) == [120] * 3
    assert scan.residual.strategy == "batch"
    assert scan.residual.rows_scanned == 360
    assert (scan.bytes_shipped, scan.trace.message_count) == (9075, 6)
    assert scan.elapsed_s == pytest.approx(0.01602, abs=1e-12)

    assert point.rows == [(1000.0,)]
    assert {a.strategy for a in point.fetch_actuals.values()} == {"row"}
    assert sorted(a.scanned for a in point.fetch_actuals.values()) == [0, 0, 1]
    assert point.residual.strategy == "row"
    assert (point.bytes_shipped, point.trace.message_count) == (403, 6)
    assert point.elapsed_s == pytest.approx(0.004156, abs=1e-12)
    assert "scanned=120 batch" in scan.explain_analyze()
    assert "engine: row, 1 rows scanned" in point.explain_analyze()


def test_wire_compression_cuts_bytes():
    base = _run_bank()
    comp = _run_bank(wire_compression=True)
    assert comp["scan_rows"] == base["scan_rows"]
    assert comp["agg_rows"] == base["agg_rows"]
    assert comp["messages"] == base["messages"]
    # ISSUE acceptance: >= 30% fewer simulated bytes on the bank scan.
    assert comp["scan_bytes"] <= base["scan_bytes"] * 0.7


def test_wire_compression_explain_shows_codec():
    system = build_bank_sites(2, 80, wire_compression=True)
    with system:
        report = system.query("bank", _SCAN).explain_analyze()
    assert "raw=" in report and "codec=" in report


def test_wire_compression_fragment_cache_round_trip():
    system = build_bank_sites(2, 80, wire_compression=True)
    with system:
        cold = system.query("bank", _SCAN)
        warm = system.query("bank", _SCAN)
        assert sorted(warm.rows) == sorted(cold.rows)
        assert warm.bytes_shipped == 0  # served from the fragment cache
        stats = system.federation_stats()["caches"]["fragcache"]
        assert stats["bytes_saved"] > 0
        assert stats["compression_ratio"] > 1.0


def test_fragment_cache_key_isolated_per_codec():
    from repro.cache.fragments import FragmentCache

    cache = FragmentCache()
    raw_key = cache.key("s", "e", "SELECT 1")
    codec_key = cache.key("s", "e", "SELECT 1", codec="dictrle")
    assert raw_key != codec_key
