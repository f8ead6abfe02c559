"""Dictionary/RLE wire encoding for shipped fragments.

Federated query cost is dominated by shipped-fragment volume, and the cost
model's primary currency is simulated bytes-on-wire.  This codec encodes a
fragment column-wise before the gateway's ``result`` message is accounted,
so the network charges *compressed* bytes:

- **dict** — low-cardinality columns ship their distinct values once plus
  a narrow code (1/2/4 bytes) per row;
- **rle** — runs of equal consecutive values collapse to ``(value, count)``
  pairs (sorted or constant columns, e.g. uniform initial balances);
- **raw** — everything else ships as-is.

Per column the encoder picks whichever of the applicable encodings is
smallest under the same sizing model the raw path uses
(:func:`~repro.net.sim.estimate_value_bytes`).  Applicability is decided by
a cheap sampling heuristic (~:data:`SAMPLE_TARGET` probes per column) so
incompressible columns never pay a full encoding pass.  If the encoded
fragment would not beat the raw rowset (headers included), the whole
fragment falls back to raw — **wire bytes never exceed raw bytes**.

The codec works on :class:`~repro.storage.fragment.Fragment` values, a
column at a time, in both directions.  Decoding is an exact inverse: the
decoded columns hold the same value objects, so results and downstream
accounting are bit-identical to shipping raw rows.

Equality hazards: Python hashes/compares ``True == 1 == 1.0`` as equal, so
both the dictionary and the run detector key on ``(type, value)`` — a
column holding ``True`` and ``1`` never collapses them into one code.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.sim import (
    estimate_column_bytes,
    estimate_fragment_bytes,
    estimate_value_bytes,
)
from repro.storage.fragment import Fragment

#: Fragment-level framing: codec map, column count, row count.
FRAGMENT_HEADER_BYTES = 16
#: Per-column framing: encoding tag + payload length.
COLUMN_HEADER_BYTES = 8
#: Probes per column for the applicability heuristic.
SAMPLE_TARGET = 64
#: Sampled distinct-ratio at or below which dictionary encoding is tried.
DICT_THRESHOLD = 0.5
#: Sampled run-ratio at or below which run-length encoding is tried.
RLE_THRESHOLD = 0.5


@dataclass
class EncodedColumn:
    """One encoded column of a shipped fragment."""

    #: ``"raw"`` | ``"dict"`` | ``"rle"``
    encoding: str
    #: raw: the value list; dict: ``(values, codes)``; rle: ``[(value,
    #: run_length), ...]``.
    data: object
    #: Simulated size of this column on the wire (header excluded).
    wire_bytes: int


@dataclass
class EncodedFragment:
    """A shipped fragment after column-wise encoding.

    ``columns_data`` is None when the encoder fell back to shipping the
    raw fragment (``fragment`` holds it); otherwise one
    :class:`EncodedColumn` per output column.
    """

    columns: list[str]
    row_count: int
    #: Simulated size of the unencoded rowset (what the raw path charges).
    raw_bytes: int
    #: Simulated size actually charged to the network.
    wire_bytes: int
    #: Summary like ``"dict,rle"`` or ``"raw"`` — per-column encodings in
    #: column order, deduplicated for display.
    codec: str
    columns_data: list[EncodedColumn] | None = None
    fragment: Fragment | None = None


def _code_width(distinct: int) -> int:
    if distinct <= 256:
        return 1
    if distinct <= 65536:
        return 2
    return 4


def _sample_stats(values: list) -> tuple[float, float]:
    """(distinct_ratio, run_ratio) over ~SAMPLE_TARGET evenly-spaced probes.

    The run probe walks a short contiguous prefix (runs are a property of
    *adjacent* values — striding would destroy them).
    """
    n = len(values)
    step = max(1, n // SAMPLE_TARGET)
    sample = values[::step]
    seen = {(type(value), value) for value in sample}
    distinct_ratio = len(seen) / len(sample)
    prefix = values[: min(n, SAMPLE_TARGET)]
    runs = 1
    for i in range(1, len(prefix)):
        value, previous = prefix[i], prefix[i - 1]
        if not (type(value) is type(previous) and value == previous):
            runs += 1
    run_ratio = runs / len(prefix)
    return distinct_ratio, run_ratio


def _encode_dict(values: list) -> EncodedColumn | None:
    """Dictionary-encode one column, or None if a value is unhashable."""
    codes: list[int] = []
    mapping: dict = {}
    distinct: list = []
    try:
        for value in values:
            key = (type(value), value)
            code = mapping.get(key)
            if code is None:
                code = len(distinct)
                mapping[key] = code
                distinct.append(value)
            codes.append(code)
    except TypeError:
        return None
    wire = estimate_column_bytes(distinct) + len(values) * _code_width(
        len(distinct)
    )
    return EncodedColumn("dict", (distinct, codes), wire)


def _encode_rle(values: list) -> EncodedColumn:
    """Run-length encode one column (type-strict run detection)."""
    runs: list[tuple] = []
    previous = None
    count = 0
    for value in values:
        if count and type(value) is type(previous) and value == previous:
            count += 1
        else:
            if count:
                runs.append((previous, count))
            previous = value
            count = 1
    if count:
        runs.append((previous, count))
    wire = 0
    for value, _ in runs:
        wire += estimate_value_bytes(value) + 4  # value + run length
    return EncodedColumn("rle", runs, wire)


def encode_fragment(fragment: Fragment) -> EncodedFragment:
    """Encode one fragment column-wise; falls back to raw when not smaller."""
    raw_bytes = estimate_fragment_bytes(fragment)
    names = list(fragment.names)
    if not fragment.length or not names:
        return EncodedFragment(
            names, fragment.length, raw_bytes, raw_bytes, "raw",
            fragment=fragment,
        )
    encoded: list[EncodedColumn] = []
    wire_total = FRAGMENT_HEADER_BYTES
    for values in fragment.columns:
        best = EncodedColumn("raw", values, estimate_column_bytes(values))
        distinct_ratio, run_ratio = _sample_stats(values)
        if distinct_ratio <= DICT_THRESHOLD:
            candidate = _encode_dict(values)
            if candidate is not None and candidate.wire_bytes < best.wire_bytes:
                best = candidate
        if run_ratio <= RLE_THRESHOLD:
            candidate = _encode_rle(values)
            if candidate.wire_bytes < best.wire_bytes:
                best = candidate
        encoded.append(best)
        wire_total += COLUMN_HEADER_BYTES + best.wire_bytes
    if wire_total >= raw_bytes or all(
        column.encoding == "raw" for column in encoded
    ):
        # Headers ate the win, or no column actually compressed (the
        # column layout alone must not be charged cheaper than rows):
        # ship the raw fragment.
        return EncodedFragment(
            names, fragment.length, raw_bytes, raw_bytes, "raw",
            fragment=fragment,
        )
    summary = ",".join(
        sorted({column.encoding for column in encoded})
    )
    return EncodedFragment(
        names,
        fragment.length,
        raw_bytes,
        wire_total,
        summary,
        columns_data=encoded,
    )


def decode_fragment(encoded: EncodedFragment) -> Fragment:
    """Exact inverse of :func:`encode_fragment`."""
    if encoded.columns_data is None:
        return encoded.fragment
    columns: list[list] = []
    for column in encoded.columns_data:
        if column.encoding == "raw":
            columns.append(column.data)
        elif column.encoding == "dict":
            distinct, codes = column.data
            columns.append([distinct[code] for code in codes])
        else:  # rle
            values: list = []
            for value, count in column.data:
                values.extend([value] * count)
            columns.append(values)
    return Fragment(list(encoded.columns), columns, encoded.row_count)
