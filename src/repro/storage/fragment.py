"""Columnar fragments: one query result held a column at a time.

A :class:`Fragment` is the unit the read path moves from a component to
the federation site.  The component's batch scan produces it, the gateway
normalises, sizes and ships it a column at a time, the wire codec frames
it, the fragment cache keeps it, and the residual query at the federation
site reads it in place (``FragmentScan`` in :mod:`repro.engine.operators`).
Nothing on that path turns it back into rows unless a caller asks for rows.

A fragment holds column names, one sequence of values per column, and the
row count.  Once canonicalised at the federation site
(:meth:`Fragment.canonical`) it also carries each column's canonical type
and the export's primary key, when the fetch shipped all of it.  Column
sequences are never mutated once a fragment holds them: every consumer
builds new lists, so fragments can share columns with each other and with
the fragment cache.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import repeat

from repro.errors import ExecutionError, IntegrityError
from repro.storage.index import range_keys, sort_key
from repro.storage.schema import TableSchema
from repro.storage.types import DataType

_UNBUILT = object()


class Fragment:
    """Column names, one value sequence per column, and a length."""

    __slots__ = ("names", "columns", "length", "types", "key", "_index", "_sorted")

    def __init__(
        self,
        names: list[str],
        columns: list[Sequence],
        length: int,
        types: list[DataType] | None = None,
        key: Sequence[str] = (),
    ):
        self.names = names
        self.columns = columns
        self.length = length
        #: Canonical type per column; None until :meth:`canonical`.
        self.types = types
        #: Declared primary-key columns (empty: keyless).  Whether the key
        #: holds in the data is settled lazily by :meth:`key_index`.
        self.key = tuple(key)
        self._index = _UNBUILT
        self._sorted = None

    @classmethod
    def from_rows(cls, names: Sequence[str], rows: Sequence[tuple]) -> "Fragment":
        """Transpose ``rows`` into a fragment (every row ``len(names)`` wide)."""
        names = list(names)
        width = len(names)
        if rows and set(map(len, rows)) != {width}:
            bad = next(row for row in rows if len(row) != width)
            raise IntegrityError(
                f"fragment of {width} columns got a row of {len(bad)} values"
            )
        if not rows:
            return cls(names, [() for _ in names], 0)
        return cls(names, list(zip(*rows)) if width else [], len(rows))

    def __len__(self) -> int:
        return self.length

    def iter_rows(self) -> Iterator[tuple]:
        """The rows, zipped lazily from the columns."""
        if not self.columns:
            return repeat((), self.length)
        return zip(*self.columns)

    def rows(self) -> list[tuple]:
        return list(self.iter_rows())

    def row(self, position: int) -> tuple:
        return tuple(column[position] for column in self.columns)

    def position(self, name: str) -> int:
        """Position of a column by (case-insensitive) name."""
        lowered = name.lower()
        for position, candidate in enumerate(self.names):
            if candidate.lower() == lowered:
                return position
        raise ExecutionError(f"no column {name!r} in result")

    def column(self, name: str) -> list[object]:
        """A copy of one column's values."""
        return list(self.columns[self.position(name)])

    # -- canonicalisation --------------------------------------------------

    def canonical(self, schema: TableSchema) -> "Fragment":
        """This fragment typed by ``schema``: its column names and types,
        and its primary key as the fragment's key.

        Every value is coerced the way :meth:`Column.validate` coerces it,
        a column at a time: a column that :meth:`Column.takes_as_is` is
        kept as it is (the same sequence), any other is validated value by
        value.  A value that fails raises what
        :meth:`TableSchema.validate_row` on each row in turn would raise
        first: the earliest failing row, and in it the leftmost failing
        column.  The key is recorded, not checked (see :meth:`key_index`).
        """
        columns = schema.columns
        if self.length and len(self.columns) != len(columns):
            raise IntegrityError(
                f"table {schema.name!r} expects {len(columns)} values, "
                f"got {len(self.columns)}"
            )
        limit = self.length
        error: Exception | None = None
        out: list[Sequence] = []
        for position, column in enumerate(columns):
            values = self.columns[position] if self.length else ()
            if limit < self.length:
                values = values[:limit]
            if column.takes_as_is(values):
                out.append(values)
                continue
            validated = []
            try:
                for value in values:
                    validated.append(column.validate(value))
            except Exception as exc:
                # A later column may still fail on an earlier row, which
                # would then come first.
                limit, error = len(validated), exc
            out.append(validated)
        if error is not None:
            raise error
        return Fragment(
            [column.name for column in columns],
            out,
            self.length,
            [column.datatype for column in columns],
            schema.primary_key,
        )

    # -- key access --------------------------------------------------------

    def key_index(self) -> dict[tuple, int] | None:
        """Key tuple → row position, built on first call.

        None when the fragment is keyless, or when a key value is NULL or
        repeats (overlapping exports behind a union view, semijoin-reduced
        fetches): such a fragment is read by scanning, never by key.
        """
        if self._index is _UNBUILT:
            self._index = self._build_key_index()
        return self._index

    def _build_key_index(self) -> dict[tuple, int] | None:
        if not self.key:
            return None
        key_columns = [self.columns[self.position(k)] for k in self.key]
        if any(None in column for column in key_columns):
            return None
        index = dict(zip(zip(*key_columns), range(self.length)))
        return index if len(index) == self.length else None

    def key_range(
        self,
        low: tuple | None,
        high: tuple | None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> list[int]:
        """Positions of the rows whose key lies in [low, high], in key order.

        Same bounds semantics as an ordered index's range scan; requires
        :meth:`key_index` to be non-None.
        """
        index = self.key_index()
        if self._sorted is None:
            self._sorted = sorted((sort_key(key), key) for key in index)
        return [
            index[key]
            for key in range_keys(
                self._sorted, low, high, low_inclusive, high_inclusive
            )
        ]
