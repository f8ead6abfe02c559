"""Secondary indexes: hash (equality) and ordered (range).

Indexes map a key tuple (values of the indexed columns) to the RIDs holding
that key.  Postings are kept as sorted lists maintained with ``bisect`` at
insert time, so scans that need deterministic RID order (``IndexScan``)
read them straight through instead of re-sorting on every lookup.  The
ordered index additionally keeps keys in a sorted list and supports range
scans, standing in for the B-tree a disk system would use.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator

from repro.errors import IntegrityError
from repro.storage.types import null_first_key

Key = tuple[object, ...]


def sort_key(key: Key) -> tuple:
    """Sortable form of a key tuple: NULLs first, bools and Decimals as numbers."""
    return tuple(null_first_key(value) for value in key)


class Index:
    """Base class: maintains key → sorted [rid] plus uniqueness enforcement."""

    def __init__(self, name: str, table: str, columns: list[str], unique: bool = False):
        self.name = name
        self.table = table
        self.columns = list(columns)
        self.unique = unique
        self._entries: dict[Key, list[int]] = {}

    def __len__(self) -> int:
        return sum(len(rids) for rids in self._entries.values())

    @property
    def distinct_keys(self) -> int:
        return len(self._entries)

    def insert(self, key: Key, rid: int) -> None:
        rids = self._entries.get(key)
        if rids is None:
            self._entries[key] = [rid]
            self._key_added(key)
            return
        if self.unique and not _key_has_null(key):
            raise self.violation(key)
        position = bisect.bisect_left(rids, rid)
        if position < len(rids) and rids[position] == rid:
            return
        rids.insert(position, rid)

    def violation(self, key: Key) -> IntegrityError:
        """The error a second row with ``key`` raises in a unique index."""
        return IntegrityError(
            f"unique index {self.name!r} violation on key {key!r}"
        )

    def delete(self, key: Key, rid: int) -> None:
        rids = self._entries.get(key)
        if rids is None:
            return
        position = bisect.bisect_left(rids, rid)
        if position >= len(rids) or rids[position] != rid:
            return
        rids.pop(position)
        if not rids:
            del self._entries[key]
            self._key_removed(key)

    def lookup(self, key: Key) -> set[int]:
        """RIDs whose indexed columns equal ``key`` exactly."""
        return set(self._entries.get(key, ()))

    def sorted_rids(self, key: Key) -> tuple[int, ...]:
        """RIDs for ``key`` in ascending order — no per-call sort."""
        return tuple(self._entries.get(key, ()))

    def contains_key(self, key: Key) -> bool:
        return key in self._entries

    def _key_added(self, key: Key) -> None:  # pragma: no cover - hook
        pass

    def _key_removed(self, key: Key) -> None:  # pragma: no cover - hook
        pass


def _key_has_null(key: Key) -> bool:
    return any(value is None for value in key)


class HashIndex(Index):
    """Pure equality index — the dict in the base class is all it needs."""


class OrderedIndex(Index):
    """Equality plus range lookups over a sorted key list."""

    def __init__(self, name: str, table: str, columns: list[str], unique: bool = False):
        super().__init__(name, table, columns, unique)
        #: (sortable, key) pairs in key order.
        self._sorted_keys: list[tuple[tuple, Key]] = []

    def _key_added(self, key: Key) -> None:
        bisect.insort(self._sorted_keys, (sort_key(key), key))

    def _key_removed(self, key: Key) -> None:
        item = (sort_key(key), key)
        position = bisect.bisect_left(self._sorted_keys, item)
        if (
            position < len(self._sorted_keys)
            and self._sorted_keys[position][1] == key
        ):
            self._sorted_keys.pop(position)

    def range_scan(
        self,
        low: Key | None = None,
        high: Key | None = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[Key, set[int]]]:
        """Yield (key, rids) for keys in [low, high], skipping NULL keys.

        ``None`` bounds are open.  Keys containing NULL never match a range
        (SQL comparison semantics).
        """
        for key in self._range_keys(low, high, low_inclusive, high_inclusive):
            yield key, set(self._entries.get(key, ()))

    def range_scan_sorted(
        self,
        low: Key | None = None,
        high: Key | None = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[Key, tuple[int, ...]]]:
        """Like :meth:`range_scan` but yields RIDs in ascending order."""
        for key in self._range_keys(low, high, low_inclusive, high_inclusive):
            yield key, tuple(self._entries.get(key, ()))

    def _range_keys(
        self,
        low: Key | None,
        high: Key | None,
        low_inclusive: bool,
        high_inclusive: bool,
    ) -> Iterator[Key]:
        # Walk a copy (taken in one step): a snapshot reader scans without
        # the table lock while a writer inserts and removes keys.
        return range_keys(
            list(self._sorted_keys), low, high, low_inclusive, high_inclusive
        )


def range_keys(
    sorted_keys: list[tuple[tuple, Key]],
    low: Key | None,
    high: Key | None,
    low_inclusive: bool,
    high_inclusive: bool,
) -> Iterator[Key]:
    """Keys of ``sorted_keys`` ((sortable, key) pairs in key order) within
    [low, high], skipping keys that contain NULL; ``None`` bounds are open."""
    if low is None:
        start = 0
    else:
        sort_low = sort_key(low)
        if low_inclusive:
            start = bisect.bisect_left(sorted_keys, (sort_low, low))
        else:
            start = bisect.bisect_right(sorted_keys, (sort_low, (_INFINITY,)))
    for position in range(start, len(sorted_keys)):
        sortable, key = sorted_keys[position]
        if high is not None:
            sort_high = sort_key(high)
            if high_inclusive:
                if sortable[: len(sort_high)] > sort_high:
                    return
            elif sortable[: len(sort_high)] >= sort_high:
                return
        if _key_has_null(key):
            continue
        yield key


class _Infinity:
    """Sorts after every other value; used for exclusive lower bounds."""

    def __lt__(self, other: object) -> bool:
        return False

    def __gt__(self, other: object) -> bool:
        return True


_INFINITY = _Infinity()
