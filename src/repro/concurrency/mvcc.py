"""Multi-version snapshot reads layered over the strict-2PL storage.

The component DBMSs keep strict 2PL + undo for writers (table-granularity
exclusive locks guarantee at most one uncommitted writer per table), which
makes an InnoDB-style read view cheap to bolt on top:

- every committing transaction that wrote rows is stamped by a per-DBMS
  commit counter (``LocalTransactionManager._commit_ts``) and *publishes*
  the new committed value of each touched RID into the table's version
  chain (``Table.versions``) before releasing its locks;
- while a writer is still uncommitted, each touched RID carries a *pending
  marker* (``Table.uncommitted``) recording the last committed value, set
  before the in-place mutation, so readers never see dirty data;
- a :class:`Snapshot` is just the commit counter value at ``begin``: a RID's
  visible value is the latest chain entry stamped at or before the snapshot,
  falling back to the pending marker's committed value, falling back to the
  live heap.

A scan does not resolve every RID that way.  One test, shared by sequential
and index scans, asks whether the live heap *is* the snapshot's view of a
table: no uncommitted writer holds a marker on it and no commit stamped
after the snapshot wrote it (``LocalTransactionManager.table_commit_ts``).
Then a scan reads the live heap in RID order in one pass.  Otherwise only
:meth:`Snapshot.changed_rids` is resolved per RID and patched into the heap
copy.  :meth:`Snapshot.visible_items` is the per-RID reference both paths
must agree with; the transaction manager counts which path each scan took
(``heap_scans`` / ``patched_scans``).

Readers take **no locks** and touch **no WAL**: version chains are immutable
tuples replaced wholesale (publish and GC swap the whole tuple under the
transaction manager's mutex), so a reader holding a stale tuple still sees a
consistent committed prefix.  Chains are pruned against the oldest active
snapshot on every publish and by a periodic vacuum.  A scan copies the heap
under :meth:`Table.consistent_read`, which reads again when a writer
registered a pending marker meanwhile, and :func:`visible_value` reads a
RID's marker before its chain, the reverse of the order a commit writes
them in.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator

from repro.storage.schema import Row

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.concurrency.transactions import LocalTransactionManager
    from repro.storage.table import Table

#: Version-chain type: ascending ``(commit_ts, value)`` entries; a ``None``
#: value records a committed delete.
Chain = tuple[tuple[int, "Row | None"], ...]

_MISSING = object()


def visible_value(table: "Table", rid: int, ts: int) -> Row | None:
    """The committed value of ``rid`` as of commit timestamp ``ts``.

    Returns ``None`` when the row did not exist (or was deleted) at ``ts``.
    The pending marker is read before the chain: a commit publishes the
    chain before it drops the marker, so a reader racing it finds one or
    the other, never neither (and so never the new heap value).
    """
    marker = table.uncommitted.get(rid)
    chain = table.versions.get(rid)
    if chain is not None:
        value = _MISSING
        for entry_ts, entry_value in chain:
            if entry_ts <= ts:
                value = entry_value
            else:
                break
        if value is not _MISSING:
            return value
        # Every entry is newer than the snapshot and the pre-chain baseline
        # was pruned: only possible for snapshots older than the GC horizon,
        # which registered snapshots never are.
        return None
    if marker is not None:
        return marker[1]
    return table.rows.get(rid)


def prune_chain(chain: Chain, horizon: int) -> Chain:
    """Drop entries no active snapshot can need.

    Keeps the latest entry stamped at or before ``horizon`` (the oldest
    active snapshot still resolves through it) plus everything newer.
    """
    keep_from = 0
    for position, (entry_ts, _) in enumerate(chain):
        if entry_ts <= horizon:
            keep_from = position
        else:
            break
    return chain[keep_from:] if keep_from else chain


class Snapshot:
    """A read view over one component DBMS, pinned at a commit timestamp.

    Obtained from :meth:`LocalTransactionManager.begin_snapshot`; must be
    released (``release()`` or the context-manager protocol) so version GC
    can advance past it.
    """

    __slots__ = ("manager", "snapshot_id", "ts", "_released")

    def __init__(
        self, manager: "LocalTransactionManager", snapshot_id: int, ts: int
    ):
        self.manager = manager
        self.snapshot_id = snapshot_id
        self.ts = ts
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self.manager.release_snapshot(self)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Snapshot(id={self.snapshot_id}, ts={self.ts})"

    # -- visibility ------------------------------------------------------

    def visible_get(self, table: "Table", rid: int) -> Row | None:
        """The value of ``rid`` visible to this snapshot, or ``None``."""
        return visible_value(table, rid, self.ts)

    def visible_rows(self, table: "Table") -> list[Row]:
        """The rows of ``table`` visible to this snapshot, in RID order.

        The live heap in one pass when :meth:`changed_rids` is empty;
        otherwise the heap with only the changed RIDs resolved and patched
        in (under :meth:`Table.consistent_read`).
        """
        return table.consistent_read(lambda: self._visible_rows(table))

    def _visible_rows(self, table: "Table") -> list[Row]:
        changed = self.changed_rids(table)
        if not changed:
            return table.heap_rows()
        items = [item for item in table.heap_items() if item[0] not in changed]
        for rid in sorted(changed):
            row = visible_value(table, rid, self.ts)
            if row is not None:
                bisect.insort(items, (rid, row), key=itemgetter(0))
        return [row for _, row in items]

    def visible_items(self, table: "Table") -> Iterator[tuple[int, Row]]:
        """Yield visible ``(rid, row)`` pairs in RID (insertion) order,
        resolving every RID on its own: the reference for the scans."""
        candidates = set(table.rows)
        if table.versions:
            candidates.update(table.versions)
        if table.uncommitted:
            candidates.update(table.uncommitted)
        for rid in sorted(candidates):
            row = visible_value(table, rid, self.ts)
            if row is not None:
                yield rid, row

    def changed_rids(self, table: "Table") -> set[int]:
        """RIDs whose live heap/index state may differ from this snapshot.

        The union of uncommitted-writer markers and chains whose newest
        entry postdates the snapshot — exactly the RIDs an index scan must
        re-check against visible values (the set is small: GC bounds it by
        the churn since the oldest active snapshot).  Empty, without
        looking at a single chain, when the live heap is this snapshot's
        view (:meth:`LocalTransactionManager.heap_is_visible`).
        """
        if self.manager.heap_is_visible(table, self.ts):
            return set()
        changed = set(table.uncommitted)
        for rid, chain in list(table.versions.items()):
            if chain and chain[-1][0] > self.ts:
                changed.add(rid)
        return changed
