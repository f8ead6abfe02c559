"""Federation-site fragment cache.

The most expensive part of a global query is shipping fragment results
from component sites; re-fetching data that has not changed buys nothing
but messages.  This cache keeps shipped fragments at the federation site,
keyed by ``(site, export, codec, fragment SQL text)``, and validates every hit
against the owning gateway's *data version* for that export — a counter
bumped only when a write to the export's local table **commits** (see
:meth:`repro.gateway.Gateway.data_version`).  A stale entry is dropped on
sight, so invalidation costs nothing until the fragment is next wanted.

Serializability is preserved by construction: the global executor
bypasses this cache entirely for fetches inside a global transaction, and
degraded (``allow_partial``) fragments are never stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.lru import LRUCache
from repro.storage.fragment import Fragment


@dataclass
class CachedFragment:
    """One cached shipped fragment plus the data version it reflects.

    The payload is either the shipped :class:`Fragment` itself or the
    wire-encoded form the gateway shipped (``encoded``) — warm entries
    then hold compressed bytes and decode on hit.
    """

    columns: list[str]
    fragment: Fragment | None
    version: tuple
    #: :class:`repro.net.codec.EncodedFragment` when stored compressed.
    encoded: object = None

    def materialize(self) -> Fragment:
        """The fragment: the stored one itself (nothing downstream mutates
        its columns), or the encoded payload decoded on demand."""
        if self.encoded is not None:
            from repro.net.codec import decode_fragment

            return decode_fragment(self.encoded)
        return self.fragment


class FragmentCache:
    """Version-checked LRU of shipped fragments."""

    def __init__(self, capacity: int = 128):
        self._lru = LRUCache(capacity)
        #: Entries dropped because their version no longer matched.
        self.stale_drops = 0
        #: Cumulative raw-vs-stored sizes of compressed entries stored, for
        #: the ``fragcache.bytes_saved`` metric and dashboard ratios.
        self.bytes_raw = 0
        self.bytes_wire = 0

    @staticmethod
    def key(
        site: str, export: str, sql_text: str, codec: str = ""
    ) -> tuple[str, str, str, str]:
        """The entry key: the fragment's exact SQL text, not a digest.

        Equal keys mean equal queries, so entries never collide.  Python
        caches a string's hash on the string, so the text a cached plan
        memoises per fetch is hashed once, however often it is probed.
        ``codec`` keeps entries stored compressed and entries stored raw
        apart when ``wire_compression`` is toggled on a live system.
        """
        return (site, export.lower(), codec, sql_text)

    def lookup(
        self,
        site: str,
        export: str,
        sql_text: str,
        version: tuple,
        codec: str = "",
    ) -> CachedFragment | None:
        """A fresh cached fragment, or None (stale entries are evicted)."""
        key = self.key(site, export, sql_text, codec)
        entry = self._lru.get(key)
        if entry is None:
            return None
        if entry.version != version:
            self._lru.invalidate(key)
            self.stale_drops += 1
            return None
        return entry

    def store(
        self,
        site: str,
        export: str,
        sql_text: str,
        fetched_at_version: tuple,
        current_version: tuple,
        fragment: Fragment,
        encoded: object = None,
        codec: str = "",
    ) -> bool:
        """Cache one fetched fragment.

        The caller captures the export's version *before* shipping the
        fetch; if it changed by the time the rows arrived (a concurrent
        commit), the fragment may already be stale and is not stored.
        With ``encoded`` (the wire-encoded payload the gateway shipped)
        the entry holds compressed bytes instead of the fragment.
        """
        if fetched_at_version != current_version:
            return False
        columns = list(fragment.names)
        if encoded is not None:
            entry = CachedFragment(
                columns, None, fetched_at_version, encoded=encoded
            )
            self.bytes_raw += encoded.raw_bytes
            self.bytes_wire += encoded.wire_bytes
        else:
            entry = CachedFragment(columns, fragment, fetched_at_version)
        self._lru.put(self.key(site, export, sql_text, codec), entry)
        return True

    def clear(self) -> int:
        return self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def stats(self) -> dict[str, int]:
        stats = self._lru.stats
        stats["stale_drops"] = self.stale_drops
        stats["bytes_raw"] = self.bytes_raw
        stats["bytes_wire"] = self.bytes_wire
        stats["bytes_saved"] = self.bytes_raw - self.bytes_wire
        return stats
