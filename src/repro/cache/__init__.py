"""Federation-side caching: plan cache and write-invalidated fragment cache.

Two caches sit between the global query processor and the gateways (the
tier the 4-level multidatabase architectures put between global and local
layers):

- :class:`PlanCache` — optimized :class:`~repro.query.localizer.GlobalPlan`
  objects keyed by (SQL text, optimizer, federation schema version, per-site
  statistics versions); a hit skips parse → expand → plan entirely and
  hands back the shared, read-only plan
- :class:`FragmentCache` — shipped fragment results keyed by (site, export,
  codec, fragment SQL text), validated against per-export data versions
  that gateways bump when writes commit; a hit costs zero network messages

Both are bounded LRUs (:class:`LRUCache`) and fully thread-safe.
"""

from repro.cache.fragments import CachedFragment, FragmentCache
from repro.cache.lru import LRUCache
from repro.cache.plans import PlanCache

__all__ = [
    "CachedFragment",
    "FragmentCache",
    "LRUCache",
    "PlanCache",
]
