"""Global plan cache.

Parsing, export expansion, and optimization are pure functions of the SQL
text, the chosen optimizer, the federation's schema, and the statistics
the cost model consulted — so a plan can be reused as long as that whole
key is unchanged.  The key therefore includes the federation's
``schema_version`` (bumped on any relation (re)definition) and every
gateway's ``stats_version`` (bumped when a committed write or a refresh
replaces its statistics): redefining a schema or committing DML flushes
affected entries implicitly by changing the key.  With adaptive feedback
enabled the key also carries the ``runtime_stats_version`` of the
federation's :class:`~repro.query.feedback.RuntimeStatsStore`, so plans
compiled from superseded learned cardinalities expire the same way — and
stop expiring once the learned estimates converge.

Cached plans are compiled artefacts, **shared and read-only**: every hit
returns the same :class:`~repro.query.localizer.GlobalPlan` object, to any
number of concurrent executions.  Execution never writes to a plan; the
one code path that revises a plan after planning, mid-query re-planning
(:meth:`~repro.query.optimizer.CostBasedOptimizer.replan`), works on a
private copy.
"""

from __future__ import annotations

from repro.cache.lru import LRUCache
from repro.query.localizer import GlobalPlan


class PlanCache:
    """LRU of optimized :class:`~repro.query.localizer.GlobalPlan`s."""

    def __init__(self, capacity: int = 64):
        self._lru = LRUCache(capacity)

    def get(self, key: tuple) -> GlobalPlan | None:
        return self._lru.get(key)

    def put(self, key: tuple, plan: GlobalPlan) -> None:
        self._lru.put(key, plan)

    def clear(self) -> int:
        return self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def stats(self) -> dict[str, int]:
        return self._lru.stats
