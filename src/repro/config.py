"""The options of one MYRIAD installation, declared once.

``MyriadSystem(**options)`` builds a :class:`Config`; the global query
processor, its executor and the global transaction manager read the fields
they need from it.  Every option is documented here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Config:
    """Construction-time options of a :class:`~repro.myriad.MyriadSystem`.

    Frozen: an installation's code paths are chosen once, when it is
    built.  Bad values raise :class:`ValueError` naming the option.
    """

    #: The paper's timeout period attached to every local query of a
    #: global transaction, in simulated seconds (``None`` = no timeout).
    #: Seeds ``GlobalTransactionManager.query_timeout``, which a
    #: contention run may override afterwards.
    query_timeout: float | None = 5.0
    #: Metrics, spans and events on; ``False`` installs the disabled
    #: handle (the E12 overhead baseline).
    observability: bool = True
    #: Compiled-plan LRU capacity per federation; 0 turns the cache off.
    #: See README "Performance: caching".
    plan_cache_size: int = 64
    #: Federation-site fragment cache: ``True`` (128 entries), ``False``
    #: or 0 (off), or an int capacity.
    fragment_cache: bool | int = True
    #: Components built via ``add_oracle``/``add_postgres`` serve
    #: autocommit SELECTs from MVCC snapshots, taking no table locks.  See
    #: README "Serving & MVCC".
    mvcc_reads: bool = True
    #: Learn per-(site, export, predicate shape) cardinalities from
    #: EXPLAIN ANALYZE actuals and blend them into cost estimates
    #: (experiment E17).  Off: planning and simulated accounting are
    #: bit-identical to the non-adaptive system.
    adaptive_feedback: bool = False
    #: Re-optimize the remaining stages mid-query when a fetch's actual
    #: rows diverge from the estimate by ``GlobalExecutor.replan_threshold``
    #: (3x) or a site's breaker opens (experiment E17).
    adaptive_replan: bool = False
    #: Simulated latency at or above which a query emits ``query.slow``
    #: (``None`` = never).  A caller-built network that already carries an
    #: observability handle keeps its own setting.
    slow_query_threshold_s: float | None = 1.0
    #: Fraction of healthy root spans the tracer keeps, in [0, 1]; failed,
    #: degraded, re-planned and slow requests are always kept.
    trace_sample_rate: float = 1.0
    #: Replicas per component built via ``add_oracle``/``add_postgres``.
    #: 1 constructs no replica-group machinery at all; N > 1 makes each
    #: such site a Raft-style group of N replicas (experiment E19).  See
    #: README "Replication & failover".
    replication_factor: int = 1
    #: Let autocommit SELECTs on a replicated site be served by followers
    #: that have applied everything the leader committed.
    follower_reads: bool = False
    #: Gateways ship dict/RLE-encoded fragments and the cost model charges
    #: the compressed bytes (experiment E20).  See README "Columnar engine
    #: & wire compression".
    wire_compression: bool = False

    def __post_init__(self) -> None:
        for name in (
            "observability",
            "mvcc_reads",
            "adaptive_feedback",
            "adaptive_replan",
            "follower_reads",
            "wire_compression",
        ):
            self._check(name, isinstance(getattr(self, name), bool), "a bool")
        timeout = self.query_timeout
        self._check(
            "query_timeout",
            timeout is None or (_is_number(timeout) and timeout > 0),
            "None or a positive number of seconds",
        )
        self._check(
            "plan_cache_size",
            _is_int(self.plan_cache_size) and self.plan_cache_size >= 0,
            "an int >= 0",
        )
        cache = self.fragment_cache
        self._check(
            "fragment_cache",
            isinstance(cache, bool) or (_is_int(cache) and cache >= 0),
            "a bool or an int capacity >= 0",
        )
        threshold = self.slow_query_threshold_s
        self._check(
            "slow_query_threshold_s",
            threshold is None or (_is_number(threshold) and threshold >= 0),
            "None or a number of seconds >= 0",
        )
        rate = self.trace_sample_rate
        self._check(
            "trace_sample_rate",
            _is_number(rate) and 0.0 <= rate <= 1.0,
            "a number in [0, 1]",
        )
        self._check(
            "replication_factor",
            _is_int(self.replication_factor) and self.replication_factor >= 1,
            "an int >= 1",
        )

    def _check(self, name: str, ok: bool, expected: str) -> None:
        if not ok:
            raise ValueError(
                f"{name} must be {expected}, got {getattr(self, name)!r}"
            )

    @property
    def fragment_cache_capacity(self) -> int:
        """Fragment-cache entries; 0 when the cache is off."""
        if self.fragment_cache is True:
            return 128
        return int(self.fragment_cache)
