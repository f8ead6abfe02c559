"""Simulated network substrate.

The real MYRIAD ran on SPARCstations connected by 10 Mbit/s Ethernet and
exchanged messages over BSD sockets.  This module substitutes a deterministic
model that preserves what the experiments measure:

- every message is *accounted*: count, payload bytes, purpose
- each message has a *virtual cost* = latency + bytes/bandwidth
- a :class:`MessageTrace` accumulates virtual elapsed time for one global
  operation, with parallel sections taking the max over branches (the
  federation layer charges independent subqueries as shipped concurrently;
  the overlap exists in simulated time only)

No wall-clock sleeping happens; benchmarks read virtual seconds.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

from repro.errors import MessageDropped, NetworkError

#: 10BASE-T Ethernet of the era: 10 Mbit/s ≈ 1.25 MB/s on the wire.
DEFAULT_BANDWIDTH_BYTES_PER_S = 1.25e6
#: Small-LAN round-trip budget per message.
DEFAULT_LATENCY_S = 0.002


@dataclass(frozen=True)
class LinkProfile:
    """Latency/bandwidth of one (directed) link."""

    latency_s: float = DEFAULT_LATENCY_S
    bandwidth_bytes_per_s: float = DEFAULT_BANDWIDTH_BYTES_PER_S

    def cost(self, payload_bytes: int) -> float:
        return self.latency_s + payload_bytes / self.bandwidth_bytes_per_s


@dataclass
class MessageRecord:
    """One accounted message."""

    source: str
    destination: str
    payload_bytes: int
    purpose: str
    cost_s: float
    #: Request the message belongs to (``req-...``), when the sender was
    #: executing on behalf of one — joins wire traffic to spans/events.
    request_id: str | None = None
    #: Uncompressed payload size, set only when wire compression shrank
    #: this message — EXPLAIN ANALYZE renders raw vs wire per fetch.
    raw_bytes: int | None = None


class MessageTrace:
    """Accounting for one global operation (query or transaction).

    Supports nested parallel sections: between :meth:`begin_parallel` and
    :meth:`end_parallel`, per-branch elapsed times are tracked separately
    and the section contributes the maximum branch time to the enclosing
    sequence — modelling concurrent subquery shipping.

    Cost-attribution contract (see ``TestMessageTrace`` for the executable
    spec): costs recorded *inside an open branch* accrue to that branch;
    costs recorded inside a parallel section but *outside any branch*
    (coordinator-side work between fetches) accrue sequentially to
    ``elapsed_s``.  Entering a branch with no open parallel section, or
    closing a section that was never opened, is misuse and raises
    :class:`~repro.errors.NetworkError` immediately rather than silently
    corrupting later measurements.

    Thread safety: the open-branch stack lives in thread-local storage and
    the shared accounting (records, per-branch sums, elapsed time) is
    guarded by one lock, so a trace stays consistent when threads share
    it, as server sessions on their own threads may.  The query executor
    opens the branches of one parallel section one after another on its
    calling thread.
    """

    def __init__(self):
        self.records: list[MessageRecord] = []
        self.elapsed_s = 0.0
        self._lock = threading.RLock()
        self._parallel_stack: list[dict[str, float]] = []
        self._tlocal = threading.local()
        self._open_branches = 0
        self._total_bytes = 0

    def _thread_branches(self) -> list["_BranchContext"]:
        stack = getattr(self._tlocal, "stack", None)
        if stack is None:
            stack = []
            self._tlocal.stack = stack
        return stack

    # -- recording ---------------------------------------------------------

    def add(self, record: MessageRecord) -> None:
        with self._lock:
            self.records.append(record)
            self._total_bytes += record.payload_bytes
            branches = self._thread_branches()
            if branches:
                branches[-1].records.append(record)
            self._route_cost(record.cost_s)

    def add_compute(self, seconds: float) -> None:
        """Account local (site) processing time into the same timeline."""
        with self._lock:
            self._route_cost(seconds)

    def _route_cost(self, seconds: float) -> None:
        """Accrue a cost to this thread's open branch, else sequentially."""
        stack = self._thread_branches()
        if self._parallel_stack and stack:
            branches = self._parallel_stack[-1]
            branch = stack[-1].name
            branches[branch] = branches.get(branch, 0.0) + seconds
        else:
            self.elapsed_s += seconds

    # -- parallel sections ---------------------------------------------------

    def begin_parallel(self) -> None:
        with self._lock:
            self._parallel_stack.append({})

    def branch(self, name: str) -> "_BranchContext":
        with self._lock:
            if not self._parallel_stack:
                raise NetworkError(
                    f"branch({name!r}) requires an open parallel section; "
                    "call begin_parallel() first"
                )
        return _BranchContext(self, name)

    def end_parallel(self) -> None:
        with self._lock:
            if not self._parallel_stack:
                raise NetworkError(
                    "end_parallel() without a matching begin_parallel()"
                )
            branches = self._parallel_stack.pop()
            longest = max(branches.values(), default=0.0)
            stack = self._thread_branches()
            if self._parallel_stack and stack:
                outer = self._parallel_stack[-1]
                branch = stack[-1].name
                outer[branch] = outer.get(branch, 0.0) + longest
            else:
                self.elapsed_s += longest

    @property
    def balanced(self) -> bool:
        """True when no parallel section or branch is left open."""
        with self._lock:
            return not self._parallel_stack and self._open_branches == 0

    def branch_elapsed(self, name: str) -> float:
        """Accumulated cost of one branch of the innermost open section."""
        with self._lock:
            if not self._parallel_stack:
                raise NetworkError(
                    "branch_elapsed() outside a parallel section"
                )
            return self._parallel_stack[-1].get(name, 0.0)

    # -- summary -----------------------------------------------------------

    @property
    def message_count(self) -> int:
        return len(self.records)

    @property
    def total_bytes(self) -> int:
        # Running counter maintained by add(); re-summing the record list
        # on every access made per-fetch accounting O(messages) each time.
        return self._total_bytes

    def bytes_by_purpose(self) -> dict[str, int]:
        summary: dict[str, int] = {}
        with self._lock:
            records = list(self.records)
        for record in records:
            summary[record.purpose] = (
                summary.get(record.purpose, 0) + record.payload_bytes
            )
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MessageTrace(messages={self.message_count}, "
            f"bytes={self.total_bytes}, elapsed={self.elapsed_s * 1000:.2f}ms)"
        )


class _BranchContext:
    """One open branch: also captures the messages recorded inside it.

    The per-branch ``records`` list is what per-fetch accounting reads —
    slicing the shared ``trace.records`` list by index is meaningless once
    several branches record into one trace.
    """

    def __init__(self, trace: MessageTrace, name: str):
        self.trace = trace
        self.name = name
        self.records: list[MessageRecord] = []

    @property
    def payload_bytes(self) -> int:
        return sum(record.payload_bytes for record in self.records)

    @property
    def raw_payload_bytes(self) -> int:
        """Pre-compression bytes: what this branch *would* have shipped."""
        return sum(
            record.raw_bytes
            if record.raw_bytes is not None
            else record.payload_bytes
            for record in self.records
        )

    def __enter__(self):
        with self.trace._lock:
            self.trace._thread_branches().append(self)
            self.trace._open_branches += 1
        return self

    def __exit__(self, *exc_info):
        with self.trace._lock:
            self.trace._thread_branches().pop()
            self.trace._open_branches -= 1
        return False


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


@dataclass
class DropRule:
    """One message-drop rule; ``None`` fields match any value.

    ``remaining`` counts down per dropped message (``None`` = unlimited);
    ``probability`` < 1.0 makes the rule fire stochastically from the
    injector's seeded RNG, so runs stay reproducible.
    """

    source: str | None = None
    destination: str | None = None
    purpose: str | None = None
    remaining: int | None = 1
    probability: float = 1.0

    def matches(self, source: str, destination: str, purpose: str) -> bool:
        if self.remaining == 0:
            return False
        if self.source is not None and self.source != source:
            return False
        if self.destination is not None and self.destination != destination:
            return False
        if self.purpose is not None and self.purpose != purpose:
            return False
        return True


@dataclass
class DroppedMessage:
    """Accounting record for one injected loss."""

    source: str
    destination: str
    purpose: str
    reason: str


class FaultInjector:
    """Deterministic, seed-driven fault model for the simulated network.

    Three fault classes, all consulted by :meth:`Network.send`:

    - **drop rules** — lose the next N (or a seeded fraction of) messages
      on a link, optionally scoped by message ``purpose`` (``"prepare"``,
      ``"commit"``, ...), so a test can lose exactly the 2PC decision
      message and nothing else
    - **site crashes** — a crashed site neither sends nor receives until
      :meth:`restart_site`
    - **partitions** — site groups that cannot reach each other until
      :meth:`heal`; :meth:`partition` severs both directions,
      :meth:`partition_oneway` only one (the classic asymmetric-link
      topology where A hears B but B never hears A)

    Every loss is recorded in :attr:`dropped` and raised to the sender as
    :class:`~repro.errors.MessageDropped`.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        # Server sessions send from their own threads; the seeded RNG and
        # rule countdowns must mutate atomically.
        self._lock = threading.Lock()
        self._rules: list[DropRule] = []
        self._crashed: set[str] = set()
        #: Directed cuts: messages from the first set to the second are
        #: lost.  A symmetric partition stores both directions.
        self._partitions: list[tuple[frozenset, frozenset]] = []
        self.dropped: list[DroppedMessage] = []
        #: Optional :class:`repro.obs.Observability` handle; when set (by
        #: ``MyriadSystem.inject_faults`` or the owning network), crash /
        #: restart / partition / heal actions are recorded as events.
        self.obs = None

    def _emit(self, etype: str, **fields: object) -> None:
        if self.obs is not None:
            self.obs.emit(etype, **fields)

    # -- configuration -----------------------------------------------------

    def drop_next(
        self,
        count: int = 1,
        source: str | None = None,
        destination: str | None = None,
        purpose: str | None = None,
    ) -> DropRule:
        """Drop the next ``count`` messages matching the filters."""
        rule = DropRule(source, destination, purpose, remaining=count)
        self._rules.append(rule)
        return rule

    def drop_rate(
        self,
        probability: float,
        source: str | None = None,
        destination: str | None = None,
        purpose: str | None = None,
    ) -> DropRule:
        """Drop a seeded random fraction of matching messages, indefinitely."""
        rule = DropRule(
            source, destination, purpose, remaining=None, probability=probability
        )
        self._rules.append(rule)
        return rule

    def crash_site(self, site: str) -> None:
        self._crashed.add(site)
        self._emit("fault.crash", site=site)

    def restart_site(self, site: str) -> None:
        """Bring a crashed site back with a clean per-site fault slate.

        Clears the crash flag *and* every finite drop rule scoped to this
        site (as source or destination) — a restarted site should not
        inherit stale one-shot losses queued against its previous
        incarnation.  Unlimited rules (``remaining=None``, e.g. lossy-link
        ``drop_rate``) model the *link*, not the site, and survive.
        Partitions also survive: a restart reboots the site, it does not
        re-cable the network — heal partitions explicitly with
        :meth:`heal`.  Emits a ``fault.restart`` event.
        """
        self._crashed.discard(site)
        self._rules = [
            rule
            for rule in self._rules
            if rule.remaining is None or site not in (rule.source, rule.destination)
        ]
        self._emit("fault.restart", site=site)

    def is_crashed(self, site: str) -> bool:
        return site in self._crashed

    def partition(self, group_a, group_b) -> None:
        """Sever both directions between two site groups."""
        self._partitions.append((frozenset(group_a), frozenset(group_b)))
        self._partitions.append((frozenset(group_b), frozenset(group_a)))
        self._emit(
            "fault.partition",
            group_a=sorted(group_a),
            group_b=sorted(group_b),
            direction="both",
        )

    def partition_oneway(self, sources, destinations) -> None:
        """Sever one direction only: ``sources`` → ``destinations`` is lost,
        the reverse path still delivers (asymmetric link failure)."""
        self._partitions.append((frozenset(sources), frozenset(destinations)))
        self._emit(
            "fault.partition",
            group_a=sorted(sources),
            group_b=sorted(destinations),
            direction="a->b",
        )

    def heal(self) -> None:
        """Remove all partitions and restart every crashed site."""
        if self._partitions or self._crashed:
            self._emit(
                "fault.heal",
                cuts=len(self._partitions),
                crashed=sorted(self._crashed),
            )
        self._partitions.clear()
        self._crashed.clear()

    def clear(self) -> None:
        """Remove every fault (rules, crashes, partitions); keep accounting."""
        self._rules.clear()
        self.heal()

    # -- evaluation --------------------------------------------------------

    def fault_for(self, source: str, destination: str, purpose: str) -> str | None:
        """Reason this message is lost, or ``None`` to deliver it.

        Mutates rule counters, so each call models one send attempt.
        """
        with self._lock:
            for site in (source, destination):
                if site in self._crashed:
                    return f"site {site!r} is crashed"
            for sources, destinations in self._partitions:
                if source in sources and destination in destinations:
                    return f"partition between {source!r} and {destination!r}"
            for rule in self._rules:
                if not rule.matches(source, destination, purpose):
                    continue
                if (
                    rule.probability < 1.0
                    and self._rng.random() >= rule.probability
                ):
                    continue
                if rule.remaining is not None:
                    rule.remaining -= 1
                return f"drop rule on purpose {purpose!r}"
            return None

    def record(self, source: str, destination: str, purpose: str, reason: str) -> None:
        with self._lock:
            self.dropped.append(
                DroppedMessage(source, destination, purpose, reason)
            )


class Network:
    """Registry of sites and link profiles with message accounting."""

    def __init__(
        self,
        default_link: LinkProfile | None = None,
        faults: FaultInjector | None = None,
        obs=None,
    ):
        self.default_link = default_link or LinkProfile()
        #: Guards cumulative counters and the simulated clock against
        #: concurrent server sessions; never held across fault evaluation
        #: or health recording.
        self._lock = threading.Lock()
        self._sites: set[str] = set()
        self._links: dict[tuple[str, str], LinkProfile] = {}
        #: Optional fault injector consulted on every send.
        self.faults = faults
        #: Optional :class:`repro.obs.Observability` handle; every send is
        #: counted into its metrics registry (messages/bytes by purpose,
        #: fault-injector drops).  ``MyriadSystem`` installs its own here.
        self.obs = obs
        #: Optional :class:`repro.health.HealthTracker`; every send outcome
        #: is recorded against the non-hub endpoint (``MyriadSystem`` wires
        #: this so circuit breakers see all traffic).
        self.health = None
        #: Endpoint treated as the federation hub for health attribution:
        #: a lost hub↔site message blames the *site*, never the hub.
        self.health_hub = "federation"
        # Cumulative counters (all traces).
        self.total_messages = 0
        self.total_bytes = 0
        self.dropped_messages = 0
        #: Monotonic simulated clock: the cumulative virtual cost of every
        #: delivered message (plus link latency burned on each drop) and
        #: any explicit :meth:`advance` — the time source for health-check
        #: cooldowns and retry backoff.
        self.now_s = 0.0

    def advance(self, seconds: float) -> None:
        """Advance the simulated clock (e.g. a retry backoff or idle wait)."""
        if seconds < 0:
            raise NetworkError("cannot advance the simulated clock backwards")
        with self._lock:
            self.now_s += seconds

    def _blame(self, source: str, destination: str) -> str:
        """The endpoint whose health a message outcome reflects."""
        return destination if source == self.health_hub else source

    # -- topology ----------------------------------------------------------

    def add_site(self, name: str) -> None:
        self._sites.add(name)

    def has_site(self, name: str) -> bool:
        return name in self._sites

    def set_link(self, source: str, destination: str, profile: LinkProfile) -> None:
        """Override the profile for a directed link (both sites must exist)."""
        for site in (source, destination):
            if site not in self._sites:
                raise NetworkError(f"unknown site {site!r}")
        self._links[(source, destination)] = profile

    def link(self, source: str, destination: str) -> LinkProfile:
        return self._links.get((source, destination), self.default_link)

    # -- messaging -----------------------------------------------------------

    def send(
        self,
        source: str,
        destination: str,
        payload_bytes: int,
        purpose: str,
        trace: MessageTrace | None = None,
        request_id: str | None = None,
        raw_bytes: int | None = None,
    ) -> float:
        """Account one message; returns its virtual cost in seconds.

        ``raw_bytes`` is the pre-compression payload size when the sender
        wire-compressed this message; it is carried on the trace record
        for observability only — cost and byte accounting always charge
        ``payload_bytes`` (what actually crosses the link).
        """
        if source not in self._sites:
            raise NetworkError(f"unknown source site {source!r}")
        if destination not in self._sites:
            raise NetworkError(f"unknown destination site {destination!r}")
        if source == destination:
            return 0.0  # local calls are free
        if self.faults is not None:
            reason = self.faults.fault_for(source, destination, purpose)
            if reason is not None:
                with self._lock:
                    self.dropped_messages += 1
                    # The sender still burns the link latency discovering
                    # the loss (timeout), so failures advance simulated
                    # time too.
                    self.now_s += self.link(source, destination).latency_s
                self.faults.record(source, destination, purpose, reason)
                # Replica-to-replica consensus traffic is exempt from
                # breaker attribution: _blame would charge the *sender*
                # (usually the group leader) for a peer's unreachability.
                if self.health is not None and not purpose.startswith("raft."):
                    self.health.record_failure(
                        self._blame(source, destination), reason=reason
                    )
                if self.obs is not None:
                    self.obs.metrics.inc("net.dropped", purpose=purpose)
                    self.obs.emit(
                        "fault.drop",
                        sim_s=trace.elapsed_s if trace is not None else None,
                        source=source,
                        destination=destination,
                        purpose=purpose,
                        reason=reason,
                    )
                raise MessageDropped(
                    f"message {purpose!r} from {source!r} to {destination!r} "
                    f"lost: {reason}",
                    source=source,
                    destination=destination,
                    purpose=purpose,
                    reason=reason,
                )
        cost = self.link(source, destination).cost(payload_bytes)
        with self._lock:
            self.total_messages += 1
            self.total_bytes += payload_bytes
            self.now_s += cost
        if self.health is not None and not purpose.startswith("raft."):
            self.health.record_success(self._blame(source, destination))
        if self.obs is not None:
            metrics = self.obs.metrics
            metrics.inc("net.messages", purpose=purpose)
            metrics.inc("net.bytes", payload_bytes, purpose=purpose)
        if trace is not None:
            trace.add(
                MessageRecord(
                    source,
                    destination,
                    payload_bytes,
                    purpose,
                    cost,
                    request_id=request_id,
                    raw_bytes=raw_bytes,
                )
            )
        return cost


# ---------------------------------------------------------------------------
# Payload sizing
# ---------------------------------------------------------------------------


def estimate_value_bytes(value: object) -> int:
    """Wire-size estimate of one value (same model as storage stats)."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value) + 4
    return 16


def estimate_rows_bytes(rows: list[tuple]) -> int:
    """Wire-size estimate of a rowset (plus per-row framing)."""
    total = 0
    for row in rows:
        total += 8  # framing
        for value in row:
            total += estimate_value_bytes(value)
    return total


_NULL = type(None)


def estimate_column_bytes(values) -> int:
    """:func:`estimate_value_bytes` summed over one column.

    A column of ints and floats (and NULLs), or of strings alone, is sized
    from its type set without a call per value.
    """
    kinds = set(map(type, values))
    if kinds <= {int, float, _NULL}:
        nulls = values.count(None) if _NULL in kinds else 0
        return 8 * (len(values) - nulls) + nulls
    if kinds == {str}:
        return sum(map(len, values)) + 4 * len(values)
    total = 0
    for value in values:
        total += estimate_value_bytes(value)
    return total


def estimate_fragment_bytes(fragment) -> int:
    """:func:`estimate_rows_bytes` of a columnar fragment's rows, a column
    at a time."""
    return 8 * fragment.length + sum(map(estimate_column_bytes, fragment.columns))
