"""Live system introspection: locks, wait-for graph, 2PC states, stats.

Read-only snapshot APIs over a running :class:`~repro.myriad.MyriadSystem` —
the operational surface the paper's machinery (2PL locals, 2PC, timeout
deadlock resolution) needs to be *observable* rather than inferred:

- :func:`lock_table` — per-site held and waiting table locks by mode
- :func:`wait_for_graph` — the union of the components' wait-for edges in
  global-transaction terms, plus cycles, chosen victims, and a Graphviz DOT
  render
- :func:`transaction_states` — every known global transaction's coordinator
  state next to its per-site branch states, flagging divergence (e.g. a
  branch still PREPARED after the coordinator decided)
- :func:`federation_stats` — sites, federations, network totals, and
  transaction-manager counters in one dict

All snapshots are plain JSON-safe dicts; :func:`introspection_snapshot`
bundles the four for the debug bundle, and :func:`render_dashboard` formats
them as the human dashboard the ``repro.obs.report`` CLI prints.
"""

from __future__ import annotations

from repro.txn.deadlock import WaitForGraphDetector


# ---------------------------------------------------------------------------
# Lock table
# ---------------------------------------------------------------------------


def lock_table(system) -> dict[str, list[dict]]:
    """Per-site lock table: held and waiting locks, by resource and mode.

    Transaction ids are reported in *global* terms where the local
    transaction is a branch of a global one (``G3``), local ids otherwise.
    """
    table: dict[str, list[dict]] = {}
    for site in sorted(system.gateways):
        table[site] = system.gateways[site].lock_table()
    return table


# ---------------------------------------------------------------------------
# Wait-for graph
# ---------------------------------------------------------------------------


def wait_for_graph(system) -> dict:
    """The global wait-for graph: edges, cycles, victims, and a DOT render."""
    detector = WaitForGraphDetector(system.gateways)
    edges = detector.global_edges()
    cycles = detector.find_cycles()
    victims = detector.victims_for(cycles)
    return {
        "edges": [[str(a), str(b)] for a, b in edges],
        "cycles": [[str(txn) for txn in cycle] for cycle in cycles],
        "victims": [str(victim) for victim in victims],
        "dot": _render_dot(edges, cycles, victims),
    }


def _render_dot(edges, cycles, victims) -> str:
    """Graphviz DOT text: deadlocked nodes filled, victims double-circled."""
    deadlocked = {str(txn) for cycle in cycles for txn in cycle}
    victim_set = {str(victim) for victim in victims}
    nodes = sorted(
        {str(a) for a, _ in edges}
        | {str(b) for _, b in edges}
        | deadlocked
    )
    lines = ["digraph wait_for {", "  rankdir=LR;"]
    for node in nodes:
        attrs = []
        if node in deadlocked:
            attrs.append('style=filled fillcolor="#f4cccc"')
        if node in victim_set:
            attrs.append("peripheries=2")
        suffix = f" [{' '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{node}"{suffix};')
    for source, target in sorted((str(a), str(b)) for a, b in edges):
        lines.append(f'  "{source}" -> "{target}";')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Global transaction states
# ---------------------------------------------------------------------------


def transaction_states(system) -> list[dict]:
    """Coordinator state vs. per-site branch state for every known txn.

    Covers active global transactions, branches still present at any
    gateway (including in-doubt PREPARED branches whose coordinator already
    forgot them), and parked pending deliveries.  ``divergent`` is set when
    the branches do not agree with the coordinator's view — the condition
    2PC recovery exists to repair.
    """
    gtm = system.transactions
    coordinator: dict[str, str] = {
        str(gid): txn.state.value for gid, txn in gtm.active.items()
    }
    decisions = {
        str(gid): decision
        for gid, decision in gtm.wal.coordinator_decisions().items()
    }
    branches: dict[str, dict[str, str]] = {}
    for site in sorted(system.gateways):
        for gid, state in system.gateways[site].branch_states().items():
            branches.setdefault(str(gid), {})[site] = state
    pending: dict[str, dict[str, str]] = {}
    for gid, sites in gtm.pending_deliveries.items():
        pending[str(gid)] = dict(sites)

    rows = []
    for gid in sorted(set(coordinator) | set(branches) | set(pending)):
        coord_state = coordinator.get(gid)
        decision = decisions.get(gid)
        branch_states = branches.get(gid, {})
        divergent = _is_divergent(coord_state, decision, branch_states)
        rows.append(
            {
                "global_id": gid,
                "coordinator": coord_state
                or (f"decided:{decision}" if decision else "forgotten"),
                "branches": branch_states,
                "pending_delivery": pending.get(gid, {}),
                "divergent": divergent,
            }
        )
    return rows


def _is_divergent(
    coord_state: str | None, decision: str | None, branch_states: dict[str, str]
) -> bool:
    states = set(branch_states.values())
    # A PREPARED branch after the coordinator decided (or forgot) is in
    # doubt; mixed terminal branch states can never be right.
    if "prepared" in states and coord_state != "preparing":
        return True
    terminal = states & {"committed", "aborted"}
    if len(terminal) > 1:
        return True
    return False


# ---------------------------------------------------------------------------
# Federation stats
# ---------------------------------------------------------------------------


def _mvcc_stats(dbms) -> dict:
    """Snapshot-horizon facts for one component DBMS (empty if no MVCC)."""
    manager = getattr(dbms, "transactions", None)
    if manager is None:
        return {}
    commit_ts = manager.commit_ts
    oldest = manager.oldest_snapshot_ts()
    return {
        "commit_ts": commit_ts,
        "active_snapshots": manager.active_snapshots(),
        "oldest_snapshot_ts": oldest,
        # How far version GC is held back by the oldest open read view,
        # in commit timestamps; 0 means vacuum can prune to "now".
        "snapshot_horizon_age": commit_ts - oldest,
        # Which path snapshot scans took: the live heap in one pass, or
        # the heap with the RIDs changed since the snapshot patched in.
        "heap_scans": manager.heap_scans,
        "patched_scans": manager.patched_scans,
    }


def _window_stats(obs) -> dict:
    """Rolling per-federation and per-site rates from the windowed ring."""
    window = obs.window
    span = window.window_s
    out: dict = {"window_s": span, "federations": {}, "sites": {}}
    for labels in window.label_sets("query.latency_s"):
        # One latency sample per request: the series counts requests too.
        requests = window.count("query.latency_s", **labels)
        errors = window.count("query.errors", **labels)
        summary = window.summary("query.latency_s", **labels)
        out["federations"][labels.get("federation", "")] = {
            "requests": requests,
            "qps": requests / span,
            "error_rate": errors / requests if requests else 0.0,
            "latency_p50_s": summary["p50"] if summary else None,
            "latency_p95_s": summary["p95"] if summary else None,
            "latency_p99_s": summary["p99"] if summary else None,
        }
    for labels in window.label_sets("site.requests"):
        requests = window.count("site.requests", **labels)
        summary = window.summary("site.latency_s", **labels)
        out["sites"][labels.get("site", "")] = {
            "requests": requests,
            "qps": requests / span,
            "latency_p95_s": summary["p95"] if summary else None,
        }
    return out


def _cache_stats(metrics) -> dict:
    """Hit ratios of the global plan cache and the fragment caches."""
    out = {}
    for cache in ("plancache", "fragcache"):
        hits = metrics.counter_total(f"{cache}.hit")
        misses = metrics.counter_total(f"{cache}.miss")
        lookups = hits + misses
        out[cache] = {
            "hits": hits,
            "misses": misses,
            "hit_ratio": hits / lookups if lookups else None,
        }
    # Wire-compression savings of fragments stored encoded (zero with the
    # wire_compression knob off — the counters are never bumped).
    bytes_raw = metrics.counter_total("fragcache.bytes_raw")
    bytes_wire = metrics.counter_total("fragcache.bytes_wire")
    out["fragcache"]["bytes_raw"] = bytes_raw
    out["fragcache"]["bytes_wire"] = bytes_wire
    out["fragcache"]["bytes_saved"] = bytes_raw - bytes_wire
    out["fragcache"]["compression_ratio"] = (
        bytes_raw / bytes_wire if bytes_wire else None
    )
    return out


def federation_stats(system) -> dict:
    """One JSON-safe dict of the installation's shape and counters."""
    gtm = system.transactions
    network = system.network
    health = getattr(network, "health", None)
    obs = system.obs
    return {
        "health": (
            health.snapshot(sites=system.gateways)
            if health is not None
            else {}
        ),
        "sites": {
            site: {
                "dialect": type(system.components[site]).__name__,
                "exports": gateway.export_names(),
                "queries_executed": gateway.queries_executed,
                "timeouts": gateway.timeouts,
                "snapshot_reads": gateway.snapshot_reads,
                "open_branches": len(gateway.branch_states()),
                "mvcc": _mvcc_stats(system.components[site]),
            }
            for site, gateway in sorted(system.gateways.items())
        },
        "replication": {
            site: group.stats()
            for site, group in sorted(
                getattr(system, "replica_groups", {}).items()
            )
        },
        "windows": _window_stats(obs),
        "slos": [slo.status() for _, slo in sorted(obs.slos.items())],
        "alerts": obs.active_alerts(),
        "caches": _cache_stats(obs.metrics),
        "sessions": (
            system._server.stats()
            if getattr(system, "_server", None) is not None
            else {}
        ),
        "federations": {
            federation.name: {"relations": sorted(federation.relations)}
            for federation in system.federations.values()
        },
        "network": {
            "messages": network.total_messages,
            "bytes": network.total_bytes,
            "dropped": network.dropped_messages,
        },
        "transactions": {
            "active": len(gtm.active),
            "commits": gtm.commits,
            "aborts": gtm.aborts,
            "timeout_aborts": gtm.timeout_aborts,
            "vote_no_aborts": gtm.vote_no_aborts,
            "decision_retries": gtm.decision_retries,
            "decisions_parked": gtm.decisions_parked,
            "decisions_recovered": gtm.decisions_recovered,
        },
    }


def introspection_snapshot(system) -> dict:
    """All four snapshots in one dict (the bundle's introspection.json)."""
    return {
        "lock_table": lock_table(system),
        "wait_for_graph": wait_for_graph(system),
        "transaction_states": transaction_states(system),
        "federation_stats": federation_stats(system),
    }


# ---------------------------------------------------------------------------
# Human dashboard
# ---------------------------------------------------------------------------


def _fmt_ms(value) -> str:
    return f"{value * 1000:.3f}ms" if value is not None else "-"


def _render_ops_window(lines: list[str], stats: dict) -> None:
    """The live-operations section: rolling rates, caches, MVCC, SLOs.

    All lookups are defensive (``.get``) so dashboards render for bundles
    written before these fields existed.
    """
    windows = stats.get("windows") or {}
    slos = stats.get("slos") or []
    alerts = stats.get("alerts") or []
    caches = stats.get("caches") or {}
    if not (windows or slos or caches):
        return
    lines.append("")
    lines.append(
        f"== ops window (last {windows.get('window_s', 0):g}s simulated) =="
    )
    for fed, row in sorted((windows.get("federations") or {}).items()):
        lines.append(
            f"federation {fed or '-'}: qps={row.get('qps', 0.0):.2f} "
            f"error_rate={row.get('error_rate', 0.0) * 100:.2f}% "
            f"p50={_fmt_ms(row.get('latency_p50_s'))} "
            f"p95={_fmt_ms(row.get('latency_p95_s'))} "
            f"p99={_fmt_ms(row.get('latency_p99_s'))}"
        )
    health = stats.get("health", {})
    for site, row in sorted((windows.get("sites") or {}).items()):
        breaker = (health.get(site) or {}).get("state", "-")
        lines.append(
            f"site {site}: qps={row.get('qps', 0.0):.2f} "
            f"p95={_fmt_ms(row.get('latency_p95_s'))} "
            f"breaker={breaker.upper()}"
        )
    for name, row in sorted(caches.items()):
        ratio = row.get("hit_ratio")
        ratio_text = f"{ratio * 100:.1f}%" if ratio is not None else "-"
        codec = ""
        if row.get("bytes_saved"):
            codec = (
                f" wire_saved={row['bytes_saved']:g}B "
                f"(x{row.get('compression_ratio') or 0:.2f})"
            )
        lines.append(
            f"cache {name}: hit_ratio={ratio_text} "
            f"(hits={row.get('hits', 0):g} misses={row.get('misses', 0):g})"
            f"{codec}"
        )
    for site, info in sorted((stats.get("sites") or {}).items()):
        mvcc = info.get("mvcc") or {}
        if mvcc:
            lines.append(
                f"mvcc {site}: commit_ts={mvcc.get('commit_ts', 0)} "
                f"snapshots={mvcc.get('active_snapshots', 0)} "
                f"horizon_age={mvcc.get('snapshot_horizon_age', 0)} "
                f"scans=heap:{mvcc.get('heap_scans', 0)}"
                f"/patched:{mvcc.get('patched_scans', 0)}"
            )
    for status in slos:
        worst = max(
            (rule.get("burn_long", 0.0) for rule in status.get("rules", [])),
            default=0.0,
        )
        state = "FIRING" if status.get("alert_active") else "ok"
        lines.append(
            f"slo {status.get('name', '?')} "
            f"[{status.get('kind', '?')} "
            f"{status.get('objective', 0.0) * 100:g}%]: {state} "
            f"worst_burn={worst:.2f} fired={status.get('fired', 0)} "
            f"cleared={status.get('cleared', 0)}"
        )
    for alert in alerts:
        firing = [
            rule for rule in alert.get("rules", []) if rule.get("firing")
        ]
        rule = firing[0] if firing else {}
        lines.append(
            f"ALERT {alert.get('name', '?')}: rule={rule.get('rule', '-')} "
            f"burn_long={rule.get('burn_long', 0.0):.2f} "
            f"burn_short={rule.get('burn_short', 0.0):.2f}"
        )


def render_dashboard(snapshot: dict) -> str:
    """Format an :func:`introspection_snapshot` as the CLI's dashboard."""
    lines: list[str] = []

    stats = snapshot.get("federation_stats", {})
    lines.append("== federation ==")
    for site, info in stats.get("sites", {}).items():
        lines.append(
            f"site {site} [{info['dialect']}]: "
            f"exports={','.join(info['exports']) or '-'} "
            f"queries={info['queries_executed']} "
            f"timeouts={info['timeouts']} "
            f"open_branches={info['open_branches']}"
        )
    for name, info in stats.get("federations", {}).items():
        lines.append(
            f"federation {name}: relations={','.join(info['relations']) or '-'}"
        )
    sessions = stats.get("sessions") or {}
    if sessions:
        lines.append(
            f"sessions: open={sessions.get('open', 0)}"
            f"/{sessions.get('max', 0)} "
            f"peak={sessions.get('peak', 0)} "
            f"queries={sessions.get('queries', 0)} "
            f"updates={sessions.get('updates', 0)} "
            f"commits={sessions.get('commits', 0)} "
            f"aborts={sessions.get('aborts', 0)}"
        )
    net = stats.get("network", {})
    lines.append(
        f"network: messages={net.get('messages', 0)} "
        f"bytes={net.get('bytes', 0)} dropped={net.get('dropped', 0)}"
    )
    health = stats.get("health", {})
    unhealthy = {
        site: info
        for site, info in sorted(health.items())
        if info.get("state") != "closed" or info.get("trips")
    }
    if unhealthy:
        lines.append(
            "health: "
            + " ".join(
                f"{site}={info['state'].upper()}"
                f"(fails={info['consecutive_failures']},"
                f"trips={info['trips']})"
                for site, info in unhealthy.items()
            )
        )
    elif health:
        lines.append("health: all breakers CLOSED")
    txn = stats.get("transactions", {})
    lines.append(
        "transactions: "
        + " ".join(f"{key}={value}" for key, value in txn.items())
    )

    replication = stats.get("replication") or {}
    if replication:
        lines.append("")
        lines.append("== replication ==")
        for site, group in sorted(replication.items()):
            staleness = group.get("staleness") or {}
            worst = max(staleness.values(), default=0)
            lines.append(
                f"group {site}: replicas={group.get('replicas', 0)} "
                f"leader={group.get('leader', '-')} "
                f"term={group.get('term', 0)} "
                f"commit_index={group.get('commit_index', 0)} "
                f"elections={group.get('elections', 0)} "
                f"failovers={group.get('failovers', 0)} "
                f"redirects={group.get('redirects', 0)} "
                f"follower_reads={group.get('follower_reads', 0)} "
                f"max_staleness={worst}"
            )

    _render_ops_window(lines, stats)

    lines.append("")
    lines.append("== lock table ==")
    any_locks = False
    for site, resources in snapshot.get("lock_table", {}).items():
        for entry in resources:
            any_locks = True
            holders = " ".join(
                f"{txn}:{mode}" for txn, mode in sorted(entry["holders"].items())
            )
            waiters = " ".join(
                f"{txn}:{mode}?" for txn, mode in entry["waiters"]
            )
            lines.append(
                f"{site}.{entry['resource']}: held[{holders}]"
                + (f" waiting[{waiters}]" if waiters else "")
            )
    if not any_locks:
        lines.append("(no locks held)")

    lines.append("")
    lines.append("== wait-for graph ==")
    graph = snapshot.get("wait_for_graph", {})
    if graph.get("edges"):
        for source, target in graph["edges"]:
            lines.append(f"{source} -> {target}")
        for cycle in graph.get("cycles", []):
            lines.append(f"cycle: {' -> '.join(cycle + [cycle[0]])}")
        if graph.get("victims"):
            lines.append(f"victims: {', '.join(graph['victims'])}")
    else:
        lines.append("(no waits)")

    lines.append("")
    lines.append("== global transactions ==")
    states = snapshot.get("transaction_states", [])
    if states:
        for row in states:
            branch_text = " ".join(
                f"{site}={state}" for site, state in sorted(row["branches"].items())
            )
            pending = row.get("pending_delivery") or {}
            pending_text = (
                " pending[" + " ".join(f"{s}:{d}" for s, d in sorted(pending.items())) + "]"
                if pending
                else ""
            )
            flag = "  << DIVERGENT" if row["divergent"] else ""
            lines.append(
                f"{row['global_id']}: coordinator={row['coordinator']} "
                f"{branch_text}{pending_text}{flag}".rstrip()
            )
    else:
        lines.append("(no global transactions known)")
    return "\n".join(lines)
