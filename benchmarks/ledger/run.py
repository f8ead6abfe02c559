#!/usr/bin/env python3
"""The performance ledger: six workloads, one harness, one result file.

    python benchmarks/ledger/run.py --seed 0            # the whole ledger
    python benchmarks/ledger/run.py --smoke             # 2 % run, not comparable
    python benchmarks/ledger/run.py compare A.json B.json
    python benchmarks/ledger/run.py --workload hot_read --seed 3 \\
        --seconds 12 --trace 0                          # one run (BENCHMARK.json)

A run builds the workload's federation against the default
``MyriadSystem`` configuration, warms it up, drives a closed loop through
the public entry points for ``--seconds`` (or ``--ops`` per client),
checks every answer against a plain-Python oracle, and prints every
metric by name and unit; the last line of a single run is the JSON object
``BENCHMARK.json`` promises.  ``--trace 0`` yields the end-to-end
metrics, ``--trace 1`` the per-layer ones (half the run untraced, half
under the span recorder of ``tracing.py``).  Without ``--workload`` each
workload runs twice (trace 0, then 1), alone, in a fresh interpreter, and
the merged result lands in ``results/latest.json``.  README.md in this
directory is the glossary.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor

from metrics import (
    CONTRACT_END_TO_END,
    END_TO_END,
    MAX_UNATTRIBUTED,
    PER_LAYER,
    compare,
    percentile,
    timing_stats,
)
from tracing import OP, SPAN_NAMES, Recorder, dump, summarise

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
OUT = HERE / "out"
RESULTS = HERE / "results"

#: Default measuring time of one run; BENCHMARK.json's ``run_seconds``.
RUN_SECONDS = 12
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Every measuring interpreter runs with this ``PYTHONHASHSEED``.
HASH_SEED = "0"
#: Tracebacks printed per run before failures are only counted.
MAX_TRACEBACKS = 3

#: 2PC message purposes, for ``txn.msgs_per_commit``.
TXN_PURPOSES = ("begin", "dml", "ack", "prepare", "vote", "commit", "abort")


class Client:
    """One closed-loop client: its connection, its stream, its samples."""

    def __init__(self, workload, index: int):
        self.index = index
        self.send = workload.connect(index)
        self.ops = workload.stream(index)
        self.attempted = 0
        self.failed = 0
        self.reset()

    def reset(self) -> None:
        """Forget the measurements (not the failure count) so far."""
        #: (start, end, op kind, traced) per op.
        self.samples: list[tuple] = []
        self.sim_s = 0.0
        #: fetches, semijoin fetches, rows fetched, rows returned.
        self.tally = [0, 0, 0, 0]
        #: Simulated totals after exactly ``sim_ops`` timed ops.
        self.sim_mark: tuple | None = None


def drive(workload, client: Client, until, recorder=None) -> None:
    """Closed loop: the next op is sent when the previous one returned.

    Only ``client.send(op)`` is timed; drawing the op and checking its
    answer happen outside the timed region.
    """
    network = workload.system.network
    scope = recorder.op if recorder else contextlib.nullcontext
    tally = client.tally
    while not until(client):
        op = next(client.ops)
        result = None
        with scope(client.index * 1_000_000 + len(client.samples) + 1):
            start = time.perf_counter()
            try:
                result = client.send(op)
            except Exception:
                # A failed op is a measurement, not the end of the run.
                if client.failed < MAX_TRACEBACKS:
                    traceback.print_exc()
            end = time.perf_counter()
        client.attempted += 1
        if result is None or not workload.check(client.index, op, result):
            client.failed += 1
        if result is not None:
            client.sim_s += workload.sim_s(result)
            plan = getattr(result, "plan", None)
            if plan is not None:
                tally[0] += len(plan.fetches)
                tally[1] += sum(f.semijoin is not None for f in plan.fetches)
                tally[2] += result.fetched_rows
                tally[3] += len(result.rows)
        client.samples.append((start, end, op.kind, recorder is not None))
        if len(client.samples) == workload.sim_ops:
            client.sim_mark = (
                client.sim_s,
                network.total_bytes,
                network.total_messages,
            )


def run_phase(workload, clients, seconds, ops, recorder=None) -> None:
    """Every client loops for ``seconds``, or for ``ops`` ops each."""
    if ops is not None:
        targets = {
            client.index: len(client.samples) + ops for client in clients
        }

        def until(client):
            return len(client.samples) >= targets[client.index]

    else:
        deadline = time.perf_counter() + seconds

        def until(client):
            return time.perf_counter() >= deadline

    if len(clients) == 1:
        drive(workload, clients[0], until, recorder)
        return
    with ThreadPoolExecutor(len(clients)) as pool:
        futures = [
            pool.submit(drive, workload, client, until, recorder)
            for client in clients
        ]
        for future in futures:
            future.result()


def set_up(workload) -> tuple[list[Client], float]:
    """Build, compute the oracle (untimed), warm up; returns ``setup_s``."""
    start = time.perf_counter()
    workload.system = workload.build()
    built = time.perf_counter()
    workload.prepare()
    clients = [Client(workload, i) for i in range(workload.clients)]
    warm = time.perf_counter()
    for client in clients:
        run_phase(workload, [client], None, workload.warmup_ops)
    setup_s = (built - start) + (time.perf_counter() - warm)
    for client in clients:
        client.reset()
    return clients, setup_s


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def _simulated(workload, clients, net_before) -> dict[str, dict]:
    """sim ms, wire bytes and messages per op, read before the audit runs.

    Over the leading ``sim_ops`` ops when the single client got that far
    (then the three repeat exactly), else over every timed op.
    """
    network = workload.system.network
    mark = clients[0].sim_mark if len(clients) == 1 else None
    if mark is not None:
        ops, (sim_s, total_bytes, messages) = workload.sim_ops, mark
    else:
        ops = sum(len(client.samples) for client in clients)
        sim_s = sum(client.sim_s for client in clients)
        total_bytes, messages = network.total_bytes, network.total_messages
    return {
        "sim_ms_per_op": {"value": sim_s * 1000.0 / ops, "n": ops},
        "wire_bytes_per_op": {
            "value": (total_bytes - net_before[0]) / ops,
            "n": ops,
        },
        "msgs_per_op": {"value": (messages - net_before[1]) / ops, "n": ops},
    }


def run_untraced(cls, seed: int, seconds, ops, setups: int) -> dict:
    """End-to-end metrics of one workload (``--trace 0``)."""
    workload = cls(seed)
    clients, setup_s = set_up(workload)
    network = workload.system.network
    net_before = (network.total_bytes, network.total_messages)
    run_phase(workload, clients, seconds, ops)
    simulated = _simulated(workload, clients, net_before)
    audit_ok = workload.finish()
    workload.system.close()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # The other set-ups come after the measurement: federations built and
    # dropped before it leave a heap that makes the timed ops slower and
    # less steady.
    setup_times = [setup_s]
    for _ in range(setups - 1):
        gc.collect()
        again = cls(seed)
        setup_times.append(set_up(again)[1])
        again.system.close()

    attempted = sum(client.attempted for client in clients)
    failed = sum(client.failed for client in clients)
    samples = [s[:2] for client in clients for s in client.samples]
    metrics = {
        "setup_s": {
            "value": statistics.median(setup_times),
            "n": len(setup_times),
            "range": [min(setup_times), max(setup_times)],
        },
        **timing_stats(samples),
        "failed_frac": {"value": failed / attempted, "n": attempted},
        **simulated,
        "peak_rss_mb": {"value": peak_rss_kib / 1024.0},
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and audit_ok,
        "metrics": metrics,
    }


def run_traced(cls, seed: int, seconds, ops, spans_path) -> dict:
    """Per-layer metrics of one workload (``--trace 1``).

    The first half of the run is untraced (server latencies, the base of
    ``trace.overhead_frac``), the second half runs under the recorder.
    Counts come from the program's public statistics around both halves.
    """
    workload = cls(seed)
    clients, _ = set_up(workload)
    system = workload.system
    processor = system.processor(workload.federation)
    transactions = system.transactions

    def counters() -> dict[str, float]:
        plans = processor.plan_cache.stats
        fragments = processor.fragment_cache.stats
        return {
            "bytes": system.network.total_bytes,
            "messages": system.network.total_messages,
            "plan_hits": plans["hits"],
            "plan_misses": plans["misses"],
            "plan_evictions": plans["evictions"],
            "frag_hits": fragments["hits"],
            "frag_misses": fragments["misses"],
            "frag_stale": fragments["stale_drops"],
            "commits": transactions.commits,
            "aborts": transactions.aborts,
            "txn_messages": sum(
                system.metrics.counter("net.messages", purpose=purpose)
                for purpose in TXN_PURPOSES
            ),
        }

    before = counters()
    half_s = seconds / 2 if seconds is not None else None
    half_ops = None if ops is None else max(ops // 2, 1)
    run_phase(workload, clients, half_s, half_ops)
    recorder = Recorder()
    recorder.install()
    try:
        run_phase(workload, clients, half_s, half_ops, recorder)
    finally:
        recorder.uninstall()
    after = counters()
    simulated = _simulated(
        workload, clients, (before["bytes"], before["messages"])
    )
    audit_ok = workload.finish()
    system.close()
    delta = {key: after[key] - before[key] for key in before}

    attempted = sum(client.attempted for client in clients)
    failed = sum(client.failed for client in clients)
    samples = [s for client in clients for s in client.samples]
    n_ops = len(samples)
    tally = [sum(client.tally[i] for client in clients) for i in range(4)]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def wall_ms(traced: bool, kind: str | None = None) -> list[float]:
        return sorted(
            (end - start) * 1000.0
            for start, end, op_kind, was_traced in samples
            if was_traced == traced and kind in (None, op_kind)
        )

    spans = recorder.spans()
    dump(spans, spans_path)
    summary = summarise(spans)
    root = summary.pop(OP, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    traced_ops = root["calls"]
    values = {metric.name: 0.0 for metric in PER_LAYER}
    for name, row in summary.items():
        values[f"{name}.self_ms_per_op"] = ratio(
            row["self_s"] * 1000.0, traced_ops
        )
        values[f"{name}.calls_per_op"] = ratio(row["calls"], traced_ops)
    shipped = summary.get("gateway.query", {}).get("count", 0)
    scanned = summary.get("engine.execute", {}).get("count", 0)
    values.update(
        {
            "query.fetches_per_op": ratio(tally[0], n_ops),
            "query.semijoin_fetches_per_op": ratio(tally[1], n_ops),
            "query.rows_fetched_per_op": ratio(tally[2], n_ops),
            "query.rows_fetched_per_row_returned": ratio(tally[2], tally[3]),
            "cache.plans.hit_ratio": ratio(
                delta["plan_hits"], delta["plan_hits"] + delta["plan_misses"]
            ),
            "cache.plans.evictions_per_op": ratio(
                delta["plan_evictions"], n_ops
            ),
            "cache.fragments.hit_ratio": ratio(
                delta["frag_hits"], delta["frag_hits"] + delta["frag_misses"]
            ),
            "cache.fragments.stale_drops_per_op": ratio(
                delta["frag_stale"], n_ops
            ),
            "gateway.rows_shipped_per_op": ratio(shipped, traced_ops),
            "engine.rows_scanned_per_op": ratio(scanned, traced_ops),
            "engine.rows_scanned_per_row_shipped": ratio(scanned, shipped),
            "txn.aborts_per_op": ratio(delta["aborts"], n_ops),
            "txn.msgs_per_commit": ratio(
                delta["txn_messages"], delta["commits"]
            ),
            "trace.overhead_frac": ratio(
                statistics.fmean(wall_ms(True)),
                statistics.fmean(wall_ms(False)),
            )
            - 1.0,
            "trace.unattributed_frac": ratio(root["self_s"], root["total_s"]),
        }
    )
    if workload.server is not None:
        for kind, fraction in (
            ("read", 0.50),
            ("read", 0.95),
            ("agg", 0.50),
            ("xfer", 0.50),
            ("xfer", 0.95),
        ):
            values[f"server.{kind}_p{fraction * 100:.0f}_ms"] = percentile(
                wall_ms(False, kind), fraction
            )
    values.update({name: entry["value"] for name, entry in simulated.items()})
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and audit_ok,
        "traced_op_ms": ratio(root["total_s"] * 1000.0, traced_ops),
        "metrics": {name: {"value": value} for name, value in values.items()},
    }


def run_one(args) -> int:
    """``--workload``: one run, detail file, contract JSON on the last line."""
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}: {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    ops = cls.smoke_ops if args.smoke else args.ops
    seconds = None if ops is not None else args.seconds
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}.trace{args.trace}.seed{args.seed}"
    if args.trace:
        catalogue = contract = PER_LAYER
        run = run_traced(cls, args.seed, seconds, ops, OUT / f"{stem}.spans.jsonl")
    else:
        catalogue, contract = END_TO_END, CONTRACT_END_TO_END
        setups = 1 if args.smoke else SETUPS
        run = run_untraced(cls, args.seed, seconds, ops, setups)
    for metric in catalogue:
        run["metrics"][metric.name]["unit"] = metric.unit
    run.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        seconds=seconds,
        ops=ops,
        comparable=ops is None,
    )
    (OUT / f"{stem}.json").write_text(json.dumps(run, indent=1) + "\n")
    print_run(run)
    print(
        json.dumps(
            {
                "correct": run["correct"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {
                    metric.name: {
                        "value": run["metrics"][metric.name]["value"],
                        "unit": metric.unit,
                    }
                    for metric in contract
                },
            }
        )
    )
    return 0 if run["correct"] else 1


def print_run(run: dict) -> None:
    """Every metric of one run by name, value and unit.

    A traced run prints its spans as the layer table: one row per span
    with ``<span>.self_ms_per_op``, ``<span>.calls_per_op`` and the self
    time as a share of the mean traced op (shares can add up to more than
    100 %: parallel fetch workers are each busy, or waiting for the GIL,
    inside the same wall interval).
    """
    budget = (
        f"{run['seconds']} s" if run["ops"] is None else f"{run['ops']} ops"
    )
    note = "" if run["comparable"] else "  ** NOT COMPARABLE (fixed op count) **"
    print(
        f"# {run['workload']}  seed={run['seed']}  trace={run['trace']}  "
        f"{budget}  attempted={run['attempted']}  failed={run['failed']}{note}"
    )
    metrics = run["metrics"]
    if run["trace"]:
        op_ms = run["traced_op_ms"]
        print(
            f"  {'span':26s} {'.self_ms_per_op [ms]':>22s} "
            f"{'.calls_per_op [count]':>22s} {'share of op':>12s}"
        )
        for span in SPAN_NAMES:
            self_ms = metrics[f"{span}.self_ms_per_op"]["value"]
            calls = metrics[f"{span}.calls_per_op"]["value"]
            share = self_ms / op_ms if op_ms else 0.0
            print(f"  {span:26s} {self_ms:22.4f} {calls:22.4f} {share:12.1%}")
    for name, entry in metrics.items():
        if name.endswith((".self_ms_per_op", ".calls_per_op")):
            continue
        spread = ""
        if "n" in entry:
            spread += f"  n={entry['n']}"
        if "range" in entry:
            low, high = entry["range"]
            spread += f"  range {low:.4g}..{high:.4g}"
        if "all" in entry:
            spread += f"  all samples {entry['all']:.4g}"
        print(f"  {name:40s} {entry['value']:14.4f} {entry['unit']}{spread}")


# ---------------------------------------------------------------------------
# The whole ledger
# ---------------------------------------------------------------------------


def run_ledger(args) -> int:
    """All six workloads, each run alone in a fresh interpreter."""
    from workloads import WORKLOADS

    ledger = {
        "seed": args.seed,
        "seconds": None if args.smoke else args.seconds,
        "comparable": not args.smoke,
        "workloads": {},
    }
    problems = []
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            command = [
                sys.executable,
                str(HERE / "run.py"),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]  # fmt: skip
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(
                command,
                stdout=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": HASH_SEED},
            )
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
            detail = OUT / f"{name}.trace{trace}.seed{args.seed}.json"
            if done.returncode != 0 or not detail.exists():
                problems.append(f"{name} trace={trace}: run failed")
                continue
            run = json.loads(detail.read_text())
            entry["per_layer" if trace else "end_to_end"] = run["metrics"]
            if trace:
                entry["traced_op_ms"] = run["traced_op_ms"]
            if not run["correct"]:
                problems.append(f"{name} trace={trace}: wrong answers")
        unattributed = (
            entry.get("per_layer", {})
            .get("trace.unattributed_frac", {})
            .get("value", 0.0)
        )
        if unattributed >= MAX_UNATTRIBUTED:
            problems.append(
                f"{name}: trace.unattributed_frac {unattributed:.3f} "
                f">= {MAX_UNATTRIBUTED}"
            )
        ledger["workloads"][name] = entry
    # A smoke result must never pass for the latest comparable one.
    latest = OUT / "smoke.json" if args.smoke else RESULTS / "latest.json"
    latest.parent.mkdir(exist_ok=True)
    latest.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"# wrote {latest.relative_to(HERE.parent.parent)}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    return 1 if problems else 0


def run_compare(paths: list[str]) -> int:
    old, new = (json.loads(pathlib.Path(path).read_text()) for path in paths)
    if not (old.get("comparable") and new.get("comparable")):
        print("# WARNING: a smoke result is not comparable")
    rows = compare(old, new)
    print(
        f"{'workload':16s} {'metric':18s} {'unit':7s} "
        f"{'old':>12s} {'new':>12s} {'change':>8s}  verdict"
    )
    for workload, metric, unit, a, b, change, result in rows:
        print(
            f"{workload:16s} {metric:18s} {unit:7s} "
            f"{a:12.4f} {b:12.4f} {change:+8.1%}  {result}"
        )
    return 1 if any(row[-1] == "worse" for row in rows) else 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            sys.exit("usage: run.py compare OLD.json NEW.json")
        return run_compare(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--ops", type=int, help="ops per client, not seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        # Checked before any result is printed: a directory holding only
        # the benchmark has no program to measure.
        sys.exit(f"no program to measure: {SRC / 'repro'} is missing")
    sys.path[:0] = [str(SRC)]
    if args.workload is None:
        return run_ledger(args)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is salted per process, and the salt alone moves
        # the timings by a few percent; pin it so runs differ by --seed only.
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
