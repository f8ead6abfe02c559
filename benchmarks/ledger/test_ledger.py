"""Self-checks of the ledger harness (not part of tier-1).

    python -m pytest benchmarks/ledger/test_ledger.py -q

Everything here runs at smoke size: fixed op counts of about 2 % of a
full run, so the timings mean nothing and only names, counts, determinism
and the harness's own invariants are asserted.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SINGLE_CLIENT = [name for name, cls in WORKLOADS.items() if cls.clients == 1]


def _stream_text(name: str, seed: int, count: int = 40) -> list[str]:
    workload = WORKLOADS[name](seed)
    workload.system = workload.build()
    try:
        workload.prepare()
        return [
            op.text()
            for client in range(workload.clients)
            for op in itertools.islice(workload.stream(client), count)
        ]
    finally:
        workload.system.close()


def test_benchmark_json_lists_the_catalogue():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }  # fmt: skip
    assert contract["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in contract["end_to_end"]
    ] == [
        (m.name, m.unit, m.better, m.bound)
        for m in metrics.CONTRACT_END_TO_END
    ]
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == [(m.name, m.unit, m.better) for m in metrics.PER_LAYER]


@pytest.fixture(scope="module")
def smoke_ledger():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "5"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "NOT COMPARABLE" in done.stdout
    return json.loads((run.OUT / "smoke.json").read_text())


def test_smoke_reports_every_metric_with_a_unit(smoke_ledger):
    assert smoke_ledger["comparable"] is False
    assert list(smoke_ledger["workloads"]) == list(WORKLOADS)
    for name, entry in smoke_ledger["workloads"].items():
        for section, catalogue in (
            ("end_to_end", metrics.END_TO_END),
            ("per_layer", metrics.PER_LAYER),
        ):
            reported = entry[section]
            assert list(reported) == [m.name for m in catalogue], name
            for metric in catalogue:
                assert reported[metric.name]["unit"] == metric.unit
        assert entry["end_to_end"]["failed_frac"]["value"] == 0.0


def test_trace_bears_out_the_workload_design(smoke_ledger):
    layer = {
        name: {k: v["value"] for k, v in entry["per_layer"].items()}
        for name, entry in smoke_ledger["workloads"].items()
    }
    assert layer["hot_read"]["gateway.query.calls_per_op"] == 0
    assert layer["point_lookup"]["gateway.query.calls_per_op"] >= 3.5
    for metric, value in layer["transfer_2pc"].items():
        if metric.startswith(("query.", "schema.", "cache.")):
            assert value == 0, metric
    assert layer["join_ship"]["query.semijoin_fetches_per_op"] == 0
    assert layer["semijoin_join"]["query.semijoin_fetches_per_op"] == 1
    for name, values in layer.items():
        served = values["server.execute.calls_per_op"] > 0
        assert served == (name == "mixed_sessions")
        assert values["trace.unattributed_frac"] < metrics.MAX_UNATTRIBUTED

    def heaviest(name: str) -> str:
        selfs = {
            k: v for k, v in layer[name].items() if k.endswith(".self_ms_per_op")
        }
        return max(selfs, key=selfs.get)

    assert heaviest("point_lookup") == "engine.execute.self_ms_per_op"
    assert heaviest("hot_read").startswith(("cache.", "query."))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_fixes_the_stream_and_changes_only_literals(name):
    first = _stream_text(name, seed=1)
    assert first == _stream_text(name, seed=1)
    other = _stream_text(name, seed=2)
    assert other != first

    def shape(lines):
        return [re.sub(r"\d+(\.\d+)?", "?", line) for line in lines]

    assert shape(other) == shape(first)


@pytest.mark.parametrize("name", SINGLE_CLIENT)
def test_simulated_metrics_repeat_exactly(name):
    cls = WORKLOADS[name]
    runs = [
        run.run_untraced(cls, 3, None, cls.smoke_ops, setups=1)
        for _ in range(2)
    ]
    for result in runs:
        assert result["correct"] and result["failed"] == 0
    for metric in metrics.SIMULATED:
        first, second = (r["metrics"][metric]["value"] for r in runs)
        assert first == second, metric


def test_injected_wrong_answer_raises_failed_frac():
    class Corrupted(WORKLOADS["hot_read"]):
        def execute(self, op):
            result = super().execute(op)
            if op.kind == "agg":
                result.rows.pop()
            return result

    result = run.run_untraced(Corrupted, 0, None, 32, setups=1)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["failed_frac"]["value"] > 0


def test_recorder_restores_every_attribute():
    import importlib
    from concurrent.futures import ThreadPoolExecutor

    def current():
        found = [ThreadPoolExecutor.submit]
        for module_name, path, _, _ in tracing.SPAN_POINTS:
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                owner = getattr(owner, part)
            found.append(owner)
        return found

    before = current()
    recorder = tracing.Recorder()
    recorder.install()
    assert all(a is not b for a, b in zip(before, current()))
    recorder.uninstall()
    assert all(a is b for a, b in zip(before, current()))


def test_self_time_counts_overlapping_children_once():
    Span = tracing.Span
    spans = [
        Span(1, 0, 1, "op", 0.0, 10.0, 0),
        Span(2, 1, 1, "query.execute", 1.0, 9.0, 0),
        # Two fetch workers overlapping under one parent.
        Span(3, 2, 1, "gateway.query", 2.0, 6.0, 5),
        Span(4, 2, 1, "gateway.query", 4.0, 8.0, 7),
    ]
    summary = tracing.summarise(spans)
    assert summary["op"]["self_s"] == pytest.approx(2.0)
    assert summary["query.execute"]["self_s"] == pytest.approx(2.0)
    assert summary["gateway.query"]["self_s"] == pytest.approx(8.0)
    assert summary["gateway.query"]["count"] == 12


def test_compare_verdicts(tmp_path):
    p50 = next(m for m in metrics.END_TO_END if m.name == "wall_p50_ms")

    def timing(value, low, high):
        return {"value": value, "range": [low, high]}

    base = timing(8.0, 7.9, 8.1)
    assert metrics.verdict(p50, "w", base, timing(8.3, 8.2, 8.4)) == "unchanged"
    assert metrics.verdict(p50, "w", base, timing(10.5, 10.4, 10.6)) == "worse"
    assert metrics.verdict(p50, "w", base, timing(5.5, 5.4, 5.6)) == "better"
    assert metrics.verdict(p50, "w", base, timing(10.5, 8.0, 12.0)) == "unresolved"
    assert metrics.verdict(p50, "w", base, timing(8.1, 6.0, 10.0)) == "unresolved"
    failed = next(m for m in metrics.END_TO_END if m.name == "failed_frac")
    assert metrics.verdict(failed, "w", {"value": 0.0}, {"value": 0.01}) == "worse"
    sim = next(m for m in metrics.END_TO_END if m.name == "sim_ms_per_op")
    old, new = {"value": 10.0}, {"value": 10.3}
    assert metrics.verdict(sim, "point_lookup", old, new) == "worse"
    assert metrics.verdict(sim, "mixed_sessions", old, new) == "unchanged"

    def ledger(p50_value):
        entry = {m.name: {"value": 1.0} for m in metrics.END_TO_END}
        entry["wall_p50_ms"] = timing(p50_value, p50_value, p50_value)
        return {"comparable": True, "workloads": {"w": {"end_to_end": entry}}}

    paths = []
    for label, value in (("a", 8.0), ("b", 10.5)):
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps(ledger(value)))
    command = [sys.executable, str(HERE / "run.py"), "compare"]
    same = subprocess.run(command + [str(paths[0])] * 2, capture_output=True)
    assert same.returncode == 0
    worse = subprocess.run(
        command + [str(p) for p in paths], capture_output=True, text=True
    )
    assert worse.returncode == 1 and "worse" in worse.stdout
