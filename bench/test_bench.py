"""Self-tests of the benchmark: span arithmetic, output checks, tiny workloads.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
from tracing import SpanRecorder
from workloads import BacktestLong, CheckError, ClosedForm, McMa, McStatic, strict_json

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = [McStatic(paths=200), McMa(paths=10), BacktestLong(rows=500),
        ClosedForm(n_mu=3, horizons=4, k_step=10)]


def test_self_times_of_a_hand_built_tree():
    rec = SpanRecorder()
    root = rec.add("root", -1, 0.0, 10.0)
    a = rec.add("a", root, 1.0, 4.0)
    rec.add("a1", a, 2.0, 3.0)
    rec.add("b", root, 3.0, 6.0)  # overlaps a: the union [1, 6] counts once
    rec.add("c", root, 8.0, 12.0)  # runs past its parent: clipped to [8, 10]
    assert rec.self_times() == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])
    assert rec.totals()["a"] == (1, pytest.approx(2.0))


def test_self_times_of_nested_calls_sum_to_the_root():
    rec = SpanRecorder()
    leaf = rec.wrap("leaf", lambda n: sum(range(n)), ("leaf.items", lambda a, k, r: a[0]))

    def middle():
        return [leaf(20_000) for _ in range(3)]

    middle = rec.wrap("middle", middle)
    root = rec.wrap("root", lambda: (middle(), leaf(5)))
    root()
    totals = rec.totals()
    assert {name: calls for name, (calls, _) in totals.items()} == {"root": 1, "middle": 1, "leaf": 4}
    assert rec.counters["leaf.items"] == 60_005
    assert sum(s for _, s in totals.values()) == pytest.approx(rec.end[0] - rec.start[0], abs=1e-12)
    assert rec.parent.tolist() == [-1, 0, 1, 1, 1, 0]


def test_strict_json_rejects_non_finite_values(tmp_path):
    for token in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "out.json"
        path.write_text(f'{{"mean_gain": {token}}}')
        with pytest.raises(CheckError):
            strict_json(path)


def test_checks_reject_a_wrong_monte_carlo_mean(tmp_path):
    workload = McStatic(paths=200)
    workload.prepare(tmp_path, seed=1)
    exact = workload.exact_mean()
    row = {"mu_star": 0.3, "n_paths": 200, "seed": 2000, "std_error": 1e-3}
    for shift, ok in ((4e-3, True), (6e-3, False)):
        (tmp_path / "simulate.json").write_text(
            json.dumps({"results": [{**row, "mean_gain": exact + shift}]}))
        if ok:
            workload.check(tmp_path, 0)
        else:
            with pytest.raises(CheckError):
                workload.check(tmp_path, 0)


def test_ledger_flags_outputs_that_change_between_identical_calls(tmp_path):
    ledger = run.Ledger()
    (tmp_path / "a.json").write_text("1")
    ledger.record(("key",), True, "", tmp_path)
    ledger.record(("key",), True, "", tmp_path)
    assert ledger.errors == []
    (tmp_path / "a.json").write_text("2")
    ledger.record(("key",), True, "", tmp_path)
    assert (ledger.attempted, ledger.failed, len(ledger.errors)) == (3, 1, 1)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_tiny_workload_end_to_end(workload):
    ledger, result = run.run_end_to_end(workload, seed=5, seconds=0, holdout_seed=6)
    assert ledger.errors == []
    assert ledger.attempted == run.MIN_INVOCATIONS + 2
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(math.isfinite(value) for value, _ in metrics.values())
    assert metrics["wall_s"][0] > metrics["setup_s"][0] > 0
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        {name: unit for name, (_, unit) in metrics.items()}


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_tiny_workload_traced(workload):
    ledger, result = run.run_traced(workload, seed=5, seconds=0)
    assert ledger.errors == []
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    self_sum = sum(v for name, (v, _) in metrics.items() if name.endswith("self_s"))
    assert self_sum == pytest.approx(metrics["cli.main.s"][0], rel=1e-9)
    assert metrics["cli.output_bytes"][0] > 0
    assert (run.ROOT / ".bench_work" / f"{workload.name}-seed5" / "spans.csv").is_file()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-static", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
