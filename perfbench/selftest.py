"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the repository's test collection (the file name does not match
test_*.py) because the smoke runs take about half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads as wl  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_MAP = json.loads((HERE / "metrics.json").read_text())


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    res = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, res.stderr
    want = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_metric_map_covers_benchmark():
    for section in ("end_to_end", "per_layer"):
        assert set(METRIC_MAP[section]) == {m["name"] for m in BENCH[section]}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_ops(workload):
    first = wl.first_ops(workload, 5, 300)
    assert [op.argv for op in first] == [op.argv for op in wl.first_ops(workload, 5, 300)]
    assert [op.argv for op in first] != [op.argv for op in wl.first_ops(workload, 6, 300)]


def _function_bindings() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "gammapower" or name.startswith("gammapower.")
        for attr, value in vars(mod).items() if callable(value)
    }


def test_traced_run_restores_every_function():
    from gammapower import cli, families, specfun

    before = _function_bindings()
    tracer = Tracer()
    with pytest.raises(RuntimeError), tracer:
        assert families.digamma.__wrapped__ is specfun.digamma.__wrapped__
        for op in wl.first_ops("solve", 1, 7) + wl.first_ops("evaluate", 1, 3):
            cli.main(list(op.argv))
        raise RuntimeError("an op that fails must not leave wrappers behind")
    after = _function_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    spans = tracer.arrays()
    layers = {tracer.names[i].split(".")[0] for i in set(spans["name"].tolist())}
    assert layers == set(LAYERS) - {"certify"}


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = _run(["--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert res.returncode != 0
    assert res.stdout.strip() == ""


def test_pace_scales_by_the_loop_time_around_each_sample():
    from pace import PACE_MS, Pace

    pace = Pace()
    # The loop took 1 ms for the first 10 s and 2 ms after that.
    pace.start = [i * 0.1 for i in range(200)]
    pace.took = [1e-3 if t < 10.0 else 2e-3 for t in pace.start]
    fast, slow = pace.at_pace([(5.0, 0.01), (15.0, 0.02)])
    assert fast == pytest.approx(10 * PACE_MS * 1e-3)
    assert slow == pytest.approx(fast)
