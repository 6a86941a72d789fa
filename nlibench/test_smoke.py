"""Smoke test of the benchmark at reduced size (48-row maps, 200 lines).

    python3 -m pytest nlibench/test_smoke.py
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nlispec.retrieval import load_result_csv, save_result_csv  # noqa: E402


@pytest.fixture(scope="module")
def launcher():
    with run.Launcher() as launcher:
        yield launcher


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(launcher, workload,
                                                        trace):
    res = run.run(launcher, workload, seed=3, seconds=0, trace=trace,
                  small=True)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = run.declared_metrics(trace)
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for spec in declared:
        got = res["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert math.isfinite(got["value"])


def test_gate_trips_on_one_alpha_off_by_1e6(tmp_path):
    inputs = workloads.prepare("demo", 3, str(tmp_path), small=True)
    path = tracing.replay(inputs, str(tmp_path), rep=0)["result"]
    assert workloads.check_result(path, inputs).ok

    res = load_result_csv(path)
    alpha = res.alpha_cm.copy()
    alpha[len(alpha) // 2] += 1e-6
    save_result_csv(path, dataclasses.replace(res, alpha_cm=alpha))
    gate = workloads.check_result(path, inputs)
    assert not gate.ok, gate.detail


def test_failing_cli_child_is_counted_not_fatal(launcher, tmp_path):
    inputs = workloads.prepare("demo", 3, str(tmp_path), small=True)
    broken = tmp_path / "broken.cfg"
    broken.write_text("[crystal]\nno_such_key = 1\n")
    inputs = dataclasses.replace(inputs, config_path=str(broken))
    out = run.measure_cli(launcher, inputs, 0, str(tmp_path),
                          setup=[(0.5, 0.4)])
    assert out["attempted"] == 1 and out["failed"] == 1
    assert "exit 2" in out["log"][-1]
    assert "pipeline_s" not in out["metrics"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "nlibench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "nlibench/run.py", "--workload", "demo", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
