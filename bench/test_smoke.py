"""Smoke test of the benchmark itself: tiny runs of every workload.

    python3 -m pytest -q bench/test_smoke.py

Checks that each run is correct and emits every metric BENCHMARK.json
names, with its unit, and that the benchmark refuses to run without
the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--max-ops", "2"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    res = _run(ROOT, workload, trace)
    assert res.returncode == 0, res.stderr
    last = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True, res.stdout
    assert last["attempted"] >= 1
    assert 0 <= last["failed"] <= last["attempted"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if not trace:
        assert all(v["value"] >= 0 for v in last["metrics"].values())
        for name in ("setup_s", "peak_rss_mb", "paced_op_ms.p50"):
            assert last["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
