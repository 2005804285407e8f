"""Smoke test of the closed-loop benchmark: a few steps per workload.

Run from the repository root:  python -m pytest -q bench
"""
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

STEPS = 6


def test_benchmark_json_names_the_workloads():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_step_is_covered_by_spans_and_self_time(name):
    m = run.measure(name, seed=5, seconds=0, trace=True, episodes=1,
                    steps=STEPS)
    assert m.failed == 0 and m.attempted == 2 * STEPS
    assert len(m.plain) == len(m.traced) == 1
    ep = m.traced[0]
    wall, child, screen, _, step_of = run.step_breakdown(ep)
    marks = np.asarray(ep.marks)
    assert len(wall) == STEPS
    # top-level spans lie inside their step and do not overlap, so
    # child spans + screen timer + self time add up to the step's wall time
    last_end = -np.inf
    for s, k in zip(ep.spans, step_of):
        if s.parent != -1 or k < 0:
            continue
        assert marks[k] <= s.start <= s.end <= marks[k + 1]
        assert s.start >= last_end
        last_end = s.end
    self_s = wall - child - screen
    assert np.all(self_s >= 0.0)
    np.testing.assert_allclose(child + screen + self_s, wall, rtol=1e-12)
    layers = run.per_layer(m, run.end_to_end(m)["step_p50_us"])
    assert layers["harness.step_self_us"] > 0.0


def test_cli_prints_every_metric_with_its_unit(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "EPISODES", 1)
    monkeypatch.setattr(run, "STEPS", STEPS)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    e2e_units, layer_units = run.declared_metrics()
    for trace, units in ((0, e2e_units), (1, layer_units)):
        assert run.main(["--workload", "all", "--seed", "7", "--seconds", "0",
                         "--trace", str(trace)]) == 0
        lines = capsys.readouterr().out.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] > 0
        want = {f"{w}/{k}": u for w in run.WORKLOADS for k, u in units.items()}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
        for w in run.WORKLOADS:
            assert f"{w} fail_frac 0 (0 of " in "\n".join(lines)
        assert sum(line.startswith("derived (ungated)") for line in lines) == 2
    assert any("step split" in line for line in lines)
    assert len(list(tmp_path.glob("spans-*.csv"))) == len(run.WORKLOADS)


def test_exits_nonzero_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in (run.ROOT / "bench").glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "thermal-nominal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
