"""Self-test of the benchmark: ``python3 -m pytest -q perfbench``.

Runs every workload once at ``--tiny`` size in both modes and checks the
result against ``BENCHMARK.json``; checks that a seed fixes the inputs.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and np.isfinite(m["value"]), name
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] != 0 for m in wanted)
        return
    trace_file = ROOT / "perfbench" / "out" / f"{workload}-seed3-trace1.trace.json"
    stats = subprocess.run(
        [sys.executable, "-m", "repro", "stats", str(trace_file)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert stats.returncode == 0, stats.stderr
    assert "stage.backends" in stats.stdout and "stage.roi" in stats.stdout


def test_seed_fixes_the_inputs():
    a = inputs.archive_fields(5, tiny=True)
    b = inputs.archive_fields(5, tiny=True)
    c = inputs.archive_fields(6, tiny=True)
    assert all(np.array_equal(x.data, y.data) for x, y in zip(a, b))
    assert not any(np.array_equal(x.data, z.data) for x, z in zip(a, c))
    s5 = inputs.service_fields(5, tiny=True)
    assert all(np.array_equal(x.data, y.data)
               for x, y in zip(s5, inputs.service_fields(5, tiny=True)))
    assert not np.array_equal(s5[0].data, inputs.service_fields(6, tiny=True)[0].data)
    draws = [[inputs.draw_slab(inputs.slab_rng(s), 128) for _ in range(8)]
             for s in (5, 5, 6)]
    assert draws[0] == draws[1] != draws[2]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(tmp_path, WORKLOADS[0], 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
