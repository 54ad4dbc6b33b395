"""Smoke test of the benchmark: every workload once at its smallest size.

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``.
Each run must pass its checks, make every check its workload declares,
print every end-to-end figure with its unit and end with the JSON result
that ``BENCHMARK.json`` describes.  One traced run covers the per-layer
metrics.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return lines, result


def _declared(metrics, section):
    return {m["name"]: m["unit"] for m in SPEC[section]} == {
        k: v["unit"] for k, v in metrics.items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_tiny(workload):
    lines, result = _run(workload, 0)
    assert _declared(result["metrics"], "end_to_end")
    assert all(isinstance(v["value"], float)
               for v in result["metrics"].values())
    for name, unit in run.E2E_UNITS.items():
        assert any(ln.split()[:1] == [name] and ln.rstrip().endswith(unit)
                   for ln in lines), f"{name} not reported with {unit}"
    ran = {p[1]: int(p[3]) for p in (ln.split() for ln in lines)
           if p[:1] == ["check"]}
    declared = set(workloads.WORKLOADS[workload].checks)
    assert declared and all(ran.get(c, 0) >= 1 for c in declared), ran


def test_traced_run_reports_every_layer():
    lines, result = _run("santalo-grid", 1)
    assert _declared(result["metrics"], "per_layer")
