"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root: ``python3 -m pytest -q bench/test_smoke.py``
(about a minute; the tier-1 suite does not collect it).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_prints_checked_result(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert all(line.startswith("#") for line in lines[:-1])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        # layers a workload does not call read 0
        assert (values["covariance.psd_certificate_s"] > 0.0) == (workload == "sample-sfhe")
        assert (values["lil.slabs"] > 0) == (workload == "lil")
        assert values["sampler.factorizations"] >= 1
    else:
        assert all(v > 0.0 for v in values.values())
    record = json.loads(next(l for l in lines if l.startswith("# record "))[len("# record "):])
    assert record["host"]["seed"] == 3 and record["host"]["backend"] in ("numpy", "numba")


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_tracer_restores_bindings():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        from cllb import cli, lil, sampler
        from tracer import Tracer

        before = (sampler.sample, lil.sample, cli.sample, sampler.factorize)
        with Tracer().installed():
            assert lil.sample is not before[1] and lil.sample is sampler.sample
        assert (sampler.sample, lil.sample, cli.sample, sampler.factorize) == before
    finally:
        del sys.path[:2]
