"""The benchmark harness still runs against the package.

``bench/run.py`` and its tracer bind names of ``cllb`` (``sampler.sample``,
``simulate_blocks(...).blocks[*].jitter``, ``build_plan(...).slabs``, ...);
its own self-test, ``bench/test_smoke.py``, is not collected here. One traced
smoke run per workload family catches a package change that breaks those
bindings, at about 2-3 s a run on 2 vCPUs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["lil", "smallball-bm"])
def test_traced_smoke_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
