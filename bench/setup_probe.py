"""Set-up a user pays in a fresh process: import the CLI, make first calls.

Run as ``python3 bench/setup_probe.py SCRATCH_DIR``; the benchmark times
the whole process. ``warm_up`` makes the first call of every kernel the
workloads use (numba compiles on first call when it is the backend) through
two tiny ``cllb sample`` commands; ``run.py`` calls it in-process too, so
that timed CLI calls start warm.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def warm_up(scratch: Path) -> None:
    import numpy as np

    from cllb import _kernels, cli

    out = str(scratch / "warm_up.bin")
    for process in ("fbm", "sfhe"):
        argv = ["sample", "--process", process, "--grid-points", "16", "--count", "4",
                "--format", "bin", "--out", out]
        if cli.main(argv) != 0:
            raise RuntimeError(f"warm-up command failed: cllb {' '.join(argv)}")
    _kernels.row_max_abs(np.ones((4, 16)))


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    import cllb.cli  # noqa: F401  (the import is the set-up being timed)

    warm_up(Path(sys.argv[1]))
