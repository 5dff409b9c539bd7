"""The three canonical CLI commands the benchmark runs, and their output checks.

Each workload turns the benchmark seed into CLI arguments (the program sees
only those) and checks the artifact one call writes. ``smoke=True`` shrinks
the sizes for the harness self-test; the commands stay the same.

Checks gate ``correct``/``failed``. ``oracle_abs_z`` is reported beside
them and gates nothing: the small-ball estimate is the grid-max probability,
which sits above the continuous-sup series value by a known bias.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SMALLBALL_EPSILONS = (0.68, 0.6, 0.55, 0.5, 0.45, 0.4, 0.3)
ORACLE_EPSILONS = (0.5, 0.4)
LIL_N_MAX = 26


@dataclass
class Outcome:
    """Checks of one artifact: ``checks`` maps name -> (passed, detail)."""

    checks: dict
    oracle_abs_z: float | None = None
    hits: list | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    artifact: str
    argv: Callable[[int, Path, bool], list]
    check: Callable[[Path, bool], Outcome]


def _read_csv(path: Path):
    """Leading/trailing ``# key = value`` comments, column names, float rows."""
    comments, body = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep:
                comments[key.strip()] = value.strip()
        elif line:
            body.append(line)
    columns = body[0].split(",")
    data = np.loadtxt(body[1:], delimiter=",", ndmin=2)
    return comments, columns, data


# ---------------------------------------------------------------------------
# smallball-bm: Brownian fixture, criterion-5 shape at reduced count
# ---------------------------------------------------------------------------

def _smallball_sizes(smoke: bool):
    return (256, 10_000) if smoke else (4096, 10_000)


def _smallball_argv(seed: int, out: Path, smoke: bool) -> list:
    grid, count = _smallball_sizes(smoke)
    return [
        "smallball", "--process", "fbm", "--hurst-index", "0.5",
        "--grid-size", str(grid), "--epsilons", ",".join(map(str, SMALLBALL_EPSILONS)),
        "--count", str(count), "--seed", str(seed), "--out", str(out),
    ]


def _smallball_check(path: Path, smoke: bool) -> Outcome:
    from cllb.smallball import bm_small_ball_prob

    _, count = _smallball_sizes(smoke)
    comments, columns, data = _read_csv(path)
    col = {name: data[:, k] for k, name in enumerate(columns)}
    hits = np.rint(col["prob"] * count).astype(np.int64)
    usable = int(((hits > 0) & (hits < count)).sum())
    exponent = float(comments.get("fit_exponent", "nan"))
    exponent_se = float(comments.get("fit_exponent_stderr", "nan"))
    # 2 +- 10% is the criterion-5 band at 20x this count; at 10^4 paths the
    # fit's own standard error (~0.055) is a quarter of the band, so the
    # band is widened by 3 of them rather than failing on sampling noise
    exponent_tol = 0.2 + 3.0 * exponent_se
    z = []
    for eps in ORACLE_EPSILONS:
        k = int(np.argmin(np.abs(col["epsilon"] - eps)))
        p = bm_small_ball_prob(eps)
        z.append((col["prob"][k] - p) / math.sqrt(p * (1.0 - p) / count))
    checks = {
        "rows": (len(hits) == len(SMALLBALL_EPSILONS), f"{len(hits)} epsilons"),
        "hits_nonincreasing": (bool(np.all(np.diff(hits) <= 0)), f"hits {hits.tolist()}"),
        "usable_points_ge_4": (usable >= 4, f"{usable} usable"),
        "fit_exponent_near_2": (
            abs(exponent - 2.0) <= exponent_tol,
            f"exponent {exponent:.4f} +- {exponent_se:.4f}, allowed 2 +- {exponent_tol:.3f}",
        ),
    }
    return Outcome(checks, oracle_abs_z=max(abs(v) for v in z), hits=hits.tolist())


# ---------------------------------------------------------------------------
# sample-sfhe: heat-field ensemble on a 4096 grid, binary dump
# ---------------------------------------------------------------------------

def _sample_sizes(smoke: bool):
    return (64, 256) if smoke else (4096, 2048)


def _sample_argv(seed: int, out: Path, smoke: bool) -> list:
    grid, count = _sample_sizes(smoke)
    return [
        "sample", "--process", "sfhe", "--grid-points", str(grid), "--count", str(count),
        "--format", "bin", "--seed", str(seed), "--out", str(out),
    ]


def _sample_check(path: Path, smoke: bool) -> Outcome:
    from cllb.params import ModelParams, derive

    grid, count = _sample_sizes(smoke)
    with open(path, "rb") as fh:
        magic = fh.read(4)
        (version,) = struct.unpack("<I", fh.read(4))
        rows, cols = struct.unpack("<QQ", fh.read(16))
        values = np.fromfile(fh, dtype="<f8")
    shape_ok = (magic, version, rows, cols) == (b"CLLB", 1, count, grid) and values.size == rows * cols
    checks = {"header": (shape_ok, f"magic {magic!r} v{version} rows {rows} cols {cols}")}
    if not shape_ok:
        return Outcome(checks)
    checks["finite"] = (bool(np.isfinite(values).all()), f"{values.size} values")
    # column-major: the last `rows` values are the paths at t = grid_end = 1,
    # where Var u(1) = c21; E[u] = 0 so the second moment is the variance
    c21 = derive(ModelParams(alpha=2.0, hurst=0.5, beta=1.0)).c21
    last = values[(cols - 1) * rows:]
    z = (float(np.mean(last * last)) - c21) / (c21 * math.sqrt(2.0 / rows))
    checks["variance_t1_within_5se"] = (abs(z) <= 5.0, f"z = {z:+.3f} against c21 = {c21:.6g}")
    return Outcome(checks, oracle_abs_z=abs(z))


# ---------------------------------------------------------------------------
# lil: localization harness with the internal lambda fit
# ---------------------------------------------------------------------------

def _lil_count(smoke: bool) -> int:
    return 50 if smoke else 2000


def _lil_argv(seed: int, out: Path, smoke: bool) -> list:
    argv = ["lil", "--count", str(_lil_count(smoke)), "--seed", str(seed), "--out", str(out)]
    if smoke:
        argv += ["--fit-count", "10000", "--fit-grid-size", "256"]
    return argv


def _lil_check(path: Path, smoke: bool) -> Outcome:
    comments, columns, data = _read_csv(path)
    summary = json.loads(comments["summary"])
    count = _lil_count(smoke)
    slabs = LIL_N_MAX - 1
    checks = {
        "median_within_bracket": (
            summary["median_within_bracket"] is True,
            f"median {summary['median_running_min_un']:.4g} in {summary['bracket']}",
        ),
        "n_max_26": (summary["n_max"] == LIL_N_MAX, f"n_max {summary['n_max']}"),
        "rows": (data.shape[0] == count * slabs, f"{data.shape[0]} rows"),
    }
    if data.shape[0] != count * slabs:
        return Outcome(checks)
    col = {name: data[:, k].reshape(count, slabs) for k, name in enumerate(columns)}
    monotone = all(
        np.array_equal(col[run], np.minimum.accumulate(col[sup], axis=1))
        for run, sup in (("running_min_un", "sup_un_over_psi"), ("running_min_u", "sup_u_over_psi"))
    )
    checks["running_min_monotone"] = (monotone, "running minima equal prefix minima")
    slack = col["sup_u_over_psi"] - (col["sup_un_over_psi"] + col["sup_yn_over_psi"]) * (1 + 1e-12)
    checks["triangle_inequality"] = (
        bool(np.all(slack <= 0.0)),
        f"max sup|u| - (sup|u_n| + sup|y_n|) = {float(slack.max()):.3g}",
    )
    return Outcome(checks)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("smallball-bm", "smallball.csv", _smallball_argv, _smallball_check),
        Workload("sample-sfhe", "paths.bin", _sample_argv, _sample_check),
        Workload("lil", "lil.csv", _lil_argv, _lil_check),
    )
}
