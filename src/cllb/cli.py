"""Batch command-line front door.

Subcommands: ``constants``, ``cov-verify``, ``sample``, ``smallball``,
``lil``. All file outputs are CSV-dialect text (comma separated, ``.``
decimal) whose first lines are ``#``-prefixed comments carrying the package
version, the fully resolved configuration and the seed, so every artifact is
reproducible from its own header.

Configuration precedence: command-line flag > config file (flat
``key = value`` text, ``#`` comments; booleans are ``true`` or ``false``)
> built-in default. ``--workers`` falls back to the ``CLLB_WORKERS``
environment variable.

Exit codes: 0 success, 1 usage, 2 parameter/validation error, 3 numerical
failure. Errors print one machine-readable line to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import struct
import sys
from pathlib import Path

import numpy as np

from . import __version__, lil, smallball
from .covariance import TimeGrid, build_cov_matrix, cov_closed, cov_quadrature
from .errors import DomainError, NumericalError, ParameterError
from .params import ModelParams, derive, validate
from .sampler import FbmSpec, sample, sample_fbm

_USAGE_EXIT = 1
_VALIDATION_EXIT = 2
_NUMERICAL_EXIT = 3

_BIN_MAGIC = b"CLLB"
_BIN_VERSION = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; usage must be 1
        raise _UsageError(message)


def _emit_error(kind: str, detail: str) -> None:
    sys.stderr.write(f'cllb-error kind={kind} detail="{detail}"\n')


def _load_config(path: str) -> dict:
    """Flat ``key = value`` config file; keys use flag spelling with - or _."""
    config = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"config line is not 'key = value': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        config[key.replace("-", "_")] = value
    return config


def _resolve(args: argparse.Namespace, spec: dict) -> dict:
    """Apply flag > config > default precedence and convert types."""
    config = _load_config(args.config) if getattr(args, "config", None) else {}
    spec = dict(spec, workers=(int, None))
    resolved = {}
    for key, (cast, default) in spec.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in config:
            resolved[key] = cast(config[key])
        else:
            resolved[key] = default
    extra = set(config) - set(spec)
    if extra:
        raise ParameterError(f"unknown config keys: {sorted(extra)}")
    return resolved


def _resolve_workers(resolved: dict) -> int:
    """Flag/config value, then the CLLB_WORKERS environment, then 0.

    0, the default, runs serially like 1; it does not pick a thread count.
    """
    if resolved.get("workers") is not None:
        return int(resolved["workers"])
    env = os.environ.get("CLLB_WORKERS", "").strip()
    return int(env) if env else 0


def _bool(text: str) -> bool:
    """Config-file boolean: ``true`` or ``false`` in any case, nothing else."""
    value = text.lower()
    if value not in ("true", "false"):
        raise ParameterError(f"boolean config value must be true or false, got {text!r}")
    return value == "true"


def _float_list(text: str) -> list:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _header_lines(subcommand: str, resolved: dict) -> list:
    lines = [f"# cllb {__version__}", f"# subcommand = {subcommand}"]
    for key in sorted(resolved):
        value = resolved[key]
        if isinstance(value, (list, tuple, np.ndarray)):
            value = ",".join(_fmt(v) for v in value)
        lines.append(f"# {key} = {_fmt(value)}")
    return lines


def _write_text(out, lines) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _model_params(resolved: dict) -> ModelParams:
    return validate(
        ModelParams(alpha=resolved["alpha"], hurst=resolved["hurst"], beta=resolved["beta"])
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_constants(args) -> int:
    spec = {
        "alpha": (float, 2.0),
        "hurst": (float, 0.5),
        "beta": (float, 1.0),
        "out": (str, None),
    }
    resolved = _resolve(args, spec)
    consts = derive(_model_params(resolved))
    body = [
        f"theta = {_fmt(consts.theta)}",
        f"c_h = {_fmt(consts.c_h)}",
        f"c21 = {_fmt(consts.c21)}",
        f"kappa = {_fmt(consts.kappa)}",
    ]
    if resolved["out"]:
        _write_text(resolved["out"], _header_lines("constants", resolved) + body)
    else:
        _write_text(None, body)
    return 0


def _cmd_cov_verify(args) -> int:
    spec = {
        "alpha": (float, 2.0),
        "hurst": (float, 0.5),
        "beta": (float, 1.0),
        "grid": (int, 10),
        "rel_tol": (float, 1e-8),
        "out": (str, None),
    }
    resolved = _resolve(args, spec)
    params = _model_params(resolved)
    consts = derive(params)
    g = resolved["grid"]
    times = np.arange(1, g + 1) / g
    lines = _header_lines("cov-verify", resolved)
    lines.append("alpha,H,s,t,closed,quadrature,rel_err")
    for s in times:
        for t in times:
            closed = cov_closed(s, t, consts)
            quad = cov_quadrature(s, t, params, rel_tol=resolved["rel_tol"])
            rel = abs(closed - quad) / abs(quad) if quad != 0.0 else abs(closed)
            lines.append(
                f"{_fmt(params.alpha)},{_fmt(params.hurst)},{_fmt(float(s))},"
                f"{_fmt(float(t))},{_fmt(closed)},{_fmt(quad)},{_fmt(rel)}"
            )
    _write_text(resolved["out"], lines)
    return 0


def _build_grid(resolved: dict) -> TimeGrid:
    kind = resolved["grid_kind"]
    if kind == "explicit":
        if not resolved["grid_list"]:
            raise ParameterError("grid-kind=explicit requires --grid-list")
        return TimeGrid(np.array(resolved["grid_list"], dtype=np.float64))
    if kind == "uniform":
        return TimeGrid.uniform(resolved["grid_start"], resolved["grid_end"], resolved["grid_points"])
    if kind == "geometric":
        return TimeGrid.geometric(resolved["grid_start"], resolved["grid_end"], resolved["grid_points"])
    raise ParameterError(f"unknown grid kind {kind!r}")


def _write_binary(path: str, paths: np.ndarray) -> None:
    rows, cols = paths.shape
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write(struct.pack("<I", _BIN_VERSION))
        fh.write(struct.pack("<QQ", rows, cols))
        fh.write(np.asfortranarray(paths, dtype="<f8").tobytes(order="F"))


def _cmd_sample(args) -> int:
    spec = {
        "process": (str, "sfhe"),
        "alpha": (float, 2.0),
        "hurst": (float, 0.5),
        "beta": (float, 1.0),
        "hurst_index": (float, 0.5),
        "grid_kind": (str, "uniform"),
        "grid_start": (float, None),
        "grid_end": (float, 1.0),
        "grid_points": (int, 64),
        "grid_list": (_float_list, None),
        "count": (int, 100),
        "seed": (int, 0),
        "format": (str, "csv"),
        "out": (str, None),
    }
    resolved = _resolve(args, spec)
    if resolved["grid_start"] is None:
        resolved["grid_start"] = resolved["grid_end"] / resolved["grid_points"]
    grid = _build_grid(resolved)
    workers = _resolve_workers(resolved)
    if resolved["process"] == "fbm":
        ens = sample_fbm(
            FbmSpec(hurst_index=resolved["hurst_index"], grid=grid),
            resolved["count"],
            resolved["seed"],
            workers=workers,
        )
    elif resolved["process"] == "sfhe":
        consts = derive(_model_params(resolved))
        cov = build_cov_matrix(grid, consts, check_psd=False)
        ens = sample(cov, resolved["count"], resolved["seed"], workers=workers)
    else:
        raise ParameterError(f"process must be sfhe or fbm, got {resolved['process']!r}")

    if resolved["format"] == "bin":
        if not resolved["out"]:
            raise _UsageError("binary output requires --out")
        _write_binary(resolved["out"], ens.paths)
        return 0
    if resolved["format"] != "csv":
        raise ParameterError(f"format must be csv or bin, got {resolved['format']!r}")
    lines = _header_lines("sample", resolved)
    lines.append("# columns = one row per path, one value per grid time")
    lines.append("# grid = " + ",".join(_fmt(float(t)) for t in grid.points))
    if ens.jitter:
        lines.append(f"# jitter = {_fmt(ens.jitter)}")
    for row in ens.paths:
        lines.append(",".join(_fmt(float(v)) for v in row))
    _write_text(resolved["out"], lines)
    return 0


def _smallball_run(resolved: dict, workers: int):
    epsilons = resolved["epsilons"]
    if resolved["process"] == "fbm":
        if epsilons is None:
            epsilons = smallball.geometric_epsilons(1.3, 0.85, 8)
        curve = smallball.estimate_curve_fbm(
            resolved["hurst_index"], epsilons, resolved["count"], resolved["grid_size"],
            resolved["seed"], workers=workers,
        )
        theta = resolved["hurst_index"]
        consts = None
    elif resolved["process"] == "sfhe":
        consts = derive(
            validate(ModelParams(resolved["alpha"], resolved["hurst"], resolved["beta"]))
        )
        if epsilons is None:
            scale = math.sqrt(consts.c21)
            epsilons = smallball.geometric_epsilons(2.0 * scale, 0.9, 8)
        curve = smallball.estimate_curve_sfhe(
            consts, epsilons, resolved["count"], resolved["grid_size"],
            resolved["seed"], workers=workers,
        )
        theta = consts.theta
    else:
        raise ParameterError(f"process must be sfhe or fbm, got {resolved['process']!r}")
    return curve, theta, consts


def _cmd_smallball(args) -> int:
    spec = {
        "process": (str, "sfhe"),
        "alpha": (float, 2.0),
        "hurst": (float, 0.5),
        "beta": (float, 1.0),
        "hurst_index": (float, 0.5),
        "epsilons": (_float_list, None),
        "count": (int, 20000),
        "grid_size": (int, 1024),
        "seed": (int, 0),
        "out": (str, None),
        "emit_plot": (_bool, False),
    }
    resolved = _resolve(args, spec)
    workers = _resolve_workers(resolved)
    curve, theta, consts = _smallball_run(resolved, workers)

    lines = _header_lines("smallball", resolved)
    lines.append("epsilon,prob,stderr,count,grid_size")
    for k in range(curve.epsilons.size):
        lines.append(
            f"{_fmt(float(curve.epsilons[k]))},{_fmt(float(curve.probabilities[k]))},"
            f"{_fmt(float(curve.stderrs[k]))},{curve.count},{curve.grid_size}"
        )
    try:
        fit = smallball.fit_rate(curve, theta)
        lines.append(f"# fit_exponent = {_fmt(fit.exponent)}")
        lines.append(f"# fit_exponent_stderr = {_fmt(fit.stderr_exponent)}")
        lines.append(f"# fit_constant = {_fmt(fit.constant)}")
        lines.append(f"# fit_constant_stderr = {_fmt(fit.stderr_constant)}")
        for warning in fit.warnings:
            lines.append(f"# fit_warning = {warning}")
        if consts is not None:
            lam, lam_se = smallball.lambda_from_fit(fit, consts)
            lines.append(f"# lambda_hat = {_fmt(lam)}")
            lines.append(f"# lambda_stderr = {_fmt(lam_se)}")
    except NumericalError as exc:
        lines.append(f"# fit_unavailable = {exc}")
    _write_text(resolved["out"], lines)
    if resolved["emit_plot"] and resolved["out"]:
        _emit_plot_script(resolved["out"], "smallball")
    return 0


def _cmd_lil(args) -> int:
    spec = {
        "alpha": (float, 2.0),
        "hurst": (float, 0.5),
        "beta": (float, 1.0),
        "n_min": (int, 2),
        "n_max": (int, 26),
        "grid_points": (int, 160),
        "count": (int, 200),
        "seed": (int, 0),
        "lambda_hat": (float, None),
        "lambda_stderr": (float, 0.0),
        "fit_count": (int, 20000),
        "fit_grid_size": (int, 1024),
        "joint_y": (_bool, False),
        "out": (str, None),
        "emit_plot": (_bool, False),
    }
    resolved = _resolve(args, spec)
    workers = _resolve_workers(resolved)
    params = _model_params(resolved)
    consts = derive(params)

    lam, lam_se = resolved["lambda_hat"], resolved["lambda_stderr"]
    if lam is None:
        # measure lambda with an internal small-ball fit at a modest budget
        scale = math.sqrt(consts.c21)
        eps = smallball.geometric_epsilons(2.0 * scale, 0.9, 8)
        curve = smallball.estimate_curve_sfhe(
            consts, eps, resolved["fit_count"], resolved["fit_grid_size"],
            resolved["seed"] + 1, workers=workers,
        )
        fit = smallball.fit_rate(curve, consts.theta)
        lam, lam_se = smallball.lambda_from_fit(fit, consts)

    plan = lil.build_plan(
        params, n_min=resolved["n_min"], n_max=resolved["n_max"],
        grid_points=resolved["grid_points"],
    )
    blocks = lil.simulate_blocks(
        plan, consts, resolved["count"], resolved["seed"],
        joint_y=resolved["joint_y"], workers=workers,
    )
    stats = lil.compute_statistics(blocks, consts, lam, lam_se)

    lines = _header_lines("lil", resolved)
    if plan.clamped:
        lines.append(f"# n_max_clamped_to = {plan.n_max}")
    lines.append(f"# lambda_hat_used = {_fmt(lam)}")
    lines.append(f"# lambda_stderr_used = {_fmt(lam_se)}")
    lines.append(
        "realization,n,sup_u_over_psi,sup_un_over_psi,sup_yn_over_psi,"
        "running_min_un,running_min_u"
    )
    count = stats.sup_u_over_psi.shape[0]
    for r in range(count):
        for j, n in enumerate(stats.ns):
            lines.append(
                f"{r},{n},{_fmt(float(stats.sup_u_over_psi[r, j]))},"
                f"{_fmt(float(stats.sup_un_over_psi[r, j]))},"
                f"{_fmt(float(stats.sup_yn_over_psi[r, j]))},"
                f"{_fmt(float(stats.running_min_un[r, j]))},"
                f"{_fmt(float(stats.running_min_u[r, j]))}"
            )
    final = stats.running_min_un[:, -1]
    median = float(np.median(final))
    predicted = stats.predicted.value
    summary = {
        "predicted_kappa_lambda_theta": predicted,
        "predicted_stderr": stats.predicted.stderr,
        "median_running_min_un": median,
        "bracket": [0.5 * predicted, 2.0 * predicted],
        "median_within_bracket": bool(0.5 * predicted <= median <= 2.0 * predicted),
        "n_max": int(plan.n_max),
    }
    lines.append("# summary = " + json.dumps(summary))
    _write_text(resolved["out"], lines)
    if resolved["emit_plot"] and resolved["out"]:
        _emit_plot_script(resolved["out"], "lil")
    return 0


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Standalone plot for {csv_name} (generated by cllb {version})."""
import csv

import matplotlib.pyplot as plt

rows = []
with open({csv_name!r}) as fh:
    for line in fh:
        if line.startswith("#") or not line.strip():
            continue
        rows.append(line.strip().split(","))
header, data = rows[0], rows[1:]
cols = {{name: [float(r[i]) for r in data] for i, name in enumerate(header) if name != "n"}}
{body}
plt.tight_layout()
plt.savefig({png_name!r}, dpi=150)
print("wrote", {png_name!r})
'''

_PLOT_BODIES = {
    "smallball": (
        "plt.loglog(cols['epsilon'], cols['prob'], 'o-')\n"
        "plt.xlabel('epsilon'); plt.ylabel('P(sup |path| <= epsilon)')"
    ),
    "lil": (
        "ns = sorted(set(float(r[1]) for r in data))\n"
        "import collections\n"
        "by_n = collections.defaultdict(list)\n"
        "for r in data: by_n[float(r[1])].append(float(r[5]))\n"
        "med = [sorted(by_n[n])[len(by_n[n])//2] for n in ns]\n"
        "plt.plot(ns, med, 'o-')\n"
        "plt.xlabel('n'); plt.ylabel('median running min of sup|u_n|/psi')"
    ),
}


def _emit_plot_script(csv_path: str, kind: str) -> None:
    path = Path(csv_path)
    script = path.with_name(path.stem + "_plot.py")
    script.write_text(
        _PLOT_TEMPLATE.format(
            csv_name=path.name,
            version=__version__,
            body=_PLOT_BODIES[kind],
            png_name=path.stem + ".png",
        )
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub) -> None:
    sub.add_argument("--config", type=str, default=None)
    sub.add_argument("--workers", type=int, default=None)
    sub.add_argument("--out", type=str, default=None)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cllb", description=__doc__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("constants", help="derived constants for a parameter triple")
    p.add_argument("--alpha", type=float)
    p.add_argument("--hurst", type=float)
    p.add_argument("--beta", type=float)
    _add_common(p)
    p.set_defaults(func=_cmd_constants)

    p = subs.add_parser("cov-verify", help="closed form vs quadrature oracle CSV")
    p.add_argument("--alpha", type=float)
    p.add_argument("--hurst", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--grid", type=int)
    p.add_argument("--rel-tol", dest="rel_tol", type=float)
    _add_common(p)
    p.set_defaults(func=_cmd_cov_verify)

    p = subs.add_parser("sample", help="exact Gaussian path ensembles")
    p.add_argument("--process", choices=("sfhe", "fbm"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--hurst", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--hurst-index", dest="hurst_index", type=float)
    p.add_argument("--grid-kind", dest="grid_kind", choices=("uniform", "geometric", "explicit"))
    p.add_argument("--grid-start", dest="grid_start", type=float)
    p.add_argument("--grid-end", dest="grid_end", type=float)
    p.add_argument("--grid-points", dest="grid_points", type=int)
    p.add_argument("--grid-list", dest="grid_list", type=_float_list)
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=("csv", "bin"))
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = subs.add_parser("smallball", help="small-ball curve and rate fit")
    p.add_argument("--process", choices=("sfhe", "fbm"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--hurst", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--hurst-index", dest="hurst_index", type=float)
    p.add_argument("--epsilons", type=_float_list)
    p.add_argument("--count", type=int)
    p.add_argument("--grid-size", dest="grid_size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--emit-plot", dest="emit_plot", action="store_const", const=True)
    _add_common(p)
    p.set_defaults(func=_cmd_smallball)

    p = subs.add_parser("lil", help="localization harness statistics")
    p.add_argument("--alpha", type=float)
    p.add_argument("--hurst", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--n-min", dest="n_min", type=int)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--grid-points", dest="grid_points", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--lambda-hat", dest="lambda_hat", type=float)
    p.add_argument("--lambda-stderr", dest="lambda_stderr", type=float)
    p.add_argument("--fit-count", dest="fit_count", type=int)
    p.add_argument("--fit-grid-size", dest="fit_grid_size", type=int)
    p.add_argument("--joint-y", dest="joint_y", action="store_const", const=True)
    p.add_argument("--emit-plot", dest="emit_plot", action="store_const", const=True)
    _add_common(p)
    p.set_defaults(func=_cmd_lil)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        _emit_error("usage", str(exc))
        return _USAGE_EXIT
    except (ParameterError, DomainError) as exc:
        _emit_error("validation", str(exc))
        return _VALIDATION_EXIT
    except NumericalError as exc:
        _emit_error("numerical", str(exc))
        return _NUMERICAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
