"""Batch command-line front door.

Subcommands: ``constants``, ``cov-verify``, ``sample``, ``smallball``,
``lil``. All file outputs are CSV-dialect text (comma separated, ``.``
decimal) whose first lines are ``#``-prefixed comments carrying the package
version, the fully resolved configuration and the seed, so every artifact is
reproducible from its own header.

Every option is declared once, in the ``_COMMANDS`` table: its type (or
choices) and built-in default. The table generates the argparse flags (whose
``--help`` lists each default) and the resolver, which applies command-line
flag > config file (flat ``key = value`` text, ``#`` comments; booleans are
``true`` or ``false``) > built-in default.

Exit codes: 0 success, 1 usage, 2 parameter/validation error, 3 numerical
failure. Errors print one machine-readable line to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import struct
import sys
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from . import __version__, lil, smallball
from .covariance import TimeGrid, UniformHeatCov, build_cov_matrix, cov_closed, cov_quadrature
from .errors import DomainError, NumericalError, ParameterError
from .params import ModelParams, derive, validate
# ``sample`` is no longer called here; bench/test_smoke.py still reads the binding
from .sampler import (  # noqa: F401
    build_fbm_cov_matrix, check_draw, factorize, sample, sample_sup_abs,
)

_USAGE_EXIT = 1
_VALIDATION_EXIT = 2
_NUMERICAL_EXIT = 3

_BIN_MAGIC = b"CLLB"
_BIN_VERSION = 1
# A negative number, as float() spells it: -1, -.5, -1e-3, -inf, -nan.
_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; usage must be 1
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        # argparse reads -1e-3 or -inf,1 as an unknown option, not as the
        # value of the option before it; an unknown option such as -q stays one
        if _NEGATIVE_VALUE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _emit_error(kind: str, detail: str) -> None:
    sys.stderr.write(f'cllb-error kind={kind} detail="{detail}"\n')


@contextmanager
def _file_errors(path, action: str):
    """Re-raise an ``OSError`` on ``path`` as a ParameterError that names it."""
    try:
        yield
    except OSError as exc:
        raise ParameterError(f"cannot {action} {path}: {exc.strerror or exc}") from None


def _load_config(path: str) -> dict:
    """Flat ``key = value`` config file; keys use flag spelling with - or _."""
    with _file_errors(path, "read config file"):
        text = Path(path).read_text()
    config = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"config line is not 'key = value': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        config[key.replace("-", "_")] = value
    return config


def _resolve(args: argparse.Namespace, options: dict) -> dict:
    """Apply flag > config file > built-in default to every option."""
    config = _load_config(args.config) if args.config else {}
    unknown = set(config) - set(options)
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for key, (kind, default, *_) in options.items():
        value = getattr(args, key)
        if value is None and key in config:
            value = _cast(key, kind, config[key])
        resolved[key] = default if value is None else value
    return resolved


def _cast(key: str, kind, text: str):
    """Convert one config-file value; one that does not parse exits 2."""
    try:
        if not isinstance(kind, tuple):
            return kind(text)
        if text in kind:
            return text
        raise ValueError(f"must be one of {', '.join(kind)}")
    except ValueError as exc:
        raise ParameterError(f"config value {key} = {text!r}: {exc}") from None


def _bool(text: str) -> bool:
    """Config-file boolean: ``true`` or ``false`` in any case, nothing else."""
    value = text.lower()
    if value not in ("true", "false"):
        raise ValueError("must be true or false")
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
    """Write each line of ``lines`` as it is produced, newline-ended, to :func:`_artifact`."""
    with _artifact(out, "w") as fh:
        fh.writelines(line + "\n" for line in lines)


def _model_params(resolved: dict) -> ModelParams:
    return validate(ModelParams(resolved["alpha"], resolved["hurst"], resolved["beta"]))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_constants(resolved: dict) -> int:
    consts = derive(_model_params(resolved))
    body = [
        f"theta = {_fmt(consts.theta)}",
        f"c_h = {_fmt(consts.c_h)}",
        f"c21 = {_fmt(consts.c21)}",
        f"kappa = {_fmt(consts.kappa)}",
    ]
    header = _header_lines("constants", resolved) if resolved["out"] else []
    _write_text(resolved["out"], header + body)
    return 0


def _cmd_cov_verify(resolved: dict) -> int:
    g = resolved["grid"]
    if g < 1:
        raise ParameterError(f"grid must be >= 1, got {g}")
    params = _model_params(resolved)
    consts = derive(params)
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
    build = TimeGrid.uniform if kind == "uniform" else TimeGrid.geometric
    return build(resolved["grid_start"], resolved["grid_end"], resolved["grid_points"])


@contextmanager
def _artifact(out, mode: str):
    """Yield the file an artifact is written to: ``out``, or stdout when empty.

    The file is written beside ``out`` and renamed over it only once the
    body completes, so a run that fails leaves no partial artifact at ``out``
    (and any earlier file there untouched). Errors name ``out``.
    """
    if not out:
        yield sys.stdout
        return
    partial = f"{out}.partial"
    try:
        with _file_errors(out, "write"):
            with open(partial, mode) as fh:
                yield fh
            os.replace(partial, out)
    except BaseException:
        with suppress(OSError):
            os.unlink(partial)
        raise


def _binary_writer(fh, count: int, npts: int):
    """Write the binary header; return an ``on_batch`` writing each batch in place.

    The body is column-major: path i at grid point j is the double at
    ``24 + 8 * (j * count + i)``. Each column of a batch is copied out
    contiguous and written at its offset.
    """
    fd = fh.fileno()
    _write_at(fd, _BIN_MAGIC + struct.pack("<IQQ", _BIN_VERSION, count, npts), 0)

    def on_batch(start: int, paths: np.ndarray, sups: np.ndarray) -> None:
        for j in range(npts):
            column = np.ascontiguousarray(paths[:, j], "<f8")
            _write_at(fd, column, 24 + 8 * (j * count + start))

    return on_batch


def _write_at(fd: int, data, offset: int) -> None:
    """``os.pwrite`` all of ``data`` at ``offset``."""
    view = memoryview(data).cast("B")
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


def _circulant_route(resolved: dict) -> bool:
    """Whether ``sample`` draws the heat field from its circulant embedding.

    It does on the uniform grid ``k * grid_end / grid_points``, k = 1..grid_points
    (the default ``--grid-start``), for a finite positive ``grid_end``;
    every other grid and the fbm process take the dense factor.
    """
    m, end = resolved["grid_points"], resolved["grid_end"]
    return (resolved["process"] == "sfhe" and resolved["grid_kind"] == "uniform"
            and resolved["grid_start"] == end / m and 0.0 < end < math.inf)


def _cmd_sample(resolved: dict) -> int:
    m = resolved["grid_points"]
    if m < 1:
        raise ParameterError(f"grid_points must be >= 1, got {m}")
    count, seed = resolved["count"], resolved["seed"]
    check_draw(count, seed)
    if resolved["grid_start"] is None:
        resolved["grid_start"] = resolved["grid_end"] / m
    circulant = _circulant_route(resolved)
    grid = None if circulant else _build_grid(resolved)
    binary = resolved["format"] == "bin"
    if binary and not resolved["out"]:
        raise _UsageError("binary output requires --out")
    if circulant:
        cov = UniformHeatCov(m, resolved["grid_end"], derive(_model_params(resolved)))
    elif resolved["process"] == "fbm":
        cov = build_fbm_cov_matrix(grid, resolved["hurst_index"])
    else:
        cov = build_cov_matrix(grid, derive(_model_params(resolved)), check_psd=False)
    # a dense factor overwrites the matrix's own buffer; free it before sampling
    factor = factorize(cov, overwrite=True)
    grid = cov.grid
    del cov

    # each batch is written as soon as it exists; no path outlives its batch
    with _artifact(resolved["out"], "wb" if binary else "w") as fh:
        if binary:
            writer = _binary_writer(fh, count, len(grid))
        else:
            lines = _header_lines("sample", resolved)
            lines.append("# columns = one row per path, one value per grid time")
            lines.append("# grid = " + ",".join(_fmt(float(t)) for t in grid.points))
            if factor.jitter:
                lines.append(f"# jitter = {_fmt(factor.jitter)}")
            fh.writelines(line + "\n" for line in lines)

            def writer(start: int, paths: np.ndarray, sups: np.ndarray) -> None:
                # the text of _fmt(float(v)), from one tolist() per row
                fh.writelines(",".join(f"{v:.17g}" for v in row.tolist()) + "\n" for row in paths)

        sample_sup_abs(factor, count, seed, on_batch=writer)
    return 0


def _sfhe_curve(consts, epsilons, count: int, grid_size: int, seed: int):
    """Heat-field small-ball curve; ``epsilons=None`` scales a default by sqrt(c21)."""
    if epsilons is None:
        epsilons = smallball.geometric_epsilons(2.0 * math.sqrt(consts.c21), 0.9, 8)
    return smallball.estimate_curve_sfhe(consts, epsilons, count, grid_size, seed)


def _cmd_smallball(resolved: dict) -> int:
    epsilons = resolved["epsilons"]
    count, grid_size, seed = resolved["count"], resolved["grid_size"], resolved["seed"]
    if resolved["process"] == "fbm":
        if epsilons is None:
            epsilons = smallball.geometric_epsilons(1.3, 0.85, 8)
        theta, consts = resolved["hurst_index"], None
        curve = smallball.estimate_curve_fbm(theta, epsilons, count, grid_size, seed)
    else:
        consts = derive(_model_params(resolved))
        theta = consts.theta
        curve = _sfhe_curve(consts, epsilons, count, grid_size, seed)

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


def _lil_rows(stats):
    """CSV rows ``realization,n,<five statistics>``, floats formatted as :func:`_fmt`.

    Values are converted column-wise, 32 realizations at a time: faster than
    one ``float()`` per value, and few Python floats are alive at once.
    """
    columns = (
        stats.sup_u_over_psi, stats.sup_un_over_psi, stats.sup_yn_over_psi,
        stats.running_min_un, stats.running_min_u,
    )
    count = columns[0].shape[0]
    for r0 in range(0, count, 32):
        r1 = min(r0 + 32, count)
        keys = ((r, n) for r in range(r0, r1) for n in stats.ns)
        values = zip(*(a[r0:r1].ravel().tolist() for a in columns))
        for (r, n), (a, b, c, d, e) in zip(keys, values):
            yield f"{r},{n},{a:.17g},{b:.17g},{c:.17g},{d:.17g},{e:.17g}"


def _cmd_lil(resolved: dict) -> int:
    params = _model_params(resolved)
    consts = derive(params)
    # every input is checked before the internal fit or any slab is sampled
    seed = check_draw(resolved["count"], resolved["seed"])
    plan = lil.build_plan(
        params, n_min=resolved["n_min"], n_max=resolved["n_max"],
        grid_points=resolved["grid_points"],
    )
    lil.check_statistics_plan(plan)

    lam, lam_se = resolved["lambda_hat"], resolved["lambda_stderr"]
    if lam is not None:
        lil.check_lambda(lam, lam_se)
    elif lam_se != 0.0:
        raise ParameterError(
            f"lambda_stderr={lam_se} needs lambda_hat: the internal fit measures its own"
        )
    else:
        # measure lambda with an internal small-ball fit at a modest budget
        curve = _sfhe_curve(
            consts, None, resolved["fit_count"], resolved["fit_grid_size"], (seed + 1) % 2 ** 64
        )
        fit = smallball.fit_rate(curve, consts.theta)
        lam, lam_se = smallball.lambda_from_fit(fit, consts)

    blocks = lil.simulate_blocks(plan, consts, resolved["count"], seed)
    stats = lil.compute_statistics(blocks, consts, lam, lam_se)

    lines = _header_lines("lil", resolved)
    lines.append(
        f"# slab_grid = uniform on [t_(n+1), t_n], {resolved['grid_points']} points"
    )
    if plan.clamped:
        lines.append(f"# n_max_clamped_to = {plan.n_max}")
    lines.append(f"# lambda_hat_used = {_fmt(lam)}")
    lines.append(f"# lambda_stderr_used = {_fmt(lam_se)}")
    lines.append(
        "realization,n,sup_u_over_psi,sup_un_over_psi,sup_yn_over_psi,"
        "running_min_un,running_min_u"
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
    summary_line = "# summary = " + json.dumps(summary)
    _write_text(resolved["out"], itertools.chain(lines, _lil_rows(stats), [summary_line]))
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
    text = _PLOT_TEMPLATE.format(
        csv_name=path.name,
        version=__version__,
        body=_PLOT_BODIES[kind],
        png_name=path.stem + ".png",
    )
    with _artifact(str(script), "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# options: each declared once, as {name: (type or choices, default[, note])}
# ---------------------------------------------------------------------------

_MODEL = {"alpha": (float, 2.0), "hurst": (float, 0.5), "beta": (float, 1.0)}
_PROCESS = {"process": (("sfhe", "fbm"), "sfhe"), **_MODEL, "hurst_index": (float, 0.5)}
_COMMON = {"out": (str, None, "output file; stdout when None")}

_COMMANDS = {
    "constants": (_cmd_constants, "derived constants for a parameter triple",
                  {**_MODEL, **_COMMON}),
    "cov-verify": (_cmd_cov_verify, "closed form vs quadrature oracle CSV", {
        **_MODEL, "grid": (int, 10), "rel_tol": (float, 1e-8), **_COMMON,
    }),
    "sample": (_cmd_sample, "exact Gaussian path ensembles", {
        **_PROCESS,
        "grid_kind": (("uniform", "geometric", "explicit"), "uniform"),
        "grid_start": (float, None, "grid_end / grid_points when None"),
        "grid_end": (float, 1.0), "grid_points": (int, 64),
        "grid_list": (_float_list, None, "comma-separated times for --grid-kind explicit"),
        "count": (int, 100), "seed": (int, 0),
        "format": (("csv", "bin"), "csv"),
        **_COMMON,
    }),
    "smallball": (_cmd_smallball, "small-ball curve and rate fit", {
        **_PROCESS,
        "epsilons": (_float_list, None, "comma-separated; a geometric schedule when None"),
        "count": (int, 20000), "grid_size": (int, 1024), "seed": (int, 0),
        "emit_plot": (_bool, False),
        **_COMMON,
    }),
    "lil": (_cmd_lil, "localization harness statistics", {
        **_MODEL,
        "n_min": (int, 2), "n_max": (int, 26), "grid_points": (int, 160),
        "count": (int, 200), "seed": (int, 0),
        "lambda_hat": (float, None, "measured by an internal small-ball fit when None"),
        "lambda_stderr": (float, 0.0),
        "fit_count": (int, 20000), "fit_grid_size": (int, 1024),
        "emit_plot": (_bool, False),
        **_COMMON,
    }),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="cllb", description=__doc__)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value file; flags override it")
        for key, (kind, default, *note) in options.items():
            if kind is _bool:
                how = {"action": "store_const", "const": True}
            elif isinstance(kind, tuple):
                how = {"choices": kind}
            else:
                how = {"type": kind}
            text = "; ".join([*note, f"default: {default}"])
            p.add_argument("--" + key.replace("_", "-"), help=text, **how)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        handler, _, options = _COMMANDS[args.subcommand]
        return handler(_resolve(args, options))
    except _UsageError as exc:
        _emit_error("usage", str(exc))
        return _USAGE_EXIT
    except (ParameterError, DomainError) as exc:
        _emit_error("validation", str(exc))
        return _VALIDATION_EXIT
    except NumericalError as exc:
        _emit_error("numerical", str(exc))
        return _NUMERICAL_EXIT
    except MemoryError as exc:
        # a grid or count too large for this host's memory is a bad input
        _emit_error("validation", f"out of memory: {exc}")
        return _VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
