"""Desk-scale localization harness for the Chung-LIL statistic.

The limit statement under study normalizes the running sup of the field by
``psi(t) = (t / loglog(1/t))^theta`` along the doubly-exponential times
``t_n = exp(-n^(1+beta))`` and predicts the liminf value ``kappa*lambda^theta``.
At double precision the sequence is feasible only up to roughly n = 26 (for
beta = 1), so almost-sure asymptotics are replaced by finite-n trend and
bracket statistics:

* slab fields ``u_n`` (noise restricted to [t_{n+1}, t_n)) are sampled
  independently across n, exactly as their independence is used in the
  localization argument;
* the early-noise remainder ``Y_n = u - u_n``, driven by the noise before
  t_{n+1} and so independent of ``u_n``, is drawn jointly from its full
  covariance (:func:`cllb.covariance.remainder_cov_matrix`), assembled in
  slab-start units, at that covariance's numerical rank (see
  :func:`_remainder_factor`);
* per realization and per n the harness records sup|u_n|/psi(t_n),
  sup|Y_n|/psi(t_n), sup|u|/psi(t_n) and their prefix minima over n, the
  finite-n proxy of the liminf. Each chunk of realizations is reduced to
  those sup-norms as soon as it is drawn, so no ensemble keeps its paths.

Note ``t_1 = 1/e`` for every beta, where ``loglog(1/t)`` vanishes and psi is
undefined (infinite normalization); statistics therefore start at n >= 2,
and n = 1 events are reported with probability zero.

Every slab grid is uniform on [t_{n+1}, t_n], with the same number m of
points. The noise is white in time, so ``u_n(t_{n+1} + r)`` has the law of
``u(r)`` as a process, and u is theta-self-similar: on that grid ``u_n`` is
``(t_n - t_{n+1})^theta`` times u on the unit grid ``k / (m - 1)``. One
factor of the heat-field matrix on the unit grid therefore serves every
slab (:func:`_unit_factor`), and the slab fields differ only in their
normals and their scale.

The remainder covariances are sampled through their correlation form
(diagonal rescaling before factorization): their variances span many
decades across a slab and the raw matrices are too ill-scaled for a
reliable factorization, while the correlation matrix is benign. The path
law is unchanged. ``Y_n`` is smooth on its slab, so its 160-point
correlation has numerical rank 20 to 21 at the default plan: a plain
Cholesky of it fails, and the pivoted one
(:func:`cllb.covariance.factorize_rank`) stops at that rank with no
jitter, so each path takes about 20 normals instead of 160.

Every draw factorizes a matrix it has just built and samples from the
factor: the unit-grid matrix once per run, in its own buffer
(``factorize(..., overwrite=True)``), and the correlation matrix once per
slab, at its rank. Every factor is built before any path is drawn: 26
factors, 0.9 MB, at the default plan.

Realization i draws every normal it needs from one keyed stream,
``Philox(key=(s, i))`` for one subseed s of the ensemble seed: for each
slab in order, ``m - 1`` normals for ``u_n`` (m grid points) and then r_n
for ``Y_n``, 4,490 at the default plan. Slabs take disjoint normals, so
they are independent, and ``u_n`` and ``Y_n`` of one slab too. Each field
is then a GEMM of its block of normals with its factor, over at least the
sampler's ``_MIN_ROWS`` rows, so every value depends only on (seed,
realization index), never on how many realizations are drawn at once.
Realizations are drawn in chunks whose normals take at most
``_CHUNK_BYTES`` (8 MiB, 233 realizations at the default plan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import _kernels
from .covariance import (
    CholeskyFactor,
    CovMatrix,
    TimeGrid,
    build_cov_matrix,
    factorize_rank,
    remainder_cov_matrix,
)
from .errors import NumericalError, ParameterError
from .params import DerivedConstants, ModelParams, psi, t_seq, validate
# ``sample`` is no longer called here; bench/test_smoke.py still reads the binding
from .sampler import _panel_normals, _product, check_draw, factorize, sample  # noqa: F401

__all__ = [
    "Slab",
    "LocalizationPlan",
    "build_plan",
    "SlabBlock",
    "BlockEnsembles",
    "simulate_blocks",
    "ChungPrediction",
    "LilStatistics",
    "check_statistics_plan",
    "check_lambda",
    "compute_statistics",
]

# t_{n_max} must stay a normal double (exponent < 690) and t_{n_max + 1},
# the last slab's left edge, must stay nonzero (exponent < 745).
_MAX_EXPONENT = 690.0
_MAX_EDGE_EXPONENT = 745.0
_MIN_SLAB_POINTS = 128
# Bytes of the normals drawn at once, whole realizations at a time: 233
# realizations of 4,490 normals at the default plan. No draw depends on it.
_CHUNK_BYTES = 8 << 20


@dataclass(frozen=True)
class Slab:
    """One localization slab [t_{n+1}, t_n], sampled on ``points`` uniform points."""

    n: int
    t_lo: float
    t_hi: float
    points: int

    @property
    def grid(self) -> TimeGrid:
        """The slab's uniform grid, built anew on each access and not kept."""
        return TimeGrid.uniform(self.t_lo, self.t_hi, self.points)


@dataclass(frozen=True)
class LocalizationPlan:
    beta: float
    n_min: int
    n_max: int
    requested_n_max: int
    slabs: tuple

    @property
    def clamped(self) -> bool:
        return self.n_max < self.requested_n_max


def _feasible_n_max(beta: float) -> int:
    n = 1
    while (n + 1.0) ** (1.0 + beta) < _MAX_EXPONENT and (n + 2.0) ** (1.0 + beta) < _MAX_EDGE_EXPONENT:
        n += 1
    return n


def build_plan(
    params: ModelParams,
    n_min: int = 2,
    n_max: int = 26,
    grid_points: int = 160,
) -> LocalizationPlan:
    """Construct the slab sequence with uniform per-slab grids of ``grid_points`` points.

    ``n_max`` is clamped to the double-precision-feasible range (26 for
    beta = 1); consecutive slab grids share the boundary time exactly. No
    grid is built here: a slab builds its own when asked (:attr:`Slab.grid`).
    """
    validate(params)
    if not 1 <= n_min < n_max:
        raise ParameterError(f"need 1 <= n_min < n_max, got n_min={n_min}, n_max={n_max}")
    if grid_points < _MIN_SLAB_POINTS:
        raise ParameterError(f"slab grids need >= {_MIN_SLAB_POINTS} points, got {grid_points}")
    beta = params.beta
    feasible = _feasible_n_max(beta)
    if n_min > feasible:
        raise ParameterError(
            f"no feasible slabs: n_min={n_min} exceeds the double-precision limit {feasible}"
        )
    effective = min(n_max, feasible)
    slabs = []
    for n in range(n_min, effective + 1):
        t_lo, t_hi = t_seq(n + 1, beta), t_seq(n, beta)
        slabs.append(Slab(n=n, t_lo=t_lo, t_hi=t_hi, points=grid_points))
    return LocalizationPlan(
        beta=beta, n_min=n_min, n_max=effective, requested_n_max=n_max, slabs=tuple(slabs)
    )


def _subseed(seed: int) -> int:
    """The key word of the realizations' streams, hashed from the ensemble seed."""
    ss = np.random.SeedSequence(entropy=[int(seed)])
    return int(ss.generate_state(1, np.uint64)[0])


def _remainder_factor(grid: TimeGrid, slab_start: float, consts: DerivedConstants):
    """The rank factor of the early-noise remainder on ``grid`` and the scale of its paths.

    Returns ``(factor, scale)``: a remainder path is ``scale * (L z)`` for
    ``L = factor.panels[0]`` and r standard normals z, r the factor's rank.

    The covariance is assembled in slab-start units, at times ``t / a`` with
    slab start 1 (``a = slab_start``), and the paths are scaled by
    ``a^theta``: ``R_a(c s, c t) = c^(2 theta) R_(a/c)(s, t)``. On the deep
    slabs ``a`` is subnormal (``t_27 = e^-729``), and in time units the
    entries underflow once ``2 theta`` nears 1; in slab units every entry
    stays a normal double.

    The draw goes through the correlation form ``D^-1 A D^-1``, with paths
    scaled by D, factorized at its numerical rank r by
    :func:`cllb.covariance.factorize_rank` (no jitter), which reads only its
    lower triangle.
    """
    cov = remainder_cov_matrix(TimeGrid(grid.points / slab_start), consts, 1.0)
    d = np.sqrt(np.diag(cov.entries))
    if np.any(d <= 0.0) or not np.isfinite(d).all():
        raise ParameterError("correlation-scaled sampling needs strictly positive variances")
    corr = cov.entries / d[:, None] / d[None, :]
    factor = factorize_rank(CovMatrix(grid=cov.grid, entries=corr))
    return factor, d * slab_start ** consts.theta


def _unit_factor(points: int, consts: DerivedConstants) -> CholeskyFactor:
    """Factor of the heat-field covariance on the unit grid ``k / (points - 1)``, k >= 1.

    The slab field of a uniform ``points``-point slab grid vanishes at its
    left edge and is a scaled draw from this factor on the other points
    (see the module notes and :func:`_slab_paths`).
    """
    unit = TimeGrid(np.arange(1, points) / (points - 1))
    return factorize(build_cov_matrix(unit, consts, check_psd=False), overwrite=True)


def _slab_factors(slabs, consts: DerivedConstants):
    """The factors of every slab's two fields, built before any path is drawn.

    Returns ``(unit, draws)``: ``unit`` is :func:`_unit_factor` for the
    slabs' grid size, and ``draws[j] = (c, rank, scale)`` for slab j, with
    ``u_n = c * (unit draw)``, ``c = (t_n - t_{n+1})^theta``, and ``Y_n =
    scale * (rank @ z)`` (:func:`_remainder_factor`). Each slab's grid is
    built here for its remainder's covariance and then dropped.
    """
    unit = _unit_factor(slabs[0].points, consts)
    draws = []
    for slab in slabs:
        factor, scale = _remainder_factor(slab.grid, slab.t_lo, consts)
        draws.append(((slab.t_hi - slab.t_lo) ** consts.theta, factor.panels[0], scale))
    return unit, tuple(draws)


def _slab_paths(z: np.ndarray, unit: CholeskyFactor, draws):
    """Yield each slab's ``(un, y)`` for the realizations whose normals are the rows of ``z``.

    A row holds, slab after slab, ``len(unit)`` normals for ``u_n`` and then
    r_n for ``Y_n``, r_n the rank of the slab's remainder factor; ``unit`` and
    ``draws`` are those of :func:`_slab_factors`. ``un`` and ``y`` are
    (rows x grid-size) paths on the slab's grid. The slab field vanishes at
    the left edge ``t_{n+1}`` almost surely, so that column of ``un`` is
    exact zeros. Each field is a GEMM per factor panel on its own block of
    columns, through :func:`cllb.sampler._product`, so each row depends
    only on its own normals, whatever the chunk's height.
    """
    m = len(unit)
    rows = [panel.shape[0] for panel in unit.panels]
    off = 0
    for c, rank, scale in draws:
        un = np.zeros((z.shape[0], m + 1))
        for j0, panel in zip(accumulate(rows, initial=1), unit.panels):
            block = _product(z[:, off : off + panel.shape[1]], panel)[:, : m + 1 - j0]
            un[:, j0 : j0 + block.shape[1]] = block
        un *= c
        off += m
        y = _product(z[:, off : off + rank.shape[1]], rank)[:, : m + 1]
        y *= scale
        off += rank.shape[1]
        yield un, y


def _chunks(unit: CholeskyFactor, draws, count: int, seed: int):
    """Yield ``(start, fields)`` for consecutive chunks of realizations, in order.

    ``fields`` yields the ``(un, y)`` of every slab (:func:`_slab_paths`)
    for the realizations [start, start + len(un)). Realization i draws its
    whole normal vector, every slab's ``u_n`` and ``Y_n`` normals in turn,
    from one keyed stream: ``Philox(key=(s, i))`` for the subseed s of the
    ensemble seed (:func:`cllb.sampler._panel_normals`). A chunk's normals
    take at most ``_CHUNK_BYTES``, and one buffer serves every chunk; draws
    depend only on (seed, realization index), not on the chunk height.
    """
    width = sum(len(unit) + rank.shape[1] for _, rank, _ in draws)
    height = min(count, max(1, _CHUNK_BYTES // (8 * width)))
    z = np.empty((height, width))
    stream = _subseed(seed)
    for start in range(0, count, height):
        chunk = z[: min(height, count - start)]
        _panel_normals(chunk, np.arange(chunk.shape[0]), 0, width, stream, start, 0)
        yield start, _slab_paths(chunk, unit, draws)


@dataclass(frozen=True)
class SlabBlock:
    """Sup-norms of the fields on one slab, one entry per realization.

    ``sup_un``, ``sup_yn`` and ``sup_u`` are sup|u_n|, sup|Y_n| and
    sup|u_n + Y_n| over the grid of slab ``n``. The paths themselves are
    not kept. ``jitter`` is the larger jitter of the slab's two factors,
    that of the unit factor: a remainder's rank factor carries none.
    """

    n: int
    sup_un: np.ndarray
    sup_yn: np.ndarray
    sup_u: np.ndarray
    jitter: float


@dataclass(frozen=True)
class BlockEnsembles:
    plan: LocalizationPlan
    count: int
    blocks: tuple


def simulate_blocks(
    plan: LocalizationPlan,
    consts: DerivedConstants,
    count: int,
    seed: int,
) -> BlockEnsembles:
    """Sample every slab field and its remainder independently across n.

    The unit factor and every remainder's rank factor are built first
    (:func:`_slab_factors`). Realizations are then drawn a chunk at a time,
    each from its own keyed stream (:func:`_chunks`), and every slab of a
    chunk is reduced at once to the sup-norms of :class:`SlabBlock`, so no
    path outlives its chunk. A block's jitter is the unit factor's; the
    remainders' rank factors carry none. A non-finite value anywhere in a
    path raises :class:`NumericalError`.
    """
    seed = check_draw(count, seed)
    unit, draws = _slab_factors(plan.slabs, consts)
    sups = np.empty((len(draws), 3, count))
    for start, fields in _chunks(unit, draws, count, seed):
        for slab_sups, (un, y) in zip(sups, fields):
            stop = start + un.shape[0]
            slab_sups[0, start:stop] = _kernels.row_max_abs(un)
            slab_sups[1, start:stop] = _kernels.row_max_abs(y)
            un += y
            slab_sups[2, start:stop] = _kernels.row_max_abs(un)
    # a NaN or inf anywhere in a path reaches its sup
    if not np.isfinite(sups).all():
        raise NumericalError("lil draw produced non-finite path values")
    blocks = tuple(
        SlabBlock(n=slab.n, sup_un=s[0], sup_yn=s[1], sup_u=s[2], jitter=unit.jitter)
        for slab, s in zip(plan.slabs, sups)
    )
    return BlockEnsembles(plan=plan, count=count, blocks=blocks)


@dataclass(frozen=True)
class ChungPrediction:
    """Predicted liminf value kappa * lambda^theta with propagated error."""

    value: float
    stderr: float


@dataclass(frozen=True)
class LilStatistics:
    """Per-realization, per-n normalized sups and their prefix minima.

    Arrays are (count x number of slabs), ordered by ``ns``.
    """

    ns: np.ndarray
    sup_u_over_psi: np.ndarray
    sup_un_over_psi: np.ndarray
    sup_yn_over_psi: np.ndarray
    running_min_un: np.ndarray
    running_min_u: np.ndarray
    predicted: ChungPrediction


def check_statistics_plan(plan: LocalizationPlan) -> None:
    """Reject a plan that starts at n = 1: t_1 = 1/e for every beta and the
    psi normalization is undefined there."""
    if plan.n_min < 2:
        raise ParameterError(
            "statistics need n_min >= 2: t_1 = 1/e for every beta and the "
            "psi normalization is undefined there"
        )


def check_lambda(lambda_hat: float, lambda_stderr: float = 0.0) -> None:
    """Reject a small-ball constant that is not finite and positive, or a
    standard error that is not finite and non-negative."""
    if not (math.isfinite(lambda_hat) and lambda_hat > 0.0):
        raise ParameterError(f"lambda_hat must be finite and positive, got {lambda_hat}")
    if not (math.isfinite(lambda_stderr) and lambda_stderr >= 0.0):
        raise ParameterError(f"lambda_stderr must be finite and >= 0, got {lambda_stderr}")


def compute_statistics(
    blocks: BlockEnsembles,
    consts: DerivedConstants,
    lambda_hat: float,
    lambda_stderr: float = 0.0,
) -> LilStatistics:
    """Normalized sup statistics, prefix minima and the predicted constant.

    Requires slabs starting at n >= 2 (psi is undefined at t_1 = 1/e).
    """
    plan = blocks.plan
    check_statistics_plan(plan)
    check_lambda(lambda_hat, lambda_stderr)

    ns = np.array([block.n for block in blocks.blocks], dtype=np.int64)
    psis = np.array([psi(t_seq(block.n, plan.beta), consts.theta) for block in blocks.blocks])
    sup_u, sup_un, sup_yn = (
        np.column_stack([getattr(block, name) for block in blocks.blocks]) / psis
        for name in ("sup_u", "sup_un", "sup_yn")
    )

    theta = consts.theta
    value = consts.kappa * lambda_hat ** theta
    stderr = consts.kappa * theta * lambda_hat ** (theta - 1.0) * lambda_stderr
    return LilStatistics(
        ns=ns,
        sup_u_over_psi=sup_u,
        sup_un_over_psi=sup_un,
        sup_yn_over_psi=sup_yn,
        running_min_un=np.minimum.accumulate(sup_un, axis=1),
        running_min_u=np.minimum.accumulate(sup_u, axis=1),
        predicted=ChungPrediction(value=value, stderr=stderr),
    )
