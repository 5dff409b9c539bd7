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
  :func:`_draw_remainder`);
* per realization and per n the harness records sup|u_n|/psi(t_n),
  sup|Y_n|/psi(t_n), sup|u|/psi(t_n) and their prefix minima over n, the
  finite-n proxy of the liminf. Each slab is reduced to those sup-norms as
  soon as it is drawn, so no ensemble keeps its paths.

Note ``t_1 = 1/e`` for every beta, where ``loglog(1/t)`` vanishes and psi is
undefined (infinite normalization); statistics therefore start at n >= 2,
and n = 1 events are reported with probability zero.

Every slab grid is uniform on [t_{n+1}, t_n], with the same number m of
points. The noise is white in time, so ``u_n(t_{n+1} + r)`` has the law of
``u(r)`` as a process, and u is theta-self-similar: on that grid ``u_n`` is
``(t_n - t_{n+1})^theta`` times u on the unit grid ``k / (m - 1)``. One
factor of the heat-field matrix on the unit grid therefore serves every
slab (:func:`_unit_factor`), and the slab fields differ only in their
streams and their scale.

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
slab, at its rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .errors import ParameterError
from .params import DerivedConstants, ModelParams, psi, t_seq, validate
from .sampler import check_draw, factorize, sample

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


def _subseed(seed: int, *tags: int) -> int:
    ss = np.random.SeedSequence(entropy=[int(seed), *map(int, tags)])
    return int(ss.generate_state(1, np.uint64)[0])


def _draw_remainder(
    grid: TimeGrid, slab_start: float, consts: DerivedConstants, count: int, seed: int
):
    """``count`` joint draws of the early-noise remainder on ``grid``.

    The covariance is assembled in slab-start units, at times ``t / a`` with
    slab start 1 (``a = slab_start``), and the paths are scaled by
    ``a^theta``: ``R_a(c s, c t) = c^(2 theta) R_(a/c)(s, t)``. On the deep
    slabs ``a`` is subnormal (``t_27 = e^-729``), and in time units the
    entries underflow once ``2 theta`` nears 1; in slab units every entry
    stays a normal double.

    The draw goes through the correlation form ``D^-1 A D^-1``, with paths
    scaled by D, factorized at its numerical rank r by
    :func:`cllb.covariance.factorize_rank` (no jitter), which reads only its
    lower triangle. Each path takes r normals, the first r of its
    ``(seed, path index)`` stream.
    """
    cov = remainder_cov_matrix(TimeGrid(grid.points / slab_start), consts, 1.0)
    d = np.sqrt(np.diag(cov.entries))
    if np.any(d <= 0.0) or not np.isfinite(d).all():
        raise ParameterError("correlation-scaled sampling needs strictly positive variances")
    corr = cov.entries / d[:, None] / d[None, :]
    factor = factorize_rank(CovMatrix(grid=cov.grid, entries=corr))
    paths = sample(factor, count, seed).paths
    paths *= d * slab_start ** consts.theta
    return paths


def _unit_factor(points: int, consts: DerivedConstants) -> CholeskyFactor:
    """Factor of the heat-field covariance on the unit grid ``k / (points - 1)``, k >= 1.

    The slab field of a uniform ``points``-point slab grid vanishes at its
    left edge and is a scaled draw from this factor on the other points
    (see the module notes and :func:`_draw_slab`).
    """
    unit = TimeGrid(np.arange(1, points) / (points - 1))
    return factorize(build_cov_matrix(unit, consts, check_psd=False), overwrite=True)


def _draw_slab(
    slab: Slab, unit: CholeskyFactor, consts: DerivedConstants, count: int, seed: int
):
    """``count`` draws of the slab field ``u_n`` and its remainder ``Y_n`` on one slab.

    Returns ``(un, y)``: paths (count x grid-size) on ``slab.grid``.
    ``unit`` is :func:`_unit_factor` for the slab's grid size. ``seed`` is
    the ensemble seed; each field draws from its own subseed of it and of
    ``slab.n``, so slabs are independent.

    The slab field vanishes at the left edge ``t_{n+1}`` almost surely, so
    that grid point carries exact zeros; on the others it is
    ``(t_n - t_{n+1})^theta`` times a draw from ``unit``. The remainder is
    drawn jointly from its full covariance (:func:`_draw_remainder`).
    """
    un = np.zeros((count, len(unit) + 1))
    un[:, 1:] = sample(unit, count, _subseed(seed, slab.n, 0)).paths
    un *= (slab.t_hi - slab.t_lo) ** consts.theta
    y = _draw_remainder(slab.grid, slab.t_lo, consts, count, _subseed(seed, slab.n, 1))
    return un, y


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

    Every slab field is drawn from one :func:`_unit_factor`, built here
    before any slab grid; each slab is drawn by :func:`_draw_slab` and
    reduced at once to the sup-norms of :class:`SlabBlock`, so only one
    slab's grid and paths are alive at a time. A block's jitter is the
    unit factor's; the remainders' rank factors carry none.
    """
    seed = check_draw(count, seed)
    unit = _unit_factor(plan.slabs[0].points, consts)
    blocks = []
    for slab in plan.slabs:
        un, y = _draw_slab(slab, unit, consts, count, seed)
        sup_un = _kernels.row_max_abs(un)
        sup_yn = _kernels.row_max_abs(y)
        un += y
        sup_u = _kernels.row_max_abs(un)
        blocks.append(
            SlabBlock(n=slab.n, sup_un=sup_un, sup_yn=sup_yn, sup_u=sup_u, jitter=unit.jitter)
        )
    return BlockEnsembles(plan=plan, count=count, blocks=tuple(blocks))


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
