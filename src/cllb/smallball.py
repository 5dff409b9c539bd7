"""Monte Carlo small-ball probabilities and rate-law fitting.

For the processes here, the probability that the running sup stays inside a
shrinking ball decays like

    -log P( sup_[0,1] |X| <= eps ) ~ c * eps^(-1/theta),

with ``c = kappa^(1/theta) * lambda`` for the heat-equation field and
``c = lambda`` for the unit-scale fractional-Brownian fixture of index theta.
``lambda`` is only known analytically at theta = 1/2 (Brownian motion, where
it equals pi^2/8 and the whole curve has the classical reflection series);
everywhere else it is treated as a measured quantity with error bars.

Estimation samples each path on a uniform grid and decides per path whether
it stays in the ball. A path stops being synthesized at the first column
panel where its running sup leaves the largest ball (see
:func:`cllb.sampler.sample_sup_abs`), since it then counts at no epsilon.
The covariance is assembled with its points in coarse-to-fine order: on the
unit grid of 2^k points, 1, 1/2, 1/4, 3/4, 1/8, 3/8, ..., so that the first
panels hold a coarse skeleton of the whole of [0, 1], where most escaping
paths already leave the ball; then they draw no further normals and join no
further product. The order changes which realizations a seed gives, not
their law: the Cholesky generator samples the Gaussian vector exactly in
any point order (Dieker 2004, Sec. 2), and the grid sup does not depend on
the order its values are visited in. Paths are put back in time order only
for the Brownian bridge step, which needs neighbouring grid values.
The Brownian fixture builds no n x n matrix: its covariance is a
:class:`cllb.covariance.BrownianCov`, whose factor places each point from
its two nearest earlier-placed neighbours (Levy's midpoint construction;
the rows of the dense Cholesky factor in the same order), so it runs no
LAPACK factorization and no GEMM and draws the same paths up to rounding.
For the Brownian fixture (theta = 1/2) the decision is an exact draw of the
continuous event: between grid points Brownian motion given its grid values
is a chain of independent Brownian bridges, so a path whose grid sup is
inside the ball stays inside on [0, 1] with probability
prod_i P(bridge on interval i stays in (-eps, eps)), the two-sided image
series of Asmussen, Glynn & Pitman (1995), and one keyed uniform per path
turns that probability into a Bernoulli hit. Hit counts are then binomial
in the continuous-sup probability. The heat field and fBm with H != 1/2 are
not Markov, no such conditional law is available, and their estimate is the
hit fraction of the discrete grid sup. The discrete max understates the
continuous sup, so those estimates are biased upward, shrinking as the grid
refines (like grid^-theta for Holder-theta paths); comparing the curves of
two grid sizes per epsilon shows whether a fit window is trustworthy.

Fits: the rate constant comes from inverse-variance weighted least squares of
-log P against eps^(-1/theta) through the origin; the rate exponent from a
free log-log fit of -log P against 1/eps. Both take each point's variance,
(se / p)^2, from the curve's own ``stderrs`` and propagate it to their errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .covariance import BrownianCov, SequentialFactor, TimeGrid, build_cov_matrix
from .errors import NumericalError, ParameterError
from .params import DerivedConstants
from .sampler import (
    _keyed_generators,
    build_fbm_cov_matrix,
    check_draw,
    factorize,
    sample_sup_abs,
)

__all__ = [
    "BM_SMALL_BALL_CONSTANT",
    "bm_small_ball_prob",
    "SmallBallCurve",
    "SmallBallFit",
    "estimate_curve_sfhe",
    "estimate_curve_fbm",
    "fit_rate",
    "lambda_from_fit",
    "geometric_epsilons",
]

# Brownian motion: lim eps^2 log P(sup|B| <= eps) = -pi^2/8.
BM_SMALL_BALL_CONSTANT = math.pi ** 2 / 8.0

_MIN_COUNT = 10_000
_MIN_GRID_FOR_SMALL_EPS = 256
_SMALL_EPS = 0.2

# Terms of each reflection series summed by bm_small_ball_prob.
_SERIES_TERMS = 80
# Bridge image terms below exp(-2 * _IMAGE_CUTOFF), about 2e-22, are dropped.
_IMAGE_CUTOFF = 25.0
# In-ball paths bridged at a time: small scratch arrays keep peak memory flat.
_BRIDGE_ROWS = 32


def bm_small_ball_prob(eps: float) -> float:
    """P(sup_[0,1] |B| <= eps) for standard Brownian motion.

    The independent oracle for the Brownian fixture: the reflection series
    (4/pi) sum_k (-1)^k/(2k+1) exp(-(2k+1)^2 pi^2/(8 eps^2)) for small eps,
    and its theta-dual sum_k (-1)^k [Phi((2k+1) eps) - Phi((2k-1) eps)] for
    large eps, where each converges geometrically.
    """
    if eps <= 0.0:
        raise ParameterError(f"eps must be positive, got {eps}")
    if eps <= 1.5:
        acc = 0.0
        for k in range(_SERIES_TERMS):
            acc += (
                (-1) ** k
                / (2 * k + 1)
                * math.exp(-((2 * k + 1) ** 2) * math.pi ** 2 / (8.0 * eps ** 2))
            )
        return 4.0 / math.pi * acc

    def cdf(x: float) -> float:
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    acc = 0.0
    for k in range(-_SERIES_TERMS, _SERIES_TERMS + 1):
        acc += (-1) ** k * (cdf((2 * k + 1) * eps) - cdf((2 * k - 1) * eps))
    return acc


@dataclass(frozen=True)
class SmallBallCurve:
    """Estimated probabilities over a decreasing epsilon schedule.

    ``hits[k]`` counts the paths judged inside the ball of radius
    ``epsilons[k]``: for the Brownian fixture, exact Bernoulli draws of the
    continuous-sup event (nested across epsilons); otherwise the paths whose
    grid sup is at most ``epsilons[k]``. ``probabilities`` is
    ``hits / count`` and ``stderrs`` the binomial standard errors.
    """

    epsilons: np.ndarray
    probabilities: np.ndarray
    stderrs: np.ndarray
    hits: np.ndarray
    count: int
    grid_size: int


@dataclass(frozen=True)
class SmallBallFit:
    """Fitted rate law: exponent of 1/eps and prefactor of -log P."""

    exponent: float
    constant: float
    stderr_exponent: float
    stderr_constant: float
    warnings: tuple = field(default_factory=tuple)


def _validate_epsilons(epsilons) -> np.ndarray:
    eps = np.ascontiguousarray(epsilons, dtype=np.float64)
    if eps.ndim != 1 or eps.size < 1:
        raise ParameterError("need at least one epsilon")
    if not np.isfinite(eps).all():
        raise ParameterError("epsilons must be finite")
    if np.any(eps <= 0.0):
        raise ParameterError("epsilons must be positive")
    if eps.size > 1 and not np.all(np.diff(eps) < 0.0):
        raise ParameterError("epsilons must be strictly decreasing")
    return eps


def _bridge_log_stay(values: np.ndarray, dt: np.ndarray, eps: float) -> np.ndarray:
    """Per row, log P(Brownian bridges through ``values`` stay in (-eps, eps)).

    ``values`` holds one path per row, starting with X(0) = 0; ``dt`` the
    lengths of the intervals between its columns. In the barrier-shifted
    coordinates x = X(t_i) + eps, y = X(t_{i+1}) + eps on (0, w), w = 2 eps,
    the bridge over an interval of length t exits with probability

        q = sum_k exp(-2 (x + kw)(y + kw) / t) - sum_{k != 0} exp(-2 kw (kw + y - x) / t),

    the two-sided image series. Every term is at most exp(-2 x y / t) or
    exp(-2 (w - x)(w - y) / t), so intervals away from both barriers are
    skipped, and terms decay like exp(-2 k^2 w^2 / t), which fixes how many
    are summed.
    """
    w = 2.0 * eps
    span = _IMAGE_CUTOFF * float(dt.max())
    # x*y or (w-x)*(w-y) below _IMAGE_CUTOFF * t needs an endpoint within
    # reach of a barrier; only those intervals are gathered
    reach = eps - math.sqrt(span)
    edge = (values > reach) | (values < -reach)
    rows, cols = np.nonzero(edge[:, :-1] | edge[:, 1:])
    x = values[rows, cols] + eps
    y = values[rows, cols + 1] + eps
    t = dt[cols]
    q = np.exp(-2.0 * x * y / t) + np.exp(-2.0 * (w - x) * (w - y) / t)
    d = y - x
    # after image k the remaining terms are below exp(-2 k (k + 1) w^2 / t);
    # span / w / w cannot overflow where w^2 does (eps above about 1e154)
    images = max(1, math.ceil(0.5 * (math.sqrt(1.0 + 4.0 * (span / w) / w) - 1.0)))
    for k in range(1, images + 1):
        kw = k * w
        q += np.exp(-2.0 * (kw + x) * (kw + y) / t)
        q += np.exp(-2.0 * (kw + w - x) * (kw + w - y) / t)
        q -= np.exp(-2.0 * kw * (kw + d) / t)
        q -= np.exp(-2.0 * kw * (kw - d) / t)
    log_stay = np.log1p(-np.clip(q, 0.0, 1.0))
    return np.bincount(rows, weights=log_stay, minlength=values.shape[0])


def _path_uniforms(seed: int, indices: np.ndarray) -> np.ndarray:
    """One uniform on [0, 1) per path index, from the path's own Philox key.

    ``jumped()`` moves the counter 2**128 blocks past the start of the
    stream that supplies the path's first-panel normals; later panels start
    2**192 blocks apart, so none of them overlap.
    """
    return np.array([gen.random() for gen in _keyed_generators(seed, indices, jumped=True)])


def _bridge_depth(
    paths: np.ndarray,
    sups: np.ndarray,
    dt: np.ndarray,
    eps: np.ndarray,
    seed: int,
    indices: np.ndarray,
) -> np.ndarray:
    """Per path, how many leading epsilons hold its continuous Brownian sup.

    ``paths`` are the grid values of the paths with global ``indices``. A
    path is in the ball at eps[k] when it was in at eps[k-1], its grid sup
    is at most eps[k], and its uniform U satisfies U < P(every bridge stays
    inside). U is shared across epsilons and the stay probability grows with
    eps, so each eps gets an exact Bernoulli draw and the events are nested.
    """
    depth = np.zeros(sups.size, dtype=np.int64)
    rows = np.arange(sups.size)
    values = np.zeros((rows.size, paths.shape[1] + 1))
    values[:, 1:] = paths
    u = _path_uniforms(seed, indices)
    for k, e in enumerate(eps):
        inside = sups <= e
        rows, values, u, sups = rows[inside], values[inside], u[inside], sups[inside]
        if rows.size == 0:
            break
        inside = u < np.exp(_bridge_log_stay(values, dt, e))
        rows, values, u, sups = rows[inside], values[inside], u[inside], sups[inside]
        depth[rows] = k + 1
    return depth


def _coarse_to_fine(grid_size: int) -> np.ndarray:
    """Grid indices by decreasing lowest set bit of their 1-based index.

    A stable sort, so ties stay in time order. On the unit grid of 2^k
    points the first 2^j indices are the dyadic grid of level j; on other
    sizes the order is still coarse first.
    """
    ones = np.arange(1, grid_size + 1)
    return np.argsort(-(ones & -ones), kind="stable")


def _estimate(build, epsilons, count: int, grid_size: int, seed: int) -> SmallBallCurve:
    """Small-ball curve of the paths drawn from the covariance ``build(grid, order)``.

    Validates the arguments, builds the covariance on the unit grid with
    its points in coarse-to-fine ``order`` and factorizes it: a matrix in
    its own buffer, one n x n array in all, and a :class:`BrownianCov`
    with no n x n array at all. The Brownian bridge step runs when the
    factor is a :class:`SequentialFactor`, the factor of a
    :class:`BrownianCov`; it reads ``grid`` and ``order`` to put each path
    back in time order. Each path's ``depth`` is the number of leading
    epsilons whose ball holds it; ``hits[k]`` counts the paths deeper than k.
    """
    eps = _validate_epsilons(epsilons)
    _check_budget(eps, count, grid_size)
    seed = check_draw(count, seed)
    grid, order = _unit_grid(grid_size), _coarse_to_fine(grid_size)
    factor = factorize(build(grid, order), overwrite=True)
    if isinstance(factor, SequentialFactor):
        dt = np.diff(grid.points, prepend=0.0)
        depth = np.zeros(count, dtype=np.int64)
        # the sampler lists path values in the factor's point order
        columns = np.argsort(order)

        def on_batch(start: int, paths: np.ndarray, sups: np.ndarray) -> None:
            # a few rows at a time keeps the bridge step's scratch memory small
            candidates = np.flatnonzero(sups <= eps[0])
            for c in range(0, candidates.size, _BRIDGE_ROWS):
                rows = candidates[c : c + _BRIDGE_ROWS]
                depth[start + rows] = _bridge_depth(
                    paths[np.ix_(rows, columns)], sups[rows], dt, eps, seed, start + rows
                )

        sample_sup_abs(factor, count, seed, on_batch=on_batch, cut=eps[0])
    else:
        # eps strictly decreases, so the balls holding a grid sup are a prefix
        sups = sample_sup_abs(factor, count, seed, cut=eps[0])
        depth = (sups[:, None] <= eps).sum(axis=1)
    hits = np.array([(depth > k).sum() for k in range(eps.size)], dtype=np.int64)
    if not hits.any():
        raise NumericalError(
            "no path stayed inside any ball: every epsilon is too small for this "
            f"budget (count={count}); increase epsilon or count"
        )
    probs = hits / count
    stderrs = np.sqrt(probs * (1.0 - probs) / count)
    return SmallBallCurve(
        epsilons=eps,
        probabilities=probs,
        stderrs=stderrs,
        hits=hits,
        count=count,
        grid_size=len(grid),
    )


def _check_budget(eps: np.ndarray, count: int, grid_size: int) -> None:
    if count < _MIN_COUNT:
        raise ParameterError(f"count must be >= {_MIN_COUNT}, got {count}")
    if grid_size < 2:
        raise ParameterError(f"grid_size must be >= 2, got {grid_size}")
    if np.any(eps < _SMALL_EPS) and grid_size < _MIN_GRID_FOR_SMALL_EPS:
        raise ParameterError(
            f"grid_size >= {_MIN_GRID_FOR_SMALL_EPS} required when any epsilon is "
            f"below {_SMALL_EPS} (discretization guard), got {grid_size}"
        )


def _unit_grid(grid_size: int) -> TimeGrid:
    # uniform spacing 1/m on (0, 1]; the origin is excluded because the
    # process vanishes there almost surely and would only degenerate the
    # factorization
    return TimeGrid(np.arange(1, grid_size + 1) / grid_size)


def estimate_curve_sfhe(
    consts: DerivedConstants, epsilons, count: int, grid_size: int, seed: int
) -> SmallBallCurve:
    """Small-ball curve of the heat-equation field on [0, 1]."""
    return _estimate(
        lambda grid, order: build_cov_matrix(grid, consts, check_psd=False, order=order),
        epsilons, count, grid_size, seed,
    )


def estimate_curve_fbm(
    hurst_index: float, epsilons, count: int, grid_size: int, seed: int
) -> SmallBallCurve:
    """Small-ball curve of the fractional-Brownian fixture on [0, 1].

    At ``hurst_index == 0.5`` (Brownian motion) each hit is an exact
    Bernoulli draw of the continuous event sup_[0,1] |B| <= eps, made by
    bridging every grid interval, [0, t_1] from B(0) = 0 included, so the
    curve is unbiased for :func:`bm_small_ball_prob` at any grid size. At
    other indices the hits are those of the grid sup (biased upward; see
    the module docstring). Deterministic given (arguments, seed).

    The Brownian covariance is a :class:`BrownianCov`, factorized as a
    sparse sequential factor with no n x n matrix; other indices assemble
    the dense fBm matrix.
    """
    if hurst_index == 0.5:
        return _estimate(BrownianCov, epsilons, count, grid_size, seed)
    return _estimate(
        lambda grid, order: build_fbm_cov_matrix(grid, hurst_index, order=order),
        epsilons, count, grid_size, seed,
    )


def _wls(design: np.ndarray, y: np.ndarray, var: np.ndarray) -> tuple:
    """Inverse-variance weighted least squares of ``y`` on ``design``: (coef, cov)."""
    w = 1.0 / var
    normal = design.T @ (design * w[:, None])
    try:
        coef = np.linalg.solve(normal, design.T @ (w * y))
        cov = np.linalg.inv(normal)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"rate fit design is singular: {exc}") from None
    return coef, cov


def fit_rate(curve: SmallBallCurve, theta: float) -> SmallBallFit:
    """Fit the rate law on the usable part of a curve.

    Usable points have 0 < hits < count (the log transforms degenerate at
    the endpoints); at least 4 are required. Each -log P has the variance
    (se / p)^2 of the delta method on the curve's ``stderrs``. ``constant``
    is the weighted through-origin slope of -log P against eps^(-1/theta);
    ``exponent`` the free log-log slope against 1/eps, expected near
    1/theta. A warning is attached when -log P decreases between
    consecutive usable points by more than twice the combined standard error.
    """
    if not 0.0 < theta < 1.0:
        raise ParameterError(f"theta must lie in (0, 1), got {theta}")
    usable = (curve.hits > 0) & (curve.hits < curve.count)
    n_usable = int(usable.sum())
    if n_usable < 4:
        raise NumericalError(
            f"rate fit needs >= 4 usable curve points (0 < hits < count), got {n_usable}"
        )
    eps = curve.epsilons[usable]
    p = curve.probabilities[usable]
    y = -np.log(p)
    var_y = (curve.stderrs[usable] / p) ** 2  # delta method on log P

    warnings = []
    drops = y[1:] - y[:-1]
    tol = 2.0 * np.sqrt(var_y[1:] + var_y[:-1])
    for k in np.nonzero(drops < -tol)[0]:
        warnings.append(
            f"-log P not monotone beyond noise between eps={eps[k]:.6g} and "
            f"eps={eps[k + 1]:.6g} ({drops[k]:.3g} vs -{tol[k]:.3g})"
        )

    # constrained: y = constant * eps^(-1/theta), through the origin
    constant, cov_constant = _wls((eps ** (-1.0 / theta))[:, None], y, var_y)
    # free: log y = exponent * log(1/eps) + intercept
    design = np.column_stack([np.log(1.0 / eps), np.ones(eps.size)])
    exponent, cov_exponent = _wls(design, np.log(y), var_y / (y * y))
    return SmallBallFit(
        exponent=float(exponent[0]),
        constant=float(constant[0]),
        stderr_exponent=math.sqrt(cov_exponent[0, 0]),
        stderr_constant=math.sqrt(cov_constant[0, 0]),
        warnings=tuple(warnings),
    )


def lambda_from_fit(fit: SmallBallFit, consts: DerivedConstants) -> tuple:
    """Measured small-ball constant of the heat-equation field.

    The fitted prefactor estimates kappa^(1/theta) * lambda; divide it out.
    Returns (lambda_hat, stderr).
    """
    scale = consts.kappa ** (1.0 / consts.theta)
    return fit.constant / scale, fit.stderr_constant / scale


def geometric_epsilons(start: float = 0.5, ratio: float = 0.75, num: int = 8) -> np.ndarray:
    """Default geometric schedule eps_k = start * ratio**k."""
    if start <= 0.0 or not 0.0 < ratio < 1.0 or num < 1:
        raise ParameterError("schedule needs start > 0, 0 < ratio < 1, num >= 1")
    return start * ratio ** np.arange(num)
