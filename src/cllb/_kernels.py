"""Hot element-wise numeric kernels, in numpy.

Only element-wise loops live here: pairwise covariance assembly (dominated
by libm ``pow`` calls) and the per-path sup reduction. Factorizations and
path synthesis run on LAPACK/BLAS. There is one backend, named by
``BACKEND`` for run records.

Assembly runs in place on two n x n buffers (the result and one scratch
array), so building a 4096-point matrix peaks at 256 MB above its inputs.
Each entry goes through the same operations in the same order as the
broadcast expression in its docstring, so the bits are those of that
expression, and the matrix is exactly symmetric: entry (i, j) and entry
(j, i) see the same operands.

Assembly is silent about overflow: an entry that overflows comes out
non-finite, and :func:`cllb.covariance.factorize` rejects the matrix with
one :class:`~cllb.errors.NumericalError`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "bifractional_cov",
    "fbm_cov",
    "row_max_abs",
]

BACKEND = "numpy"


def bifractional_cov(times: np.ndarray, two_theta: float, coeff: float, shift: float = 0.0) -> np.ndarray:
    """Pairwise ``coeff * ((s + t - 2*shift)**two_theta - |s - t|**two_theta)``.

    With ``shift=0`` this is the temporal covariance of the solution field
    (up to the variance coefficient folded into ``coeff``); with
    ``shift=a`` it is the covariance of the slab field started at ``a``,
    which cancels for a point near ``a`` paired with a far one.
    :func:`cllb.covariance.build_cov_matrix` assembles the slab field
    without that subtraction.
    """
    times = np.ascontiguousarray(times, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.add.outer(times, times)
        out -= 2.0 * shift
        out **= two_theta
        out -= _abs_gap_power(times, two_theta)
        out *= coeff
    return out


def fbm_cov(times: np.ndarray, hurst_index: float) -> np.ndarray:
    """Fractional-Brownian-motion covariance ``(s^2h + t^2h - |s-t|^2h)/2``."""
    times = np.ascontiguousarray(times, dtype=np.float64)
    two_h = 2.0 * hurst_index
    with np.errstate(over="ignore", invalid="ignore"):
        powers = times ** two_h
        out = np.add.outer(powers, powers)
        out -= _abs_gap_power(times, two_h)
        out *= 0.5
    return out


def _abs_gap_power(times: np.ndarray, power: float) -> np.ndarray:
    """Pairwise ``|s - t| ** power`` in one new n x n buffer.

    ``**=`` takes the same path as ``**`` (numpy special-cases some scalar
    exponents in both), so the bits match the broadcast expression.
    """
    gap = np.subtract.outer(times, times)
    np.abs(gap, out=gap)
    gap **= power
    return gap


def row_max_abs(x: np.ndarray) -> np.ndarray:
    """Per-row sup-norm ``max_j |x[i, j]|`` without materializing ``|x|``."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return np.maximum(x.max(axis=1), -x.min(axis=1))
